#include "simnet/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>

#include "simnet/check.h"
#include "simnet/rng.h"

namespace pardsm {

namespace {

/// Frame types on the wire: [u32 length][u8 type][payload...].
enum FrameType : std::uint8_t {
  kFrameHello = 1,      ///< i32 from, i32 to, u64 incarnation
  kFrameMsg = 2,        ///< i32 from, i32 to, u64 id, meta, body
  kFrameHeartbeat = 3,  ///< i32 from
  kFrameControl = 4,    ///< i32 from, i32 to, u32 code, u64 arg
};

/// A HELLO is fixed-size, so the acceptor reads exactly its bytes and
/// leaves whatever follows for the worker that adopts the connection.
constexpr std::uint32_t kHelloPayload = 1 + 4 + 4 + 8;
constexpr std::size_t kHelloBytes = 4 + kHelloPayload;

/// Redial backoff: the delay doubles from kDialBackoffBase per failed
/// attempt up to kDialBackoffMax, then scales by a factor uniform in
/// [1 - kDialJitter, 1 + kDialJitter].
constexpr Duration kDialBackoffBase = millis(5);
constexpr Duration kDialBackoffMax = millis(300);
constexpr double kDialJitter = 0.25;
/// Dial-jitter stream tag (counter_rng).
constexpr std::uint64_t kDialJitterTag = 0xD1A1;

/// Upper bound on one frame — a corrupt length prefix must not drive a
/// multi-gigabyte allocation.
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Initial read buffer of an inbound connection; it doubles when full.
constexpr std::size_t kReadBufferBytes = 4096;

/// Parse "host:port" into a sockaddr_in.  Returns false on malformed input.
bool parse_addr(const std::string& host_port, sockaddr_in* out) {
  const auto colon = host_port.rfind(':');
  if (colon == std::string::npos) return false;
  const std::string host = host_port.substr(0, colon);
  const int port = std::atoi(host_port.c_str() + colon + 1);
  if (port < 0 || port > 65535) return false;
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<std::uint16_t>(port));
  return inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

/// Blocking write of a whole buffer (a fresh connection's HELLO).
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

timespec to_timespec(std::chrono::nanoseconds d) {
  const auto ns = std::max<std::int64_t>(d.count(), 0);
  return timespec{static_cast<std::time_t>(ns / 1'000'000'000),
                  static_cast<long>(ns % 1'000'000'000)};
}

}  // namespace

SocketTransport::SocketTransport(SocketOptions options,
                                 ChannelOptions channel, std::uint64_t seed)
    : WallClockRoot(channel, seed), options_(std::move(options)) {
  PARDSM_CHECK(options_.total_processes > 0, "sockets: need total_processes");
  PARDSM_CHECK(options_.total_processes <= 1024,
               "sockets: at most 1024 processes");
  PARDSM_CHECK(options_.heartbeat_timeout.us > options_.heartbeat_period.us,
               "sockets: heartbeat_timeout must exceed heartbeat_period");
  const std::size_t n = options_.total_processes;
  if (options_.local_ids.empty()) {
    for (std::size_t p = 0; p < n; ++p) {
      options_.local_ids.push_back(static_cast<ProcessId>(p));
    }
  }
  options_.addrs.resize(n);
  slot_of_.assign(n, -1);
  peers_ = std::make_unique<PeerState[]>(n);
  stats_.resize(n);
  stop_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  PARDSM_CHECK(stop_fd_ >= 0, "sockets: eventfd failed");
}

SocketTransport::~SocketTransport() {
  halt();
  ::close(stop_fd_);
}

std::size_t SocketTransport::local_index(ProcessId p) const {
  PARDSM_CHECK(is_local(p), "sockets: not a local process");
  return static_cast<std::size_t>(slot_of_[static_cast<std::size_t>(p)]);
}

ProcessId SocketTransport::add_endpoint(Endpoint* ep) {
  PARDSM_CHECK(ep != nullptr, "add_endpoint: null endpoint");
  PARDSM_CHECK(!running_.load(), "add_endpoint: already started");
  PARDSM_CHECK(exec_.size() < options_.local_ids.size(),
               "add_endpoint: more endpoints than local_ids");
  const ProcessId assigned = options_.local_ids[exec_.size()];
  PARDSM_CHECK(assigned >= 0 && static_cast<std::size_t>(assigned) <
                                    options_.total_processes,
               "add_endpoint: local id outside the system");
  slot_of_[static_cast<std::size_t>(assigned)] =
      static_cast<int>(exec_.add(ep));
  local_ids_.push_back(assigned);
  return assigned;
}

void SocketTransport::set_peer_addr(ProcessId p, std::string host_port) {
  PARDSM_CHECK(!running_.load(), "set_peer_addr: already started");
  PARDSM_CHECK(p >= 0 &&
                   static_cast<std::size_t>(p) < options_.total_processes,
               "set_peer_addr: bad process");
  options_.addrs[static_cast<std::size_t>(p)] = std::move(host_port);
}

void SocketTransport::start() {
  PARDSM_CHECK(!running_.exchange(true), "start: already running");
  PARDSM_CHECK(exec_.size() == options_.local_ids.size(),
               "start: not all local endpoints registered");
  var_count_ = stats_.var_hint();
  (void)faults();

  // Listener: inherited fd (bootstrap respawn path) or bind our own.
  if (options_.listen_fd >= 0) {
    own_listen_fd_ = options_.listen_fd;
  } else {
    own_listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    PARDSM_CHECK(own_listen_fd_ >= 0, "socket() failed");
    const int one = 1;
    ::setsockopt(own_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    PARDSM_CHECK(::bind(own_listen_fd_,
                        reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "bind() failed");
    PARDSM_CHECK(::listen(own_listen_fd_, 128) == 0, "listen() failed");
  }
  {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    PARDSM_CHECK(::getsockname(own_listen_fd_,
                               reinterpret_cast<sockaddr*>(&bound),
                               &len) == 0,
                 "getsockname() failed");
    listen_port_ = ntohs(bound.sin_port);
  }
  // The acceptor polls before it accepts: a connection reset in between
  // must not leave it blocked in accept().
  ::fcntl(own_listen_fd_, F_SETFL,
          ::fcntl(own_listen_fd_, F_GETFL) | O_NONBLOCK);

  const std::int64_t t = steady_now().time_since_epoch().count();
  for (std::size_t p = 0; p < options_.total_processes; ++p) {
    peers_[p].last_rx.store(t);
    peers_[p].up.store(true);
  }

  // One outbound channel per (local sender, any receiver).
  const std::size_t n = options_.total_processes;
  out_.assign(local_ids_.size() * n, nullptr);
  for (ProcessId from : local_ids_) {
    for (ProcessId to = 0; to < static_cast<ProcessId>(n); ++to) {
      if (to == from) continue;
      auto ch = std::make_unique<OutChannel>();
      ch->from = from;
      ch->to = to;
      ch->frame.reserve(256);
      out_[local_index(from) * n + static_cast<std::size_t>(to)] = ch.get();
      channels_.push_back(std::move(ch));
    }
  }

  for (auto& ch : channels_) {
    OutChannel* raw = ch.get();
    raw->writer = std::thread([this, raw] { writer_loop(*raw); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
  detector_ = std::thread([this] { detector_loop(); });
  // Last, so the root's clock starts once every thread is up: a caller's
  // first schedule_at and a scenario's timeline share time zero.  The
  // acceptor's adopt tasks wait in the mailboxes until then.
  exec_.start();
}

void SocketTransport::halt() {
  if (!running_.exchange(false)) return;

  // Wake the acceptor and the detector.
  const std::uint64_t one = 1;
  (void)!::write(stop_fd_, &one, sizeof(one));
  // Wake the writers, also one waiting for buffer space; stop the workers.
  for (auto& ch : channels_) {
    std::lock_guard lock(ch->mu);
    if (ch->fd >= 0) ::shutdown(ch->fd, SHUT_RDWR);
    ch->cv.notify_all();
  }
  exec_.halt();

  if (acceptor_.joinable()) acceptor_.join();
  if (detector_.joinable()) detector_.join();
  for (auto& ch : channels_) {
    if (ch->writer.joinable()) ch->writer.join();
  }
  {
    std::lock_guard lock(conns_mu_);
    for (const auto& c : conns_) ::close(c->fd);
    conns_.clear();
  }
  if (own_listen_fd_ >= 0) ::close(own_listen_fd_);
  own_listen_fd_ = -1;
}

bool SocketTransport::drain(std::chrono::milliseconds idle,
                            std::chrono::milliseconds timeout) {
  const auto deadline = steady_now() + timeout;
  std::uint64_t last = exec_.activity();
  auto last_change = steady_now();
  while (steady_now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::uint64_t cur = exec_.activity();
    const auto t = steady_now();
    if (cur != last) {
      last = cur;
      last_change = t;
      continue;
    }
    if (t - last_change < idle) continue;
    // The idle window also requires empty mailboxes and channel queues.
    bool busy = exec_.has_queued();
    for (auto& ch : channels_) {
      std::lock_guard lock(ch->mu);
      if (!ch->queue.empty()) busy = true;
    }
    if (!busy) return true;
  }
  return false;
}

void SocketTransport::send(ProcessId from, ProcessId to, BodyRef body,
                           MessageMeta meta) {
  PARDSM_CHECK(to >= 0 &&
                   static_cast<std::size_t>(to) < options_.total_processes,
               "send: bad destination");
  PARDSM_CHECK(is_local(from), "send: sender not hosted here");
  PARDSM_CHECK(exec_.on_worker(local_index(from)),
               "send: caller is not the sender's mailbox worker");
  exec_.note_activity();
  Message m = stamp(from, to, std::move(body), std::move(meta));

  // Fault and then chaos decisions, drawn from the frame's counter-based
  // stream so they depend on (seed, pair, frame index) only.  All sends on
  // a given pair originate on the sender's mailbox thread, so the pair's
  // stream index (and the channel's encoding buffer) needs no lock.
  std::optional<Rng> stream;
  const int copies = fate(m, stream).copies;
  if (to == from) {
    // Self-delivery: straight to our own mailbox (no socket, no chaos).
    m.deliver_time = m.send_time;
    enqueue(std::move(m), copies);
    return;
  }
  if (copies == 0) return;

  const ChaosOptions& chaos = options_.chaos;
  Duration delay{};
  bool disconnect = false;
  if (chaos.any()) {
    Rng& rng = draws(m, stream);
    if (chaos.delay_max.us > 0) {
      const std::int64_t span = chaos.delay_max.us - chaos.delay_min.us;
      delay = Duration{chaos.delay_min.us +
                       (span > 0 ? static_cast<std::int64_t>(rng.below(
                                       static_cast<std::uint64_t>(span) + 1))
                                 : 0)};
    }
    disconnect = rng.chance(chaos.disconnect_probability);
  }

  // Serialize once into the channel's buffer:
  // [u32 length][type][from][to][id][meta][body].
  OutChannel& ch = channel(from, to);
  WireWriter& w = ch.frame;
  w.clear();
  w.u32(0);
  w.u8(kFrameMsg);
  w.i32(from);
  w.i32(to);
  w.u64(m.id);
  wire::encode_meta(w, m.meta);
  wire::encode_body(w, *m.body);
  PARDSM_CHECK(w.size() - 4 <= kMaxFrameBytes, "socket: frame too large");
  w.patch_u32(0, static_cast<std::uint32_t>(w.size() - 4));
  const std::uint8_t* bytes = w.bytes().data();
  const std::size_t size = w.size();

  if (copies == 2) bump(counters_.duplicates);
  if (delay.us > 0) bump(counters_.chaos_delays);
  if (disconnect) bump(counters_.chaos_disconnects);
  // Counted before any byte moves: the receiver may deliver (and the run
  // quiesce) before this thread runs again, and counters must agree.
  bump(counters_.frames_sent, static_cast<std::uint64_t>(copies));
  bump(counters_.bytes_sent, static_cast<std::uint64_t>(copies) * size);

  // A frame to a local destination holds its pending unit until the
  // receiving handler returns; one to a remote process until its last
  // byte is written (write_or_queue / flush_front).
  const bool local_dest = is_local(to);
  std::lock_guard lock(ch.mu);
  if (copies == 1 && delay.us == 0 && !disconnect) {
    if (local_dest) exec_.add_pending();
    write_or_queue(ch, bytes, size, !local_dest);
    return;
  }
  // Chaos frames always go through the writer thread, which honours the
  // head-of-line delay and the injected disconnect.
  const auto earliest = steady_now() + std::chrono::microseconds(delay.us);
  for (int c = 0; c < copies; ++c) {
    exec_.add_pending();
    QueuedFrame& qf = ch.queue.emplace_back();
    qf.bytes.assign(bytes, bytes + size);
    qf.earliest = earliest;
    qf.counts_pending = !local_dest;
    qf.chaos_disconnect = disconnect && c + 1 == copies;
  }
  ch.cv.notify_one();
}

void SocketTransport::set_peer_callback(PeerCallback cb) {
  std::lock_guard lock(cb_mu_);
  peer_cb_ = std::move(cb);
}

bool SocketTransport::peer_up(ProcessId p) const {
  return peers_[static_cast<std::size_t>(p)].up.load();
}

std::uint64_t SocketTransport::peer_incarnation(ProcessId p) const {
  std::lock_guard lock(peers_mu_);
  return peers_[static_cast<std::size_t>(p)].incarnation;
}

void SocketTransport::set_control_callback(ControlCallback cb) {
  std::lock_guard lock(cb_mu_);
  control_cb_ = std::move(cb);
}

void SocketTransport::send_control(ProcessId to, std::uint32_t code,
                                   std::uint64_t arg) {
  PARDSM_CHECK(!local_ids_.empty(), "send_control: no local process");
  const ProcessId from = local_ids_.front();
  if (to == from || is_local(to)) {
    // Local control short-circuits (the bootstrap barrier also runs
    // all-local in tests).
    ControlCallback cb;
    {
      std::lock_guard lock(cb_mu_);
      cb = control_cb_;
    }
    if (cb) cb(from, code, arg);
    return;
  }
  WireWriter w;
  w.reserve(32);
  w.u32(1 + 4 + 4 + 4 + 8);
  w.u8(kFrameControl);
  w.i32(from);
  w.i32(to);
  w.u32(code);
  w.u64(arg);
  bump(counters_.frames_sent);
  bump(counters_.bytes_sent, w.size());
  OutChannel& ch = channel(from, to);
  std::lock_guard lock(ch.mu);
  write_or_queue(ch, w.bytes().data(), w.size(), /*counts_pending=*/false);
}

std::uint16_t SocketTransport::port() const { return listen_port_; }

SocketCounters SocketTransport::counters() const {
  SocketCounters c;
  c.frames_sent = relaxed_load(counters_.frames_sent);
  c.frames_received = relaxed_load(counters_.frames_received);
  c.frames_rejected = relaxed_load(counters_.frames_rejected);
  c.bytes_sent = relaxed_load(counters_.bytes_sent);
  c.bytes_received = relaxed_load(counters_.bytes_received);
  c.heartbeats_sent = relaxed_load(counters_.heartbeats_sent);
  c.heartbeats_received = relaxed_load(counters_.heartbeats_received);
  c.dials = relaxed_load(counters_.dials);
  c.reconnects = relaxed_load(counters_.reconnects);
  c.duplicates = relaxed_load(counters_.duplicates);
  c.chaos_disconnects = relaxed_load(counters_.chaos_disconnects);
  c.chaos_delays = relaxed_load(counters_.chaos_delays);
  c.peer_down_events = relaxed_load(counters_.peer_down_events);
  c.peer_up_events = relaxed_load(counters_.peer_up_events);
  return c;
}

// -- writer side -------------------------------------------------------------

std::size_t SocketTransport::write_now(OutChannel& ch,
                                       const std::uint8_t* data,
                                       std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(ch.fd, data + sent, size - sent,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      // Broken connection: what went out is lost with it, so the frame is
      // resent whole after the writer thread redials.
      ch.broken = true;
      return 0;
    }
  }
  return sent;
}

void SocketTransport::write_or_queue(OutChannel& ch, const std::uint8_t* data,
                                     std::size_t size, bool counts_pending) {
  std::size_t sent = 0;
  if (ch.fd >= 0 && !ch.broken && ch.queue.empty()) {
    sent = write_now(ch, data, size);
    if (sent == size) {
      ++ch.frames_written;
      return;
    }
  }
  if (counts_pending) exec_.add_pending();
  QueuedFrame& qf = ch.queue.emplace_back();
  qf.bytes.assign(data, data + size);
  qf.written = sent;
  qf.counts_pending = counts_pending;
  ch.cv.notify_one();
}

void SocketTransport::flush_front(OutChannel& ch,
                                  std::unique_lock<std::mutex>& lock) {
  QueuedFrame& qf = ch.queue.front();
  while (qf.written < qf.bytes.size()) {
    const std::size_t n =
        write_now(ch, qf.bytes.data() + qf.written,
                  qf.bytes.size() - qf.written);
    if (ch.broken) {
      qf.written = 0;
      return;
    }
    qf.written += n;
    if (n == 0) {
      // The socket buffer is full: wait for room without the lock, so the
      // sender's worker can keep queueing.  halt() shuts the socket down,
      // which ends the wait.
      pollfd pfd{ch.fd, POLLOUT, 0};
      lock.unlock();
      (void)::poll(&pfd, 1, 100);
      lock.lock();
      if (!running_.load()) return;
    }
  }
  const bool counts_pending = qf.counts_pending;
  const bool disconnect = qf.chaos_disconnect;
  ch.queue.pop_front();
  ++ch.frames_written;
  if (counts_pending) exec_.finish_item();
  if (disconnect) {
    // Injected mid-stream disconnect: the frame itself was written.
    ::close(ch.fd);
    ch.fd = -1;
  }
}

int SocketTransport::dial(OutChannel& ch) {
  while (running_.load()) {
    bump(counters_.dials);
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    bool ok = fd >= 0;
    if (ok) {
      sockaddr_in addr{};
      const std::string& target =
          options_.addrs[static_cast<std::size_t>(ch.to)];
      if (target.empty()) {
        // All-local shape: everyone lives behind our own listener.
        addr.sin_family = AF_INET;
        addr.sin_port = htons(listen_port_);
        inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      } else {
        ok = parse_addr(target, &addr);
      }
      ok = ok && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    }
    if (ok) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // Announce ourselves and the destination before any data frame.
      WireWriter w;
      w.reserve(kHelloBytes);
      w.u32(kHelloPayload);
      w.u8(kFrameHello);
      w.i32(ch.from);
      w.i32(ch.to);
      w.u64(options_.incarnation);
      ok = write_all(fd, w.bytes().data(), w.size());
    }
    if (ok) {
      if (ch.was_connected) bump(counters_.reconnects);
      ch.was_connected = true;
      ch.dial_attempts = 0;
      return fd;
    }
    if (fd >= 0) ::close(fd);

    // Capped exponential backoff with deterministic jitter before the next
    // attempt.  The jitter draw is keyed on (seed, pair, attempt index),
    // not on wall time, so a run's dial schedule is reproducible.
    std::int64_t capped_us = kDialBackoffBase.us;
    for (std::uint64_t i = ch.dial_attempts++;
         i > 0 && capped_us < kDialBackoffMax.us; --i) {
      capped_us = std::min(capped_us * 2, kDialBackoffMax.us);
    }
    Rng rng = counter_rng(seed(), static_cast<std::uint64_t>(ch.from),
                          static_cast<std::uint64_t>(ch.to),
                          ch.jitter_counter++, kDialJitterTag);
    const double backoff_us =
        static_cast<double>(capped_us) *
        (1.0 + kDialJitter * (2.0 * rng.uniform01() - 1.0));
    std::unique_lock lock(ch.mu);
    ch.cv.wait_for(lock,
                   std::chrono::microseconds(
                       std::max<std::int64_t>(
                           static_cast<std::int64_t>(backoff_us), 100)),
                   [this] { return !running_.load(); });
  }
  return -1;
}

void SocketTransport::writer_loop(OutChannel& ch) {
  const auto period = std::chrono::microseconds(options_.heartbeat_period.us);
  // Idle since long enough ago to send a first heartbeat at once: it
  // dials the connection eagerly.
  auto idle_since = steady_now() - period;
  std::uint64_t seen = 0;

  std::unique_lock lock(ch.mu);
  while (running_.load()) {
    if (ch.broken) {
      ::close(ch.fd);
      ch.fd = -1;
      ch.broken = false;
    }
    const auto t = steady_now();
    if (ch.frames_written != seen) {
      seen = ch.frames_written;
      idle_since = t;
    }
    // A frame not yet due (chaos delay) has no byte written, so a
    // heartbeat can still go out ahead of it.
    const bool frame_ready =
        !ch.queue.empty() && ch.queue.front().earliest <= t;
    const bool beat_due = !frame_ready && t - idle_since >= period;
    if (!frame_ready && !beat_due) {
      auto until = idle_since + period;
      if (!ch.queue.empty()) until = std::min(until, ch.queue.front().earliest);
      ch.cv.wait_until(lock, until);
      continue;
    }

    if (ch.fd < 0) {
      lock.unlock();
      const int fd = dial(ch);
      lock.lock();
      if (fd < 0) break;
      ch.fd = fd;
      // A frame cut short on the broken connection starts over.
      if (!ch.queue.empty()) ch.queue.front().written = 0;
      continue;
    }

    if (frame_ready) {
      flush_front(ch, lock);
      continue;
    }

    // Idle: keep the channel warm (and the peer's failure detector fed).
    std::array<std::uint8_t, 9> beat{};
    const std::uint32_t len = 1 + 4;
    std::memcpy(beat.data(), &len, 4);
    beat[4] = kFrameHeartbeat;
    std::memcpy(beat.data() + 5, &ch.from, 4);
    const std::size_t sent = write_now(ch, beat.data(), beat.size());
    if (!ch.broken) {
      bump(counters_.heartbeats_sent);
      bump(counters_.bytes_sent, beat.size());
      if (sent < beat.size()) {
        // Partly written: the rest goes first, ahead of any queued frame.
        QueuedFrame& rest = ch.queue.emplace_front();
        rest.bytes.assign(beat.begin(), beat.end());
        rest.written = sent;
      }
    }
    idle_since = t;
  }
  if (ch.fd >= 0) {
    ::close(ch.fd);
    ch.fd = -1;
  }
}

// -- reader side -------------------------------------------------------------

void SocketTransport::acceptor_loop() {
  // Connections whose HELLO has not fully arrived yet.
  struct Pending {
    int fd;
    std::chrono::steady_clock::time_point deadline;
    std::array<std::uint8_t, kHelloBytes> hello;
    std::size_t got = 0;
  };
  std::vector<Pending> pending;
  std::vector<pollfd> fds;
  const auto patience =
      std::chrono::microseconds(options_.heartbeat_timeout.us);
  const auto drop = [&](std::size_t i, bool count) {
    if (count) reject_frame();
    ::close(pending[i].fd);
    pending[i] = pending.back();
    pending.pop_back();
  };

  while (running_.load()) {
    fds.clear();
    fds.push_back({stop_fd_, POLLIN, 0});
    fds.push_back({own_listen_fd_, POLLIN, 0});
    auto wake = steady_now() + std::chrono::hours(1);
    for (const Pending& p : pending) {
      fds.push_back({p.fd, POLLIN, 0});
      wake = std::min(wake, p.deadline);
    }
    const timespec wait = to_timespec(wake - steady_now());
    if (::ppoll(fds.data(), fds.size(), &wait, nullptr) < 0 &&
        errno != EINTR) {
      continue;
    }
    if (!running_.load()) break;

    // Progress on pending HELLOs (fds[2 + i] is pending[i]); walk
    // backwards so dropping one leaves the unvisited indices in place.
    const auto t = steady_now();
    for (std::size_t i = pending.size(); i-- > 0;) {
      Pending& p = pending[i];
      if (fds[2 + i].revents != 0) {
        const ssize_t n = ::recv(p.fd, p.hello.data() + p.got,
                                 kHelloBytes - p.got, MSG_DONTWAIT);
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
          drop(i, /*count=*/false);  // gone before saying hello
          continue;
        }
        if (n > 0) p.got += static_cast<std::size_t>(n);
        if (p.got >= 5 && (load_u32(p.hello.data()) != kHelloPayload ||
                           p.hello[4] != kFrameHello)) {
          drop(i, /*count=*/true);  // first frame is not a HELLO
          continue;
        }
        if (p.got == kHelloBytes) {
          bind_connection(p.fd, p.hello.data());
          pending[i] = pending.back();
          pending.pop_back();
          continue;
        }
      }
      if (p.deadline <= t) drop(i, /*count=*/true);  // silent
    }

    if ((fds[1].revents & POLLIN) != 0) {
      const int fd = ::accept4(own_listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        pending.push_back({fd, t + patience, {}, 0});
      }
    }
  }
  for (const Pending& p : pending) ::close(p.fd);
}

void SocketTransport::bind_connection(int fd, const std::uint8_t* hello) {
  WireReader r(hello + 5, kHelloBytes - 5);
  const ProcessId from = r.i32();
  const ProcessId to = r.i32();
  const std::uint64_t incarnation = r.u64();
  if (from < 0 || static_cast<std::size_t>(from) >= options_.total_processes ||
      !is_local(to)) {
    reject_frame();
    ::close(fd);
    return;
  }
  {
    std::lock_guard lock(peers_mu_);
    PeerState& p = peers_[static_cast<std::size_t>(from)];
    p.incarnation = std::max(p.incarnation, incarnation);
  }
  note_rx(from);

  auto conn = std::make_unique<InConn>();
  conn->fd = fd;
  conn->from = from;
  conn->to = to;
  conn->slot = local_index(to);
  conn->seq = accepted_++;
  conn->cap = kReadBufferBytes;
  conn->buf = std::make_unique_for_overwrite<std::uint8_t[]>(conn->cap);
  InConn* raw = conn.get();
  {
    std::lock_guard lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }
  exec_.post(raw->slot, [this, raw] { adopt(*raw); });
}

void SocketTransport::adopt(InConn& c) {
  // Frames the sender wrote on its earlier connections to this process
  // come before the new one's: read what has arrived of them first.
  // Bytes of theirs still in flight are read when they arrive, possibly
  // after the new connection's frames (ARQ restores order above).
  std::vector<InConn*> older;
  {
    std::lock_guard lock(conns_mu_);
    for (const auto& o : conns_) {
      if (o->seq < c.seq && o->from == c.from && o->to == c.to) {
        older.push_back(o.get());
      }
    }
  }
  for (InConn* o : older) {
    while (read_some(*o) > 0) {
    }
  }
  exec_.watch(c.slot, c.fd, &c);
}

void SocketTransport::readable(void* tag) {
  (void)read_some(*static_cast<InConn*>(tag));
}

std::ptrdiff_t SocketTransport::read_some(InConn& c) {
  if (c.tail == c.cap) {
    if (c.head > 0) {
      std::memmove(c.buf.get(), c.buf.get() + c.head, c.tail - c.head);
      c.tail -= c.head;
      c.head = 0;
    } else {
      // One frame fills the buffer: grow it by the bytes that did arrive,
      // never by what the length prefix claims.
      const std::size_t cap = std::min<std::size_t>(c.cap * 2,
                                                    4 + kMaxFrameBytes);
      auto buf = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
      std::memcpy(buf.get(), c.buf.get(), c.tail);
      c.buf = std::move(buf);
      c.cap = cap;
    }
  }
  const ssize_t n =
      ::recv(c.fd, c.buf.get() + c.tail, c.cap - c.tail, MSG_DONTWAIT);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return 0;
  }
  if (n <= 0) {  // EOF or a reset: the sender redials if it is alive
    close_connection(c);
    return -1;
  }
  c.tail += static_cast<std::size_t>(n);
  bump(counters_.bytes_received, static_cast<std::uint64_t>(n));
  note_rx(c.from);

  while (c.tail - c.head >= 4) {
    const std::uint32_t len = load_u32(c.buf.get() + c.head);
    if (len > kMaxFrameBytes) {  // corrupt stream: drop the connection
      reject_frame();
      close_connection(c);
      return -1;
    }
    if (c.tail - c.head - 4 < len) break;
    WireReader r(c.buf.get() + c.head + 4, len);
    try {
      handle_frame(c, r);
    } catch (const std::exception&) {
      // Undecodable frame (truncated, unknown tag or kind, wrong
      // destination, out-of-range sender or variable): drop the connection
      // rather than the whole process — the sender will reconnect and the
      // ARQ/RSYNC layers repair the stream.  Handler exceptions never get
      // here: deliver_now() keeps them for await_quiescence() and stop().
      reject_frame();
      close_connection(c);
      return -1;
    }
    c.head += 4 + len;
  }
  if (c.head == c.tail) c.head = c.tail = 0;
  return n;
}

void SocketTransport::handle_frame(InConn& c, WireReader& r) {
  const std::uint8_t type = r.u8();
  switch (type) {
    case kFrameHeartbeat:
      (void)r.i32();
      bump(counters_.heartbeats_received);
      return;
    case kFrameMsg: {
      // Everything downstream indexes by these ids (stats rows, exposure
      // columns, protocol tables), so a well-formed frame naming a process
      // or variable outside the system is rejected here, before its body
      // is even decoded.
      Message m;
      m.from = r.i32();
      m.to = r.i32();
      m.id = r.u64();
      PARDSM_CHECK(m.from >= 0 && static_cast<std::size_t>(m.from) <
                                      options_.total_processes,
                   "sockets: frame from a process outside the system");
      PARDSM_CHECK(m.to == c.to,
                   "sockets: frame for another process than its HELLO's");
      m.meta = wire::decode_meta(r);
      for (VarId x : m.meta.vars_mentioned) {
        PARDSM_CHECK(x >= 0 && static_cast<std::size_t>(x) < var_count_,
                     "sockets: frame mentions an undeclared variable");
      }
      m.body = wire::decode_body(r, arena_);
      exec_.note_activity();
      bump(counters_.frames_received);
      m.send_time = now();  // wall receive time; latency is not modelled
      m.deliver_time = m.send_time;
      // A frame from a remote OS process was never counted by our send();
      // one from a local sender (loopback) was.
      if (!is_local(m.from)) exec_.add_pending();
      exec_.deliver_now(c.slot, std::move(m));
      return;
    }
    case kFrameControl: {
      const ProcessId from = r.i32();
      const ProcessId to = r.i32();
      const std::uint32_t code = r.u32();
      const std::uint64_t arg = r.u64();
      PARDSM_CHECK(from >= 0 && static_cast<std::size_t>(from) <
                                    options_.total_processes,
                   "sockets: control from a process outside the system");
      PARDSM_CHECK(to == c.to,
                   "sockets: control for another process than its HELLO's");
      exec_.note_activity();
      ControlCallback cb;
      {
        std::lock_guard lock(cb_mu_);
        cb = control_cb_;
      }
      if (cb) cb(from, code, arg);
      return;
    }
    default:
      PARDSM_CHECK(false, "sockets: unexpected frame type");
  }
}

void SocketTransport::close_connection(InConn& c) {
  exec_.unwatch(c.slot, c.fd);
  std::lock_guard lock(conns_mu_);
  ::close(c.fd);
  const auto it = std::find_if(conns_.begin(), conns_.end(),
                               [&](const auto& o) { return o.get() == &c; });
  *it = std::move(conns_.back());
  conns_.pop_back();
}

// -- liveness ----------------------------------------------------------------

void SocketTransport::note_rx(ProcessId from) {
  PeerState& p = peers_[static_cast<std::size_t>(from)];
  // Sequentially consistent, against the detector's store-then-recheck.
  p.last_rx.store(steady_now().time_since_epoch().count());
  if (p.up.load()) return;
  std::uint64_t inc = 0;
  {
    std::lock_guard lock(peers_mu_);
    if (p.up.load()) return;
    p.up.store(true);
    inc = p.incarnation;
  }
  bump(counters_.peer_up_events);
  report_peer(from, true, inc);
}

bool SocketTransport::has_unread(ProcessId p) {
  std::lock_guard lock(conns_mu_);
  for (const auto& c : conns_) {
    if (c->from != p) continue;
    pollfd pfd{c->fd, POLLIN, 0};
    if (::poll(&pfd, 1, 0) > 0 && (pfd.revents & POLLIN) != 0) return true;
  }
  return false;
}

void SocketTransport::report_peer(ProcessId p, bool up,
                                  std::uint64_t incarnation) {
  PeerCallback cb;
  {
    std::lock_guard lock(cb_mu_);
    cb = peer_cb_;
  }
  if (cb) cb(p, up, incarnation);
}

void SocketTransport::detector_loop() {
  const auto timeout =
      std::chrono::microseconds(options_.heartbeat_timeout.us);
  const auto tick = std::chrono::microseconds(
      std::max<std::int64_t>(options_.heartbeat_period.us / 2, 1000));
  const timespec wait = to_timespec(tick);
  while (running_.load()) {
    pollfd stop{stop_fd_, POLLIN, 0};
    (void)::ppoll(&stop, 1, &wait, nullptr);
    if (!running_.load()) return;
    const auto t = steady_now();
    for (std::size_t p = 0; p < options_.total_processes; ++p) {
      const auto peer = static_cast<ProcessId>(p);
      PeerState& ps = peers_[p];
      if (is_local(peer) || !ps.up.load()) continue;
      const std::chrono::steady_clock::time_point last{
          std::chrono::steady_clock::duration{ps.last_rx.load()}};
      if (t - last <= timeout) continue;
      // Silent past the timeout — unless its frames are waiting for a
      // worker that is busy in a long handler.
      if (has_unread(peer)) {
        ps.last_rx.store(t.time_since_epoch().count());
        continue;
      }
      std::uint64_t inc = 0;
      {
        std::lock_guard lock(peers_mu_);
        if (!ps.up.load()) continue;
        // Store first, then look at last_rx again: note_rx stores last_rx
        // before it loads `up`, so a frame recorded since the check above
        // either shows here or finds the peer down and brings it back up.
        ps.up.store(false);
        const std::chrono::steady_clock::time_point rx{
            std::chrono::steady_clock::duration{ps.last_rx.load()}};
        if (t - rx <= timeout) {
          ps.up.store(true);
          continue;
        }
        inc = ps.incarnation;
      }
      bump(counters_.peer_down_events);
      report_peer(peer, false, inc);
    }
  }
}

}  // namespace pardsm
