#include "simnet/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "simnet/check.h"
#include "simnet/rng.h"
#include "simnet/wire.h"

namespace pardsm {

namespace {

/// Frame types on the wire: [u32 length][u8 type][payload...].
enum FrameType : std::uint8_t {
  kFrameHello = 1,      ///< i32 from, u64 incarnation
  kFrameMsg = 2,        ///< i32 from, i32 to, u64 id, meta, body
  kFrameHeartbeat = 3,  ///< i32 from
  kFrameControl = 4,    ///< i32 from, i32 to, u32 code, u64 arg
};

/// Chaos / jitter stream tags (counter_rng).
constexpr std::uint64_t kChaosStreamTag = 0xC4A05;
constexpr std::uint64_t kDialJitterTag = 0xD1A1;

/// Upper bound on one frame — a corrupt length prefix must not drive a
/// multi-gigabyte allocation.
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Prefix `payload` with its little-endian u32 length.
std::vector<std::uint8_t> length_prefixed(std::vector<std::uint8_t> payload) {
  PARDSM_CHECK(payload.size() <= kMaxFrameBytes, "socket: frame too large");
  std::vector<std::uint8_t> out;
  out.reserve(4 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<std::uint8_t>(len & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xFF));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

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

/// Read exactly `size` bytes; false on EOF/error.
bool read_all(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SocketTransport::SocketTransport(SocketOptions options)
    : options_(std::move(options)) {
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
  rates_ = std::vector<PairRates>(n * n);
  severed_ = std::make_unique<std::atomic<bool>[]>(n * n);
  down_ = std::make_unique<std::atomic<bool>[]>(n);
  for (std::size_t i = 0; i < n * n; ++i) severed_[i].store(false);
  for (std::size_t i = 0; i < n; ++i) down_[i].store(false);
  peers_.resize(n);
  stats_.resize(n);
}

SocketTransport::~SocketTransport() { halt(); }

bool SocketTransport::is_local(ProcessId p) const {
  return local_index_.count(p) > 0;
}

std::size_t SocketTransport::local_index(ProcessId p) const {
  auto it = local_index_.find(p);
  PARDSM_CHECK(it != local_index_.end(), "sockets: not a local process");
  return it->second;
}

ProcessId SocketTransport::add_endpoint(Endpoint* ep) {
  PARDSM_CHECK(ep != nullptr, "add_endpoint: null endpoint");
  PARDSM_CHECK(!running_.load(), "add_endpoint: already started");
  PARDSM_CHECK(exec_.size() < options_.local_ids.size(),
               "add_endpoint: more endpoints than local_ids");
  const ProcessId assigned = options_.local_ids[exec_.size()];
  local_index_[assigned] = exec_.add(ep);
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

  // Listener: inherited fd (bootstrap respawn path) or bind our own.
  if (options_.listen_fd >= 0) {
    own_listen_fd_ = options_.listen_fd;
  } else {
    own_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    PARDSM_CHECK(own_listen_fd_ >= 0, "socket() failed");
    const int one = 1;
    ::setsockopt(own_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    if (options_.listen_addr.empty()) {
      addr.sin_family = AF_INET;
      addr.sin_port = 0;
      inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    } else {
      PARDSM_CHECK(parse_addr(options_.listen_addr, &addr),
                   "sockets: bad listen_addr");
    }
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

  {
    const auto t = steady_now();
    std::lock_guard lock(peers_mu_);
    for (auto& p : peers_) {
      p.last_rx = t;
      p.up = true;
    }
  }

  // One outbound channel per (local sender, any receiver).
  for (ProcessId from : local_ids_) {
    const auto n = static_cast<ProcessId>(options_.total_processes);
    for (ProcessId to = 0; to < n; ++to) {
      if (to == from) continue;
      auto ch = std::make_unique<OutChannel>();
      ch->from = from;
      ch->to = to;
      channel_by_pair_[pair_index(from, to)] = ch.get();
      channels_.push_back(std::move(ch));
    }
  }

  exec_.start();
  for (auto& ch : channels_) {
    OutChannel* raw = ch.get();
    raw->writer = std::thread([this, raw] { writer_loop(*raw); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
  detector_ = std::thread([this] { detector_loop(); });
}

void SocketTransport::stop() {
  halt();
  rethrow_failure();
}

void SocketTransport::halt() {
  if (!running_.exchange(false)) return;

  // Break the acceptor.
  if (own_listen_fd_ >= 0) {
    ::shutdown(own_listen_fd_, SHUT_RDWR);
    ::close(own_listen_fd_);
  }
  // Break blocked readers.
  {
    std::lock_guard lock(readers_mu_);
    for (int fd : reader_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Wake writers; stop the mailbox workers.
  for (auto& ch : channels_) {
    std::lock_guard lock(ch->mu);
    ch->cv.notify_all();
  }
  exec_.halt();

  if (acceptor_.joinable()) acceptor_.join();
  if (detector_.joinable()) detector_.join();
  for (auto& ch : channels_) {
    if (ch->writer.joinable()) ch->writer.join();
  }
  {
    std::lock_guard lock(readers_mu_);
    for (auto& t : readers_) {
      if (t.joinable()) t.join();
    }
    for (int fd : reader_fds_) ::close(fd);
    readers_.clear();
    reader_fds_.clear();
  }
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

void SocketTransport::post(ProcessId who, std::function<void()> task) {
  exec_.post(local_index(who), std::move(task));
}

void SocketTransport::send(ProcessId from, ProcessId to, BodyRef body,
                           MessageMeta meta) {
  PARDSM_CHECK(to >= 0 &&
                   static_cast<std::size_t>(to) < options_.total_processes,
               "send: bad destination");
  PARDSM_CHECK(is_local(from), "send: sender not hosted here");
  exec_.note_activity();

  Message m;
  m.from = from;
  m.to = to;
  m.body = std::move(body);
  m.meta = std::move(meta);
  m.id = next_msg_id_.fetch_add(1);
  m.send_time = now();
  stats_.on_send(m);

  // Scenario faults: severed pair / down process drop at the sender.
  if (severed_[pair_index(from, to)].load(std::memory_order_relaxed)) {
    std::lock_guard lock(counters_mu_);
    ++drops_.severed;
    return;
  }
  if (down_[static_cast<std::size_t>(from)].load(std::memory_order_relaxed) ||
      down_[static_cast<std::size_t>(to)].load(std::memory_order_relaxed)) {
    std::lock_guard lock(counters_mu_);
    ++drops_.down;
    return;
  }

  if (to == from) {
    // Self-delivery: straight to our own mailbox (no socket, no chaos).
    exec_.add_pending();
    m.deliver_time = m.send_time;
    exec_.enqueue(local_index(to), std::move(m));
    return;
  }

  OutChannel* ch = channel_by_pair_.at(pair_index(from, to));

  // Chaos + scenario-rate decisions, drawn from a counter-based stream so
  // they depend on (seed, pair, frame index) only.  All sends on a given
  // pair originate on the sender's mailbox thread, so the per-channel
  // counter needs no lock.
  int copies = 1;
  Duration delay{};
  bool disconnect = false;
  const PairRates& rates = rates_[pair_index(from, to)];
  const double loss_rate = std::min(
      1.0, options_.chaos.drop_probability +
               rates.loss.load(std::memory_order_relaxed));
  const double dup_rate = std::min(
      1.0, options_.chaos.duplicate_probability +
               rates.dup.load(std::memory_order_relaxed));
  if (options_.chaos.any() || loss_rate > 0.0 || dup_rate > 0.0) {
    Rng rng = counter_rng(options_.chaos.seed,
                          static_cast<std::uint64_t>(from),
                          static_cast<std::uint64_t>(to), ch->chaos_counter++,
                          kChaosStreamTag);
    if (rng.chance(loss_rate)) copies = 0;
    if (copies == 1 && rng.chance(dup_rate)) copies = 2;
    if (options_.chaos.delay_max.us > 0) {
      const std::int64_t span =
          options_.chaos.delay_max.us - options_.chaos.delay_min.us;
      delay = Duration{options_.chaos.delay_min.us +
                       (span > 0 ? static_cast<std::int64_t>(
                                       rng.below(
                                           static_cast<std::uint64_t>(span) +
                                           1))
                                 : 0)};
    }
    disconnect = rng.chance(options_.chaos.disconnect_probability);
  }
  if (copies == 0) {
    std::lock_guard lock(counters_mu_);
    ++drops_.loss;
    ++counters_.chaos_drops;
    return;
  }

  // Serialize once: [type][from][to][id][meta][body].
  WireWriter w;
  w.reserve(64);
  w.u8(kFrameMsg);
  w.i32(from);
  w.i32(to);
  w.u64(m.id);
  wire::encode_meta(w, m.meta);
  wire::encode_body(w, *m.body);
  std::vector<std::uint8_t> frame = length_prefixed(w.take());

  const bool local_dest = is_local(to);
  const auto earliest = steady_now() + std::chrono::microseconds(delay.us);
  {
    std::lock_guard lock(counters_mu_);
    if (copies == 2) ++counters_.chaos_duplicates;
    if (delay.us > 0) ++counters_.chaos_delays;
    if (disconnect) ++counters_.chaos_disconnects;
  }
  for (int c = 0; c < copies; ++c) {
    QueuedFrame qf;
    qf.bytes = (c + 1 < copies) ? frame : std::move(frame);
    qf.earliest = earliest;
    // Local destinations are counted until the delivery handler returns;
    // remote ones until the bytes are on the wire.
    qf.counts_pending = !local_dest;
    qf.chaos_disconnect = disconnect && c + 1 == copies;
    exec_.add_pending();
    enqueue_frame(*ch, std::move(qf));
  }
}

void SocketTransport::enqueue_frame(OutChannel& ch, QueuedFrame frame) {
  {
    std::lock_guard lock(ch.mu);
    ch.queue.push_back(std::move(frame));
  }
  ch.cv.notify_one();
}

void SocketTransport::set_timer(ProcessId who, Duration delay, TimerTag tag) {
  exec_.set_timer(local_index(who), delay, tag);
}

std::size_t SocketTransport::process_count() const {
  return options_.total_processes;
}

void SocketTransport::set_severed(ProcessId a, ProcessId b, bool severed) {
  severed_[pair_index(a, b)].store(severed, std::memory_order_relaxed);
}

void SocketTransport::set_down(ProcessId p, bool down) {
  down_[static_cast<std::size_t>(p)].store(down, std::memory_order_relaxed);
}

void SocketTransport::set_loss_rate(ProcessId a, ProcessId b, double rate) {
  rates_[pair_index(a, b)].loss.store(rate, std::memory_order_relaxed);
}

void SocketTransport::set_duplicate_rate(ProcessId a, ProcessId b,
                                         double rate) {
  rates_[pair_index(a, b)].dup.store(rate, std::memory_order_relaxed);
}

void SocketTransport::set_peer_callback(PeerCallback cb) {
  std::lock_guard lock(cb_mu_);
  peer_cb_ = std::move(cb);
}

bool SocketTransport::peer_up(ProcessId p) const {
  std::lock_guard lock(peers_mu_);
  return peers_[static_cast<std::size_t>(p)].up;
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
  w.u8(kFrameControl);
  w.i32(from);
  w.i32(to);
  w.u32(code);
  w.u64(arg);
  QueuedFrame qf;
  qf.bytes = length_prefixed(w.take());
  qf.earliest = steady_now();
  qf.counts_pending = false;
  OutChannel* ch = channel_by_pair_.at(pair_index(from, to));
  enqueue_frame(*ch, std::move(qf));
}

std::uint16_t SocketTransport::port() const { return listen_port_; }

DropCounters SocketTransport::drops() const {
  std::lock_guard lock(counters_mu_);
  return drops_;
}

SocketCounters SocketTransport::counters() const {
  std::lock_guard lock(counters_mu_);
  return counters_;
}

// -- writer side -------------------------------------------------------------

bool SocketTransport::write_all(int fd, const std::uint8_t* data,
                                std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool SocketTransport::ensure_connected(OutChannel& ch) {
  while (running_.load()) {
    if (ch.fd >= 0) return true;
    {
      std::lock_guard lock(counters_mu_);
      ++counters_.dials;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
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
      // Announce ourselves before any data frame.
      WireWriter w;
      w.reserve(16);
      w.u8(kFrameHello);
      w.i32(ch.from);
      w.u64(options_.incarnation);
      const auto hello = length_prefixed(w.take());
      ok = write_all(fd, hello.data(), hello.size());
    }
    if (ok) {
      if (ch.was_connected) {
        std::lock_guard lock(counters_mu_);
        ++counters_.reconnects;
      }
      ch.was_connected = true;
      ch.dial_attempts = 0;
      ch.fd = fd;
      return true;
    }
    if (fd >= 0) ::close(fd);

    // Capped exponential backoff with deterministic jitter before the next
    // attempt.  The jitter draw is keyed on (seed, pair, attempt index),
    // not on wall time, so a run's dial schedule is reproducible.
    const std::uint64_t attempt = ch.dial_attempts++;
    double backoff_us =
        static_cast<double>(options_.dial_backoff_base.us);
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(attempt, 32); ++i) {
      backoff_us *= std::max(options_.dial_backoff_factor, 1.0);
      if (backoff_us >=
          static_cast<double>(options_.dial_backoff_max.us)) {
        break;
      }
    }
    backoff_us = std::min(backoff_us,
                          static_cast<double>(options_.dial_backoff_max.us));
    if (options_.dial_jitter > 0.0) {
      Rng rng = counter_rng(options_.backoff_seed,
                            static_cast<std::uint64_t>(ch.from),
                            static_cast<std::uint64_t>(ch.to),
                            ch.jitter_counter++, kDialJitterTag);
      backoff_us *= 1.0 + options_.dial_jitter * (2.0 * rng.uniform01() - 1.0);
    }
    std::unique_lock lock(ch.mu);
    ch.cv.wait_for(lock,
                   std::chrono::microseconds(
                       std::max<std::int64_t>(
                           static_cast<std::int64_t>(backoff_us), 100)),
                   [this] { return !running_.load(); });
  }
  return false;
}

void SocketTransport::writer_loop(OutChannel& ch) {
  const auto heartbeat =
      std::chrono::microseconds(options_.heartbeat_period.us);
  // Force an immediate first heartbeat: it dials the connection eagerly.
  auto last_write = steady_now() - heartbeat;

  while (running_.load()) {
    bool frame_ready = false;
    {
      std::unique_lock lock(ch.mu);
      const auto wake = [&] {
        if (!running_.load()) return true;
        if (!ch.queue.empty() && ch.queue.front().earliest <= steady_now()) {
          return true;
        }
        return steady_now() - last_write >= heartbeat;
      };
      while (!wake()) {
        auto deadline = last_write + heartbeat;
        if (!ch.queue.empty() && ch.queue.front().earliest < deadline) {
          deadline = ch.queue.front().earliest;
        }
        ch.cv.wait_until(lock, deadline);
      }
      if (!running_.load()) break;
      frame_ready =
          !ch.queue.empty() && ch.queue.front().earliest <= steady_now();
    }

    if (!ensure_connected(ch)) break;

    if (frame_ready) {
      QueuedFrame qf;
      {
        std::lock_guard lock(ch.mu);
        if (ch.queue.empty()) continue;
        qf = std::move(ch.queue.front());
        ch.queue.pop_front();
      }
      // Count the frame before writing it: once the bytes hit the wire
      // the receiver side may observe (and even quiesce on) the delivery
      // before this thread runs again, and counters must already agree.
      {
        std::lock_guard lock(counters_mu_);
        ++counters_.frames_sent;
        counters_.bytes_sent += qf.bytes.size();
      }
      if (!write_all(ch.fd, qf.bytes.data(), qf.bytes.size())) {
        // Broken connection: retain the frame at the front, un-count it
        // (it will be re-counted when the rewrite succeeds), reconnect.
        {
          std::lock_guard lock(counters_mu_);
          --counters_.frames_sent;
          counters_.bytes_sent -= qf.bytes.size();
        }
        ::close(ch.fd);
        ch.fd = -1;
        std::lock_guard lock(ch.mu);
        ch.queue.push_front(std::move(qf));
        continue;
      }
      last_write = steady_now();
      if (qf.counts_pending) exec_.finish_item();
      if (qf.chaos_disconnect) {
        // Injected mid-stream disconnect: the frame itself was written.
        ::close(ch.fd);
        ch.fd = -1;
      }
      continue;
    }

    // Idle: keep the channel warm (and the peer's failure detector fed).
    WireWriter w;
    w.reserve(8);
    w.u8(kFrameHeartbeat);
    w.i32(ch.from);
    const auto beat = length_prefixed(w.take());
    if (write_all(ch.fd, beat.data(), beat.size())) {
      last_write = steady_now();
      std::lock_guard lock(counters_mu_);
      ++counters_.heartbeats_sent;
      counters_.bytes_sent += beat.size();
    } else {
      ::close(ch.fd);
      ch.fd = -1;
    }
  }
  if (ch.fd >= 0) {
    ::close(ch.fd);
    ch.fd = -1;
  }
}

// -- reader side -------------------------------------------------------------

void SocketTransport::acceptor_loop() {
  while (running_.load()) {
    const int fd = ::accept(own_listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) return;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard lock(readers_mu_);
    if (!running_.load()) {
      ::close(fd);
      return;
    }
    reader_fds_.push_back(fd);
    readers_.emplace_back([this, fd] { reader_loop(fd); });
  }
}

void SocketTransport::reader_loop(int fd) {
  std::vector<std::uint8_t> payload;
  while (running_.load()) {
    std::uint8_t len_bytes[4];
    if (!read_all(fd, len_bytes, 4)) return;
    const std::uint32_t len =
        static_cast<std::uint32_t>(len_bytes[0]) |
        (static_cast<std::uint32_t>(len_bytes[1]) << 8) |
        (static_cast<std::uint32_t>(len_bytes[2]) << 16) |
        (static_cast<std::uint32_t>(len_bytes[3]) << 24);
    if (len > kMaxFrameBytes) {  // corrupt stream: drop connection
      reject_frame();
      return;
    }
    payload.resize(len);
    if (!read_all(fd, payload.data(), len)) return;
    {
      std::lock_guard lock(counters_mu_);
      counters_.bytes_received += 4 + len;
    }
    try {
      handle_frame(payload);
    } catch (const std::exception&) {
      // Undecodable frame (truncated, unknown tag, foreign destination,
      // out-of-range sender or variable): drop the connection rather than
      // the whole process — the sender will reconnect and the ARQ/RSYNC
      // layers repair the stream.
      reject_frame();
      return;
    }
  }
}

void SocketTransport::reject_frame() {
  std::lock_guard lock(counters_mu_);
  ++counters_.frames_rejected;
}

void SocketTransport::handle_frame(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  const std::uint8_t type = r.u8();
  switch (type) {
    case kFrameHello: {
      const ProcessId from = r.i32();
      const std::uint64_t inc = r.u64();
      note_rx(from, inc, /*is_hello=*/true);
      return;
    }
    case kFrameHeartbeat: {
      const ProcessId from = r.i32();
      {
        std::lock_guard lock(counters_mu_);
        ++counters_.heartbeats_received;
      }
      note_rx(from, 0, /*is_hello=*/false);
      return;
    }
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
      PARDSM_CHECK(is_local(m.to), "sockets: frame for a foreign process");
      m.meta = wire::decode_meta(r);
      for (VarId x : m.meta.vars_mentioned) {
        PARDSM_CHECK(x >= 0 && static_cast<std::size_t>(x) < var_count_,
                     "sockets: frame mentions an undeclared variable");
      }
      m.body = wire::decode_body(r, arena_);
      note_rx(m.from, 0, /*is_hello=*/false);
      exec_.note_activity();
      {
        std::lock_guard lock(counters_mu_);
        ++counters_.frames_received;
      }
      m.send_time = now();  // wall receive time; latency is not modelled
      m.deliver_time = m.send_time;
      // A frame from a remote OS process was never counted by our send();
      // one from a local sender (loopback) was.
      if (!is_local(m.from)) exec_.add_pending();
      exec_.enqueue(local_index(m.to), std::move(m));
      return;
    }
    case kFrameControl: {
      const ProcessId from = r.i32();
      const ProcessId to = r.i32();
      const std::uint32_t code = r.u32();
      const std::uint64_t arg = r.u64();
      PARDSM_CHECK(is_local(to), "sockets: control for a foreign process");
      note_rx(from, 0, /*is_hello=*/false);
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
      PARDSM_CHECK(false, "sockets: unknown frame type");
  }
}

void SocketTransport::note_rx(ProcessId from, std::uint64_t incarnation,
                              bool is_hello) {
  if (from < 0 ||
      static_cast<std::size_t>(from) >= options_.total_processes) {
    return;
  }
  bool came_up = false;
  std::uint64_t inc = 0;
  {
    std::lock_guard lock(peers_mu_);
    PeerState& p = peers_[static_cast<std::size_t>(from)];
    p.last_rx = steady_now();
    if (is_hello && incarnation > p.incarnation) p.incarnation = incarnation;
    if (!p.up) {
      p.up = true;
      came_up = true;
    }
    inc = p.incarnation;
  }
  if (came_up) {
    {
      std::lock_guard lock(counters_mu_);
      ++counters_.peer_up_events;
    }
    PeerCallback cb;
    {
      std::lock_guard lock(cb_mu_);
      cb = peer_cb_;
    }
    if (cb) cb(from, true, inc);
  }
}

void SocketTransport::detector_loop() {
  const auto timeout =
      std::chrono::microseconds(options_.heartbeat_timeout.us);
  const auto tick = std::chrono::microseconds(
      std::max<std::int64_t>(options_.heartbeat_period.us / 2, 1000));
  while (running_.load()) {
    std::this_thread::sleep_for(tick);
    if (!running_.load()) return;
    const auto t = steady_now();
    for (std::size_t p = 0; p < options_.total_processes; ++p) {
      if (is_local(static_cast<ProcessId>(p))) continue;
      bool went_down = false;
      std::uint64_t inc = 0;
      {
        std::lock_guard lock(peers_mu_);
        PeerState& ps = peers_[p];
        if (ps.up && t - ps.last_rx > timeout) {
          ps.up = false;
          went_down = true;
          inc = ps.incarnation;
        }
      }
      if (went_down) {
        {
          std::lock_guard lock(counters_mu_);
          ++counters_.peer_down_events;
        }
        PeerCallback cb;
        {
          std::lock_guard lock(cb_mu_);
          cb = peer_cb_;
        }
        if (cb) cb(static_cast<ProcessId>(p), false, inc);
      }
    }
  }
}

// -- mailbox delivery --------------------------------------------------------

void SocketTransport::deliver(Endpoint& ep, const Message& m) {
  if (down_[static_cast<std::size_t>(m.to)].load(std::memory_order_relaxed)) {
    // Fail-pause window (scenario set_down): suppress the delivery *below*
    // the decorator shims, like the simulator's network does.  The ARQ
    // layer never sees (or acks) the message, so it repairs it after
    // recovery — an op in flight at crash completes late instead of losing
    // its response above the reliable layer.
    std::lock_guard lock(counters_mu_);
    ++drops_.down;
    return;
  }
  stats_.on_deliver(m);
  ep.on_message(m);
}

}  // namespace pardsm
