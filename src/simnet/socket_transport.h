// Real-sockets transport root: length-prefixed TCP frames between actual
// OS processes (or over loopback within one).
//
// SocketTransport is the fourth HostTransport root, next to Simulator,
// ThreadRuntime and ParallelSimulator.  It shares WallClockRoot with
// ThreadRuntime (simnet/thread_runtime.h): the same MailboxExecutor,
// clock, ledger and fault state.  This root owns the channels, the
// acceptor, the failure detector and chaos.  Every message is serialized
// (simnet/wire.h), framed and written onto a real TCP connection — even
// when sender and receiver live in the same OS process — and is
// delivered to its endpoint on that endpoint's worker.  Two deployment
// shapes share the implementation:
//
//   * all-local (EngineRuntime::kSockets): every endpoint is registered in
//     one process, ids 0..n-1 in order, one auto-bound loopback listener.
//     Decorators (ReliableTransport, BatchingTransport) stack above it
//     unchanged, and await_quiescence() works like ThreadRuntime's.
//   * multi-process (pardsm_node): each OS process hosts one endpoint
//     (options.local_ids = {i}); peers are dialed at options.addrs[j].
//     Global quiescence is unknowable, so runs settle with drain().
//
// Data path: a message crosses one thread handoff.  send() encodes the
// MSG frame once into the channel's reusable buffer and, when the channel
// is connected and nothing is queued on it, writes it from the sender's
// own worker with a non-blocking send.  The receiver's worker parks in
// epoll on its inbound connections, reads each readable one with one
// buffered recv and delivers every complete frame in it on the spot.
//
// Threads besides the workers:
//
//   * one writer per directed pair (sender-owned outbound channel).  It
//     dials, redials with capped exponential backoff (5 ms doubling to
//     300 ms) plus deterministic jitter of up to 25% (counter_rng keyed on
//     (seed, from, to, attempt) — independent of thread interleaving), and
//     sends HEARTBEAT frames when the channel is idle.  It also writes
//     whatever a worker could not: the unwritten rest of a frame the
//     socket buffer did not take, frames queued behind such a backlog or
//     behind a broken connection (retained across the reconnect and
//     flushed in order after the HELLO), and chaos-delayed or duplicated
//     frames.  A worker never waits for buffer space.
//   * one acceptor.  It reads each new connection's HELLO — [from, to,
//     incarnation], within heartbeat_timeout, without blocking other
//     accepts — and hands the connection to the worker of `to`.  A
//     bumped incarnation identifies a restarted (kill -9'd and respawned)
//     peer.
//   * one failure detector.  It declares a peer down when nothing
//     (heartbeat or data) has been read from it within heartbeat_timeout
//     and nothing unread waits on its connections either (a worker busy
//     in a long handler is not a dead peer), and up again on the next
//     frame, reporting transitions through set_peer_callback — the hook
//     the engine routes into McsProcess crash()/recover() + RSYNC.
//
// Faults: send() asks the run's ChannelFaults (WallClockRoot) for each
// frame's fate, as every root does: loss and duplication rates come from
// ChannelOptions and the scenario only.  ChaosOptions adds the
// socket-layer faults no simulator has: head-of-line delays and
// deliberate mid-stream disconnects.  Every draw comes from the frame's
// counter-based stream (WallClockRoot::draws, seeded by the run's seed),
// the chaos draws after the fault draws, so a chaos run is reproducible.
// The property net (P1-P6) runs unmodified above.
//
// Wire format: [u32 length][u8 frame type][payload ...], little-endian.
// See docs/DEPLOYMENT.md for the full frame catalogue and tuning guide.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "simnet/network.h"
#include "simnet/stats.h"
#include "simnet/thread_runtime.h"
#include "simnet/transport.h"
#include "simnet/wire.h"

namespace pardsm {

/// Socket-layer fault injection with no simulator analogue (frame loss
/// and duplication are ChannelOptions rates).  All decisions are
/// sender-side, deterministic given the run's seed and the per-pair frame
/// counters.
struct ChaosOptions {
  /// Probability the connection is closed right after writing a frame
  /// (exercises reconnection; the frame itself arrives).
  double disconnect_probability = 0.0;
  /// Extra head-of-line delay per frame, uniform in [delay_min, delay_max]
  /// (later frames on the pair queue behind it — FIFO is preserved).
  Duration delay_min{};
  Duration delay_max{};

  [[nodiscard]] bool any() const {
    return disconnect_probability > 0.0 || delay_max.us > 0;
  }
};

/// Options for the sockets root.
struct SocketOptions {
  /// Global process count n (ids 0..n-1).
  std::size_t total_processes = 0;
  /// Which ids live in this OS process, in add_endpoint() order.  Empty
  /// means all of them (the all-local shape).
  std::vector<ProcessId> local_ids;
  /// Peer addresses ("host:port"), indexed by ProcessId.  An empty entry
  /// (or an empty vector) means "this transport's own listener" — the
  /// all-local loopback shape.  set_peer_addr() edits entries pre-start.
  std::vector<std::string> addrs;
  /// Pre-bound listening socket inherited from a bootstrap parent (so a
  /// respawned node reuses the same binding and peers' reconnect attempts
  /// queue in the kernel backlog across the kill).  -1 = bind our own on
  /// 127.0.0.1 with a kernel-chosen port (query with port()).
  int listen_fd = -1;
  /// This process's incarnation (bumped by the bootstrap on respawn).
  std::uint64_t incarnation = 1;

  /// Heartbeat emission period per outbound channel (wall time).
  Duration heartbeat_period = millis(25);
  /// Silence threshold after which the failure detector declares a peer
  /// down.  Must comfortably exceed heartbeat_period.
  Duration heartbeat_timeout = millis(150);

  ChaosOptions chaos;
};

/// Socket-layer counters (what actually happened on the wire — distinct
/// from NetworkStats, which accounts the modelled message bytes).
struct SocketCounters {
  std::uint64_t frames_sent = 0;       ///< data frames committed to a
                                       ///< channel (written, or queued
                                       ///< at stop)
  std::uint64_t frames_received = 0;   ///< data frames decoded
  std::uint64_t frames_rejected = 0;   ///< oversized, undecodable or
                                       ///< out-of-range frames, and
                                       ///< connections without a valid
                                       ///< HELLO in heartbeat_timeout
                                       ///< (each drops its connection)
  std::uint64_t bytes_sent = 0;        ///< bytes of data and heartbeat
                                       ///< frames
  std::uint64_t bytes_received = 0;    ///< bytes read after the HELLOs
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t dials = 0;             ///< connection attempts
  std::uint64_t reconnects = 0;        ///< re-dials after an established
                                       ///< connection broke
  /// Frames sent twice: channel and scenario duplication.
  std::uint64_t duplicates = 0;
  std::uint64_t chaos_disconnects = 0;
  std::uint64_t chaos_delays = 0;
  std::uint64_t peer_down_events = 0;  ///< failure-detector transitions
  std::uint64_t peer_up_events = 0;
};

/// TCP transport root.  See the file comment for the architecture.
class SocketTransport final : public WallClockRoot {
 public:
  /// `channel` and `seed` as ThreadRuntime's: the run's default rates and
  /// the seed of every draw (faults, chaos, dial jitter).
  explicit SocketTransport(SocketOptions options, ChannelOptions channel = {},
                           std::uint64_t seed = 1);
  ~SocketTransport() override;

  /// Register the endpoint for the next id in options.local_ids (or the
  /// next sequential id when local_ids is empty).  Pre-start only.
  ProcessId add_endpoint(Endpoint* ep) override;

  /// Set/override a peer's address (pre-start).
  void set_peer_addr(ProcessId p, std::string host_port);

  /// Bind the listener, spawn mailbox/writer/acceptor/detector threads.
  void start() override;
  /// Join every thread and close all sockets.
  void halt() override;

  /// Multi-process settle (await_quiescence works all-local only): block
  /// until no local activity (message, task or non-heartbeat frame) has
  /// happened for `idle`, or `timeout` elapses.  Returns true if the idle
  /// window was observed.
  bool drain(std::chrono::milliseconds idle, std::chrono::milliseconds timeout);

  // -- Transport ------------------------------------------------------------
  /// Runs on `from`'s worker only (checked): post() it there.
  void send(ProcessId from, ProcessId to, BodyRef body,
            MessageMeta meta) override;
  [[nodiscard]] std::size_t process_count() const override {
    return options_.total_processes;
  }

  // -- peer liveness ---------------------------------------------------------
  /// Callback invoked when the failure detector changes its mind about a
  /// remote peer (down on the detector thread, up on the thread that read
  /// the frame): up=false on silence past
  /// heartbeat_timeout, up=true on the next frame.  `incarnation` is the
  /// peer's latest announced incarnation (0 before its first HELLO).
  using PeerCallback =
      std::function<void(ProcessId peer, bool up, std::uint64_t incarnation)>;
  void set_peer_callback(PeerCallback cb);
  /// Current detector verdict for `p` (true until proven silent).
  [[nodiscard]] bool peer_up(ProcessId p) const;
  /// Latest incarnation announced by `p` (0 = never heard from).
  [[nodiscard]] std::uint64_t peer_incarnation(ProcessId p) const;

  // -- bootstrap control plane ----------------------------------------------
  /// Out-of-band control frames (DONE/FINISH barrier of pardsm_node);
  /// never delivered to endpoints, never counted in NetworkStats.
  using ControlCallback = std::function<void(
      ProcessId from, std::uint32_t code, std::uint64_t arg)>;
  void set_control_callback(ControlCallback cb);
  void send_control(ProcessId to, std::uint32_t code, std::uint64_t arg);

  // -- introspection ---------------------------------------------------------
  /// The port the listener is bound to (valid after start()).
  [[nodiscard]] std::uint16_t port() const;
  /// Declare the run's variable count m with stats().set_var_hint(m)
  /// before start(): a MSG frame from a process outside [0, n) or
  /// mentioning a variable outside [0, m) is rejected on its worker.
  [[nodiscard]] SocketCounters counters() const;

 private:
  /// A frame waiting for its channel's writer thread.
  struct QueuedFrame {
    std::vector<std::uint8_t> bytes;
    std::size_t written = 0;  ///< prefix already on the current connection
    std::chrono::steady_clock::time_point earliest;  ///< chaos delay
    bool counts_pending = false;  ///< finish_item() after the last byte
    bool chaos_disconnect = false;
  };

  /// Sender-owned state of one directed pair (from is local).  The socket
  /// is written under `mu`, by the sender's worker (nothing queued) or by
  /// the writer thread (the queue), always without blocking; only the
  /// writer thread opens and closes it.
  struct OutChannel {
    ProcessId from = kNoProcess;
    ProcessId to = kNoProcess;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<QueuedFrame> queue;     ///< guarded by mu
    int fd = -1;                       ///< guarded by mu
    bool broken = false;               ///< guarded by mu: redial
    std::uint64_t frames_written = 0;  ///< guarded by mu: idleness
    std::thread writer;
    WireWriter frame;                  ///< sender's worker: MSG encoding
    std::uint64_t dial_attempts = 0;   ///< writer: consecutive failures
    std::uint64_t jitter_counter = 0;  ///< writer
    bool was_connected = false;        ///< writer
  };

  /// An accepted connection, bound by its HELLO to (from -> to) and read
  /// only by the worker of `to` (the acceptor creates it).
  struct InConn {
    int fd = -1;
    ProcessId from = kNoProcess;
    ProcessId to = kNoProcess;
    std::size_t slot = 0;
    std::uint64_t seq = 0;  ///< acceptance order
    /// Read buffer: [head, tail) is received and not yet handled.  It
    /// starts small and doubles only when arrived bytes fill it.
    std::unique_ptr<std::uint8_t[]> buf;
    std::size_t cap = 0;
    std::size_t head = 0;
    std::size_t tail = 0;
  };

  /// Receiver-side view of one remote process.
  struct PeerState {
    std::atomic<std::int64_t> last_rx{0};  ///< steady_clock ticks
    std::atomic<bool> up{true};            ///< set under peers_mu_
    std::uint64_t incarnation = 0;         ///< guarded by peers_mu_
  };

  [[nodiscard]] bool is_local(ProcessId p) const {
    return p >= 0 && static_cast<std::size_t>(p) < slot_of_.size() &&
           slot_of_[static_cast<std::size_t>(p)] >= 0;
  }
  [[nodiscard]] std::size_t local_index(ProcessId p) const;
  [[nodiscard]] OutChannel& channel(ProcessId from, ProcessId to) {
    return *out_[local_index(from) * options_.total_processes +
                 static_cast<std::size_t>(to)];
  }

  [[nodiscard]] std::size_t slot(ProcessId p) const override {
    return local_index(p);
  }
  void readable(void* tag) override;

  // -- writing
  void write_or_queue(OutChannel& ch, const std::uint8_t* data,
                      std::size_t size, bool counts_pending);
  std::size_t write_now(OutChannel& ch, const std::uint8_t* data,
                        std::size_t size);
  void writer_loop(OutChannel& ch);
  void flush_front(OutChannel& ch, std::unique_lock<std::mutex>& lock);
  int dial(OutChannel& ch);

  // -- reading
  void acceptor_loop();
  void bind_connection(int fd, const std::uint8_t* hello);
  void adopt(InConn& c);
  /// One recv on `c`, then every complete frame in its buffer.  Returns
  /// the bytes read; 0 if none were waiting; -1 once `c` is closed (and
  /// destroyed).
  std::ptrdiff_t read_some(InConn& c);
  void handle_frame(InConn& c, WireReader& r);
  void close_connection(InConn& c);
  void reject_frame() { bump(counters_.frames_rejected); }

  // -- liveness
  void detector_loop();
  void note_rx(ProcessId from);
  /// Whether an inbound connection from `p` has bytes nobody read yet.
  [[nodiscard]] bool has_unread(ProcessId p);
  void report_peer(ProcessId p, bool up, std::uint64_t incarnation);

  [[nodiscard]] std::chrono::steady_clock::time_point steady_now() const {
    return std::chrono::steady_clock::now();
  }

  SocketOptions options_;
  std::vector<ProcessId> local_ids_;  ///< registration order = exec_ slot
  std::vector<int> slot_of_;          ///< by ProcessId; -1 = not local
  std::vector<std::unique_ptr<OutChannel>> channels_;
  std::vector<OutChannel*> out_;  ///< [slot * n + to]; null when to == from

  /// Plain fields bumped atomically, so the hot paths take no lock and
  /// counters() reads a consistent-enough snapshot.
  mutable SocketCounters counters_;

  mutable std::mutex peers_mu_;
  std::unique_ptr<PeerState[]> peers_;  ///< n
  PeerCallback peer_cb_;
  ControlCallback control_cb_;
  std::mutex cb_mu_;

  int own_listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  int stop_fd_ = -1;  ///< eventfd: wakes the acceptor and the detector
  std::thread acceptor_;
  std::thread detector_;
  /// Every bound inbound connection.  Its worker erases (and closes) one
  /// under the lock; the detector probes them under it.
  std::mutex conns_mu_;
  std::vector<std::unique_ptr<InConn>> conns_;
  std::uint64_t accepted_ = 0;  ///< acceptor only

  std::atomic<bool> running_{false};
  /// Variable count declared through stats() before start(); MSG frames
  /// mentioning a variable outside [0, var_count_) are rejected.
  std::size_t var_count_ = 0;
};

}  // namespace pardsm
