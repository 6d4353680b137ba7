// Real-sockets transport root: length-prefixed TCP frames between actual
// OS processes (or over loopback within one).
//
// SocketTransport is the fourth HostTransport root, next to Simulator,
// ThreadRuntime and ParallelSimulator.  Endpoints registered here run on
// the same MailboxExecutor as ThreadRuntime's (simnet/thread_runtime.h):
// this root owns the channels, readers, failure detector and chaos, and
// hands the executor its mailboxes, timers and quiescence ledger.  Every
// message is serialized (simnet/wire.h), framed and written onto a real
// TCP connection — even when sender and receiver live in the same OS
// process — and reaches its endpoint through the executor's delivery
// hook, where the fail-pause window of set_down() suppresses it.  Two
// deployment shapes share the implementation:
//
//   * all-local (EngineRuntime::kSockets): every endpoint is registered in
//     one process, ids 0..n-1 in order, one auto-bound loopback listener.
//     Decorators (ReliableTransport, BatchingTransport) stack above it
//     unchanged, and await_quiescence() works like ThreadRuntime's.
//   * multi-process (pardsm_node): each OS process hosts one endpoint
//     (options.local_ids = {i}); peers are dialed at options.addrs[j].
//     Global quiescence is unknowable, so runs settle with drain().
//
// Robustness machinery (the reason this root exists):
//
//   * every directed pair has a sender-owned outbound channel with its own
//     writer thread; a failed dial or broken write triggers reconnection
//     with capped exponential backoff plus deterministic jitter
//     (counter_rng keyed on (seed, from, to, attempt) — independent of
//     thread interleaving).  Queued frames are retained across reconnects
//     and flushed in order after the HELLO.
//   * each channel emits HEARTBEAT frames when idle; the receiver-side
//     failure detector declares a peer down when nothing (heartbeat or
//     data) has arrived within heartbeat_timeout and up again on the next
//     frame, reporting transitions through set_peer_callback — the hook
//     the engine routes into McsProcess crash()/recover() + RSYNC.
//   * HELLO frames carry an incarnation number; a bumped incarnation
//     identifies a restarted (kill -9'd and respawned) peer.
//   * ChaosOptions injects faults at the socket layer: sender-side frame
//     drops and duplications, head-of-line delivery delays and deliberate
//     mid-stream disconnects, all drawn from counter-based streams so a
//     chaos run is reproducible.  Scenario loss/duplication windows map
//     onto set_loss_rate()/set_duplicate_rate(); partitions map onto
//     set_severed() — the property net (P1-P6) runs unmodified above.
//
// Wire format: [u32 length][u8 frame type][payload ...], little-endian.
// See docs/DEPLOYMENT.md for the full frame catalogue and tuning guide.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
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

namespace pardsm {

/// Socket-layer fault injection (all decisions sender-side, deterministic
/// given the seed and the per-pair frame counters).
struct ChaosOptions {
  /// Probability a data frame is silently not sent.
  double drop_probability = 0.0;
  /// Probability a data frame is enqueued twice.
  double duplicate_probability = 0.0;
  /// Probability the connection is closed right after writing a frame
  /// (exercises reconnection; the frame itself arrives).
  double disconnect_probability = 0.0;
  /// Extra head-of-line delay per frame, uniform in [delay_min, delay_max]
  /// (later frames on the pair queue behind it — FIFO is preserved).
  Duration delay_min{};
  Duration delay_max{};
  std::uint64_t seed = 0x50C'CA05;

  [[nodiscard]] bool any() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           disconnect_probability > 0.0 || delay_max.us > 0;
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
  /// Address to listen on; empty = 127.0.0.1 with a kernel-chosen port
  /// (query with port()).  Ignored when listen_fd is given.
  std::string listen_addr;
  /// Pre-bound listening socket inherited from a bootstrap parent (so a
  /// respawned node reuses the same binding and peers' reconnect attempts
  /// queue in the kernel backlog across the kill).  -1 = bind our own.
  int listen_fd = -1;
  /// This process's incarnation (bumped by the bootstrap on respawn).
  std::uint64_t incarnation = 1;

  /// Heartbeat emission period per outbound channel (wall time).
  Duration heartbeat_period = millis(25);
  /// Silence threshold after which the failure detector declares a peer
  /// down.  Must comfortably exceed heartbeat_period.
  Duration heartbeat_timeout = millis(150);

  /// Reconnect/dial backoff: base delay, cap, multiplier and jitter
  /// amplitude (fraction of the delay, deterministic draws).
  Duration dial_backoff_base = millis(5);
  Duration dial_backoff_max = millis(300);
  double dial_backoff_factor = 2.0;
  double dial_jitter = 0.25;
  std::uint64_t backoff_seed = 0xD1A1'B0FF;

  ChaosOptions chaos;
};

/// Socket-layer counters (what actually happened on the wire — distinct
/// from NetworkStats, which accounts the modelled message bytes).
struct SocketCounters {
  std::uint64_t frames_sent = 0;       ///< data frames written
  std::uint64_t frames_received = 0;   ///< data frames decoded
  std::uint64_t frames_rejected = 0;   ///< oversized, undecodable or
                                       ///< out-of-range frames (each
                                       ///< drops its connection)
  std::uint64_t bytes_sent = 0;        ///< wire bytes written (all frames)
  std::uint64_t bytes_received = 0;    ///< wire bytes read (all frames)
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t dials = 0;             ///< connection attempts
  std::uint64_t reconnects = 0;        ///< re-dials after an established
                                       ///< connection broke
  std::uint64_t chaos_drops = 0;
  std::uint64_t chaos_duplicates = 0;
  std::uint64_t chaos_disconnects = 0;
  std::uint64_t chaos_delays = 0;
  std::uint64_t peer_down_events = 0;  ///< failure-detector transitions
  std::uint64_t peer_up_events = 0;
};

/// TCP transport root.  See the file comment for the architecture.
class SocketTransport final : public RootTransport,
                              private MailboxExecutor::Delivery {
 public:
  explicit SocketTransport(SocketOptions options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Register the endpoint for the next id in options.local_ids (or the
  /// next sequential id when local_ids is empty).  Pre-start only.
  ProcessId add_endpoint(Endpoint* ep) override;

  /// Set/override a peer's address (pre-start).
  void set_peer_addr(ProcessId p, std::string host_port);

  /// Bind the listener, spawn mailbox/channel/acceptor/detector threads.
  void start();

  /// Stop and join every thread; closes all sockets.  Then rethrows a
  /// mailbox handler exception await_quiescence has not (MailboxExecutor).
  void stop();
  /// stop() without the rethrow.  Idempotent.
  void halt();
  /// Rethrow (and release) a held mailbox handler exception, if any.
  void rethrow_failure() { exec_.rethrow_failure(); }

  /// All-local shape only: block until no queued message, running handler,
  /// pending timer or undelivered frame remains.  Returns true on
  /// quiescence, false on timeout.
  bool await_quiescence(std::chrono::milliseconds timeout) {
    return exec_.await_quiescence(timeout);
  }

  /// Multi-process settle: block until no local activity (message, task or
  /// non-heartbeat frame) has happened for `idle`, or `timeout` elapses.
  /// Returns true if the idle window was observed.
  bool drain(std::chrono::milliseconds idle, std::chrono::milliseconds timeout);

  /// Run `task` on the mailbox thread owning local process `who`.
  void post(ProcessId who, std::function<void()> task);
  /// The root seam: posts `fn` to `owner`'s mailbox.  There is no
  /// virtual clock to wait on, so `when` (think time) is ignored.
  void schedule_at(TimePoint when, ProcessId owner,
                   std::function<void()> fn) override {
    (void)when;
    post(owner, std::move(fn));
  }

  // -- Transport ------------------------------------------------------------
  void send(ProcessId from, ProcessId to, BodyRef body,
            MessageMeta meta) override;
  [[nodiscard]] TimePoint now() const override { return exec_.now(); }
  void set_timer(ProcessId who, Duration delay, TimerTag tag) override;
  [[nodiscard]] std::size_t process_count() const override;
  /// Concurrent arena: bodies are created on app/mailbox threads and
  /// decoded on reader threads, and recycle from any of them.
  [[nodiscard]] BodyArena& arena(ProcessId owner) override {
    (void)owner;
    return arena_;
  }

  // -- fault injection / scenario hooks -------------------------------------
  /// Sever / heal the directed pair (a -> b): sends are dropped at the
  /// sender (counted in drops().severed).
  void set_severed(ProcessId a, ProcessId b, bool severed);
  /// Take a process down / up: frames from and to it are dropped at the
  /// sender (counted in drops().down).
  void set_down(ProcessId p, bool down);
  /// Time-varying probabilistic loss/duplication on (a -> b) — the socket
  /// mapping of Scenario's ProbWindow rates.  Draws share the chaos
  /// streams, so they are deterministic too.
  void set_loss_rate(ProcessId a, ProcessId b, double rate);
  void set_duplicate_rate(ProcessId a, ProcessId b, double rate);

  // -- peer liveness ---------------------------------------------------------
  /// Callback invoked (on the detector thread) when the failure detector
  /// changes its mind about a remote peer: up=false on silence past
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
  /// Declare the run's variable count m here (set_var_hint) before
  /// start(): a MSG frame from a process outside [0, n) or mentioning a
  /// variable outside [0, m) is rejected on the reader thread.
  [[nodiscard]] NetworkStats& stats() { return stats_; }
  [[nodiscard]] DropCounters drops() const;
  [[nodiscard]] SocketCounters counters() const;

 private:
  /// An encoded frame queued on an outbound channel.
  struct QueuedFrame {
    std::vector<std::uint8_t> bytes;
    std::chrono::steady_clock::time_point earliest;  ///< chaos delay
    bool counts_pending = false;  ///< finish_item() after the write
    bool chaos_disconnect = false;
  };

  /// Sender-owned state of one directed pair (from is local).
  struct OutChannel {
    ProcessId from = kNoProcess;
    ProcessId to = kNoProcess;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<QueuedFrame> queue;
    std::thread writer;
    int fd = -1;                      ///< writer thread only
    std::uint64_t dial_attempts = 0;  ///< consecutive failures (backoff)
    bool was_connected = false;
    std::uint64_t chaos_counter = 0;  ///< per-pair deterministic stream
    std::uint64_t jitter_counter = 0;
  };

  /// Receiver-side view of one remote process.
  struct PeerState {
    std::chrono::steady_clock::time_point last_rx{};
    std::uint64_t incarnation = 0;
    bool up = true;
  };

  /// Per-directed-pair scenario rates (socket ProbWindow mapping).
  struct PairRates {
    std::atomic<double> loss{0.0};
    std::atomic<double> dup{0.0};
  };

  [[nodiscard]] bool is_local(ProcessId p) const;
  [[nodiscard]] std::size_t local_index(ProcessId p) const;
  [[nodiscard]] std::size_t pair_index(ProcessId a, ProcessId b) const {
    return static_cast<std::size_t>(a) * options_.total_processes +
           static_cast<std::size_t>(b);
  }

  void deliver(Endpoint& ep, const Message& m) override;
  void enqueue_frame(OutChannel& ch, QueuedFrame frame);
  void writer_loop(OutChannel& ch);
  bool ensure_connected(OutChannel& ch);
  bool write_all(int fd, const std::uint8_t* data, std::size_t size);
  void acceptor_loop();
  void reader_loop(int fd);
  void detector_loop();
  void note_rx(ProcessId from, std::uint64_t incarnation, bool is_hello);
  void handle_frame(const std::vector<std::uint8_t>& payload);
  void reject_frame();
  [[nodiscard]] std::chrono::steady_clock::time_point steady_now() const {
    return std::chrono::steady_clock::now();
  }

  SocketOptions options_;
  BodyArena arena_{/*concurrent=*/true};
  std::vector<ProcessId> local_ids_;  ///< registration order = exec_ slot
  std::map<ProcessId, std::size_t> local_index_;
  std::vector<std::unique_ptr<OutChannel>> channels_;
  std::map<std::size_t, OutChannel*> channel_by_pair_;

  NetworkStats stats_;
  mutable std::mutex counters_mu_;
  SocketCounters counters_;
  DropCounters drops_;

  std::vector<PairRates> rates_;                  ///< n*n scenario rates
  std::unique_ptr<std::atomic<bool>[]> severed_;  ///< n*n
  std::unique_ptr<std::atomic<bool>[]> down_;     ///< n

  mutable std::mutex peers_mu_;
  std::vector<PeerState> peers_;
  PeerCallback peer_cb_;
  ControlCallback control_cb_;
  std::mutex cb_mu_;

  int own_listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::thread acceptor_;
  std::thread detector_;
  std::mutex readers_mu_;
  std::vector<int> reader_fds_;
  std::vector<std::thread> readers_;

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> next_msg_id_{1};
  /// Variable count declared through stats() before start(); MSG frames
  /// mentioning a variable outside [0, var_count_) are rejected.
  std::size_t var_count_ = 0;

  // Last: its workers deliver into arena bodies, stats_ and drops_, so it
  // must be destroyed (and its threads joined) before any of them.
  MailboxExecutor exec_{*this};
};

}  // namespace pardsm
