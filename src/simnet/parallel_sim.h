// Parallel deterministic discrete-event simulator.
//
// ParallelSimulator shards the event queue across worker threads by
// process and synchronizes the shards with conservative barrier quanta:
// a window [T, T+Q) with Q the latency model's lower bound guarantees
// that every message sent inside the window delivers at or after the
// window's end, so shards can drain their local queues independently.
// No shard ever receives an event earlier than its local clock.
//
// Shards own contiguous blocks of process ids (block_shard; the engine's
// graph::shard_assignment keeps share-graph cells whole on top), so the
// per-process state kept in id order is written by one shard per cache
// line.  A cross-shard delivery is parked in the sender shard's box for
// its destination shard, one set of boxes per window parity.  At the
// start of the next window each shard pulls the boxes addressed to it
// from every shard into its own queue, while the senders park into the
// other parity's boxes: no box is written and read in one window.  The
// coordinator's serial work per window is the scan for the earliest
// pending event (queue fronts and each shard's earliest parked delivery)
// and the global events.
//
// Determinism story (docs/PARALLEL.md):
//
//   * Events are ordered by a *canonical key* (when, class, origin,
//     per-origin sequence) instead of global insertion order.  The key is
//     a pure function of the logical computation — which process sent or
//     armed what, and in which position of its own deterministic
//     execution — so each process handles its events in the same order
//     for ANY thread count, ANY shard assignment and ANY OS interleaving.
//     Each shard keeps its events in the sequential engine's pooled
//     EventQueue, with (class, origin, sequence) packed into the queue's
//     tie-break key (canonical_key).
//   * Channel randomness is *counter-based*: every send's latency and
//     fault draws come from a fresh generator keyed on (run seed, sender,
//     dest, per-pair message counter, stream tag) — see counter_rng().
//     The draws depend on coordinates, never on scheduling.
//   * The sequential root's plan body, ChannelState::plan (network.h),
//     decides each message's fate over those streams and the sending
//     shard's ChannelState (clamp, drop counters), summed after the run.
//     The traffic ledger is the one shared NetworkStats: a process's slot
//     in it is only ever written by its owning shard (or the coordinator
//     while the workers are parked), so the shards write it directly.
//   * Fault state (ChannelFaults: cuts, down flags, probability windows)
//     is read-only during windows and mutated only by stop-the-world
//     global events (Scenario timelines) with every worker parked.
//
// The sequential Simulator remains the golden-bearing mode: same channel
// model, but its own sequential RNG draw order.  The parallel engine is a
// second HostTransport root, so ARQ/batching stacks and the MCS layer run
// unmodified above it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "simnet/check.h"
#include "simnet/event_queue.h"
#include "simnet/network.h"
#include "simnet/pair_map.h"
#include "simnet/stats.h"
#include "simnet/transport.h"

namespace pardsm {

/// The shard of process `p` when `n` processes are cut into `k`
/// contiguous id blocks whose sizes differ by at most one: p * k / n.
/// ParallelSimulator's default assignment, and graph::shard_assignment's
/// rule for cutting a share-graph layout.
[[nodiscard]] inline int block_shard(std::size_t p, std::size_t n, int k) {
  return static_cast<int>(p * static_cast<std::size_t>(k) / n);
}

/// Configuration of a parallel simulation run.
struct ParallelSimOptions {
  std::uint64_t seed = 1;
  ChannelOptions channel;
  /// Latency model; null means constant 1ms.
  std::unique_ptr<LatencyModel> latency;
  /// Abort (throw) if more than this many events fire in total.
  std::uint64_t max_events = 50'000'000;
  /// Shard count == thread count: the calling thread drains shard 0 and
  /// num_threads - 1 helper threads drain the rest (1 spawns none).
  unsigned num_threads = 4;
  /// Explicit shard per process (size n, values in [0, num_threads)).
  /// Empty = contiguous id blocks (block_shard).  graph::shard_assignment
  /// derives one from the share graph (cells of near-disjoint topologies
  /// stay whole).  The assignment never changes a result.
  std::vector<int> shard_of;
};

/// Multi-threaded deterministic event-loop Transport implementation.
class ParallelSimulator final : public RootTransport {
 public:
  explicit ParallelSimulator(ParallelSimOptions options);
  ~ParallelSimulator() override;

  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  /// Register the endpoint for the next free ProcessId (0, 1, 2, ...).
  ProcessId add_endpoint(Endpoint* ep) override;

  // -- Transport interface ------------------------------------------------
  void send(ProcessId from, ProcessId to, BodyRef body,
            MessageMeta meta) override;
  /// Current time: the calling worker's shard clock inside a window, the
  /// coordinator clock (window/global-event time) otherwise.
  [[nodiscard]] TimePoint now() const override;
  void set_timer(ProcessId who, Duration delay, TimerTag tag) override;
  [[nodiscard]] std::size_t process_count() const override {
    return endpoints_.size();
  }
  /// Per-shard concurrent arenas: a process allocates from its shard's
  /// pools (no cross-shard freelist contention on create), while atomic
  /// refcounts + locked recycle keep cross-shard deliveries safe.  Before
  /// freeze() without an explicit shard_of, n is not known yet and
  /// process p takes arena p % k (any arena is safe; only contention
  /// differs).
  [[nodiscard]] BodyArena& arena(ProcessId owner) override {
    const auto idx = static_cast<std::size_t>(owner);
    const std::size_t shard =
        idx < shard_of_.size()
            ? static_cast<std::size_t>(shard_of_[idx])
            : idx % arenas_.size();
    return *arenas_[shard];
  }

  // -- Execution control ---------------------------------------------------
  /// Schedule a closure at `when`, owned by process `owner` (the owner
  /// fixes the shard it runs on and its canonical ordering slot).  From a
  /// worker thread the owner must live on the calling shard.
  void schedule_at(TimePoint when, ProcessId owner,
                   std::function<void()> fn) override;

  /// Schedule a stop-the-world closure at `when`: it runs on the
  /// coordinator with every worker parked, and may mutate fault state,
  /// crash processes and send on their behalf.  Scenario::apply uses this
  /// for partitions and crash/recover events.
  void schedule_global(TimePoint when, std::function<void()> fn);

  /// Materialize shards, channels and the fault state; endpoint
  /// registration freezes here.  Implied by run() and faults().
  void freeze();

  /// Run until every shard queue and the global timeline drain.
  void run();

  // -- Introspection --------------------------------------------------------
  /// Severed pairs, down flags and probability windows live here; during
  /// windows the workers read it concurrently, so it must only be mutated
  /// from global events (or before run()).
  [[nodiscard]] ChannelFaults& faults();
  /// The traffic ledger every shard writes; read it after run().  Declare
  /// the run's variable count here (set_var_hint) before freeze().
  [[nodiscard]] NetworkStats& stats() { return stats_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  /// Channel drops by cause, merged over shards.
  [[nodiscard]] DropCounters drop_counters() const;
  /// Directed pairs holding FIFO clamp state, summed over shards.
  [[nodiscard]] std::size_t fifo_pairs() const;
  /// Bytes of per-pair channel state (all shards + fault tables).
  [[nodiscard]] std::size_t state_bytes() const;
  [[nodiscard]] std::uint64_t events_fired() const;
  [[nodiscard]] unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }
  [[nodiscard]] int shard_of(ProcessId p) const {
    return shard_of_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] Duration quantum() const { return quantum_; }

  /// Pack an event's canonical order (when aside) into EventQueue's 64-bit
  /// tie-break key: `klass` (2 bits) | `origin` (21) | `seq` (41), so the
  /// key order is exactly (klass, origin, seq).  `klass` ranks deliveries
  /// (0) before timers (1) before closures (2) at equal times; `origin` is
  /// the sending process (deliveries) or the owning one (timers,
  /// closures); `seq` is the origin's per-class counter at creation.
  /// Fails loudly past 2^21 processes or 2^41 events of one class from
  /// one origin rather than let a field bleed into its neighbour (public
  /// static so a test can probe the bounds, like
  /// EventQueue::checked_slot).
  [[nodiscard]] static std::uint64_t canonical_key(std::uint64_t klass,
                                                   ProcessId origin,
                                                   std::uint64_t seq) {
    PARDSM_CHECK(klass < 3, "canonical key: bad event class");
    PARDSM_CHECK(origin >= 0 && static_cast<std::uint64_t>(origin) <
                                    (std::uint64_t{1} << kOriginBits),
                 "canonical key: process id exceeds 2^21");
    PARDSM_CHECK(seq < (std::uint64_t{1} << kSeqBits),
                 "canonical key: per-origin sequence exceeds 2^41");
    return klass << (kOriginBits + kSeqBits) |
           static_cast<std::uint64_t>(origin) << kSeqBits | seq;
  }

 private:
  static constexpr unsigned kOriginBits = 21;
  static constexpr unsigned kSeqBits = 41;

  /// One coordinator-scheduled stop-the-world closure.
  struct GlobalEvent {
    TimePoint when{};
    std::uint64_t seq = 0;
    std::function<void()> fire;
  };

  /// A delivery bound for another shard, parked until the next window.
  struct Outgoing {
    TimePoint when{};
    std::uint64_t key = 0;  ///< canonical_key of the delivery
    Message msg;
  };

  /// Everything one shard owns: its event queue, the channel state of its
  /// processes' outgoing pairs and the cross-shard deliveries its last
  /// windows produced.  Aligned so no two shards share a cache line.
  struct alignas(64) Shard {
    Shard(ChannelState c, std::size_t num_shards)
        : channel(std::move(c)),
          outbox{std::vector<std::vector<Outgoing>>(num_shards),
                 std::vector<std::vector<Outgoing>>(num_shards)} {}
    EventQueue queue;  ///< keyed by canonical_key
    ChannelState channel;
    PairMap<std::uint64_t> pair_seq;  ///< per-pair send counter (RNG key)
    TimePoint now{};
    std::uint64_t events_fired = 0;
    /// outbox[parity][d]: deliveries for shard d parked in a window of
    /// that parity; shard d empties the box in the next window.
    std::array<std::vector<std::vector<Outgoing>>, 2> outbox;
    /// Earliest `when` parked in a window of that parity (the parity's
    /// last window only); kTimeForever when nothing was.
    std::array<TimePoint, 2> parked_min{kTimeForever, kTimeForever};
  };

  /// Pull shard `w`'s deliveries parked in the previous window, then drain
  /// it up to window_end_ on the calling thread, parking any exception in
  /// worker_errors_[w] (run_window rethrows it once every shard is done).
  void drain_shard(unsigned w) noexcept;
  void dispatch(Shard& shard, Event& e);
  /// Plan one send with ChannelState::plan over counter-based streams and
  /// the sending shard's channel state; queue its deliveries in the
  /// destination's queue, or park a worker's cross-shard ones in its
  /// outbox.
  void plan_and_schedule(Shard& shard, Message&& m);
  /// Helper thread body for shard `w` (>= 1): drain a window each time
  /// epoch_ moves past `epoch`, until stop_.
  void helper_loop(unsigned w, std::uint32_t epoch);
  /// Run one window: flip the parity, release the helpers, drain shard 0
  /// on the calling (coordinator) thread, wait for the helpers, rethrow a
  /// shard's error.
  void run_window(TimePoint window_end);
  /// Wake every helper with the stop flag set and join them.
  void stop_helpers();
  [[nodiscard]] Shard* current_shard() const;

  ParallelSimOptions options_;
  Duration quantum_{};
  std::uint64_t channel_seed_ = 0;
  std::vector<Endpoint*> endpoints_;
  std::vector<int> shard_of_;
  /// Stable storage: workers keep references to their shard across the
  /// whole run.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// One concurrent BodyArena per shard, created up-front (arena() must
  /// work before freeze so protocols can cache pool handles at attach).
  std::vector<std::unique_ptr<BodyArena>> arenas_;
  /// Fault state (severed / down / rate overrides) shared read-only
  /// during windows; built at freeze(), once n is known.
  std::optional<ChannelFaults> faults_;
  /// One slot per process, written by that process's shard (see stats.h).
  NetworkStats stats_;
  /// Per-process canonical sequence counters, touched only by the owner's
  /// shard (or the coordinator while workers are parked).
  std::vector<std::uint64_t> send_seq_;
  std::vector<std::uint64_t> timer_seq_;
  std::vector<std::uint64_t> closure_seq_;
  std::vector<GlobalEvent> globals_;  ///< min-heap by (when, seq)
  std::uint64_t next_global_seq_ = 0;
  std::uint64_t coordinator_events_ = 0;
  TimePoint coordinator_now_{};
  bool frozen_ = false;
  bool running_ = false;

  // -- window barrier ---------------------------------------------------------
  // The coordinator drains shard 0 itself; helpers_[w-1] drains shard w.
  // A window starts when the coordinator bumps epoch_ (release) and ends
  // when the last helper takes working_ to 0 (release) — both plain
  // futex-backed atomics, no mutex.  window_end_, parity_ and stop_ are
  // written only while every helper waits on the epoch.
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> working_{0};
  TimePoint window_end_{};
  unsigned parity_ = 0;  ///< parity of the current (or last) window
  bool stop_ = false;
  std::vector<std::exception_ptr> worker_errors_;  ///< one slot per shard
  std::vector<std::thread> helpers_;  ///< joined by run() on every path
};

}  // namespace pardsm
