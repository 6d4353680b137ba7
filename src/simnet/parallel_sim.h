// Parallel deterministic discrete-event simulator.
//
// ParallelSimulator shards the event queue across worker threads by
// process and synchronizes the shards with conservative barrier quanta:
// a window [T, T+Q) with Q no larger than the channel's minimum latency
// guarantees that every message sent inside the window delivers at or
// after the window's end, so shards can drain their local queues
// independently and exchange cross-shard deliveries at the barrier.
// No shard ever receives an event earlier than its local clock.
//
// Determinism story (docs/PARALLEL.md):
//
//   * Events are ordered by a *canonical key* (when, class, origin,
//     per-origin sequence) instead of global insertion order.  The key is
//     a pure function of the logical computation — which process sent or
//     armed what, and in which position of its own deterministic
//     execution — so each process handles its events in the same order
//     for ANY thread count and ANY OS interleaving.
//   * Channel randomness is *counter-based*: every send's latency and
//     fault draws come from a fresh generator keyed on (run seed, sender,
//     dest, per-pair message counter, stream tag) — see counter_rng().
//     The draws depend on coordinates, never on scheduling.
//   * Per-pair FIFO clamp state, per-pair counters, drop counters and
//     traffic stats are partitioned by shard (a process's rows are only
//     ever touched by its owning shard) and merged after the run.
//   * Fault state (severed pairs, down flags, probability windows) is
//     read-only during windows and mutated only by stop-the-world global
//     events (Scenario timelines) with every worker parked.
//
// The sequential Simulator remains the golden-bearing mode: it is
// untouched by this engine and keeps its sequential RNG draw order.  The
// parallel engine is a second HostTransport root, so ARQ/batching stacks
// and the MCS layer run unmodified above it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "simnet/event_queue.h"
#include "simnet/network.h"
#include "simnet/pair_map.h"
#include "simnet/stats.h"
#include "simnet/transport.h"

namespace pardsm {

/// Configuration of a parallel simulation run.
struct ParallelSimOptions {
  std::uint64_t seed = 1;
  ChannelOptions channel;
  /// Latency model; null means constant 1ms.
  std::unique_ptr<LatencyModel> latency;
  /// Abort (throw) if more than this many events fire in total.
  std::uint64_t max_events = 50'000'000;
  /// Worker thread count == shard count.
  unsigned num_threads = 4;
  /// Barrier window size; {} (zero) derives the largest safe value from
  /// the latency model's lower_bound().  Must not exceed it.
  Duration quantum{};
  /// Explicit shard per process (size n, values in [0, num_threads)).
  /// Empty = round-robin by process id.  graph::shard_assignment derives
  /// one from the share graph (cells of near-disjoint topologies map to
  /// their own shards).
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
  /// freeze() the round-robin default assignment is used.
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

  /// Materialize shards, channels and the fault network; endpoint
  /// registration freezes here.  Implied by run() and fault_network().
  void freeze();

  /// Run until every shard queue and the global timeline drain.
  void run();

  // -- Introspection --------------------------------------------------------
  /// Severed pairs, down flags and probability windows live here; during
  /// windows the workers read it concurrently, so it must only be mutated
  /// from global events (or before run()).
  [[nodiscard]] Network& fault_network();
  /// Declare the run's variable count before freeze(): every shard's
  /// exposure rows (and the merged view's) are pre-sized to it.
  void set_var_hint(std::size_t m);
  [[nodiscard]] NetworkStats& stats() { return stats_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  /// Channel drops by cause, merged over shards.
  [[nodiscard]] DropCounters drop_counters() const;
  /// Directed pairs holding FIFO clamp state, summed over shards.
  [[nodiscard]] std::size_t fifo_pairs() const;
  /// Bytes of per-pair channel state (all shards + fault network).
  [[nodiscard]] std::size_t state_bytes() const;
  [[nodiscard]] std::uint64_t events_fired() const;
  [[nodiscard]] unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }
  [[nodiscard]] int shard_of(ProcessId p) const {
    return shard_of_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] Duration quantum() const { return quantum_; }

 private:
  /// A scheduled event with its canonical ordering key.  `klass` ranks
  /// deliveries before timers before closures at equal times; `origin` is
  /// the sending process (deliveries) or the owning process (timers,
  /// closures); `seq` is the origin's per-class counter at creation.
  struct PEvent {
    TimePoint when{};
    std::uint8_t klass = 0;  ///< 0=deliver, 1=timer, 2=closure
    ProcessId origin = kNoProcess;
    std::uint64_t seq = 0;

    Event::Type type = Event::Type::kClosure;
    Message msg;                    // kDeliver
    ProcessId timer_who = kNoProcess;  // kTimer
    std::uint64_t timer_tag = 0;
    std::function<void()> fire;     // kClosure

    /// Min-first canonical order (std::*_heap wants "less important").
    friend bool operator<(const PEvent& a, const PEvent& b) {
      if (a.when != b.when) return a.when > b.when;
      if (a.klass != b.klass) return a.klass > b.klass;
      if (a.origin != b.origin) return a.origin > b.origin;
      return a.seq > b.seq;
    }
  };

  /// One coordinator-scheduled stop-the-world closure.
  struct GlobalEvent {
    TimePoint when{};
    std::uint64_t seq = 0;
    std::function<void()> fire;
  };

  /// Everything one worker owns: its event heap, the channel state of its
  /// processes' outgoing pairs, its slice of the traffic ledger and the
  /// cross-shard deliveries the current window produced.
  struct Shard {
    std::vector<PEvent> heap;  ///< binary min-heap in canonical order
    std::unique_ptr<LatencyModel> latency;
    PairMap<TimePoint> last_delivery;  ///< FIFO clamp, sender-side pairs
    PairMap<std::uint64_t> pair_seq;   ///< per-pair send counter (RNG key)
    DropCounters drops;
    NetworkStats stats;
    TimePoint now{};
    std::uint64_t events_fired = 0;
    std::vector<PEvent> outbox;  ///< deliveries bound for other shards
  };

  void push_event(Shard& shard, PEvent e);
  void drain_window(Shard& shard, TimePoint window_end);
  void dispatch(Shard& shard, PEvent& e);
  /// Mirror of Network::plan_delivery over counter-based streams and the
  /// calling shard's clamp state; appends deliver events locally or to the
  /// outbox.
  void plan_and_schedule(Shard& shard, Message&& m);
  void worker_loop(unsigned w);
  void run_window(TimePoint window_end);
  [[nodiscard]] Shard* current_shard() const;

  ParallelSimOptions options_;
  Duration quantum_{};
  std::uint64_t channel_seed_ = 0;
  std::vector<Endpoint*> endpoints_;
  std::vector<int> shard_of_;
  /// Stable storage: Shard holds a NetworkStats (not movable) and workers
  /// keep references across the whole run.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// One concurrent BodyArena per shard, created up-front (arena() must
  /// work before freeze so protocols can cache pool handles at attach).
  std::vector<std::unique_ptr<BodyArena>> arenas_;
  std::size_t var_hint_ = 0;
  /// Fault state (severed / down / rate overrides) shared read-only
  /// during windows; its own RNG streams and clamp state are unused.
  std::unique_ptr<Network> fault_net_;
  NetworkStats stats_;  ///< merged view, filled at the end of run()
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

  // -- worker parking -------------------------------------------------------
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  TimePoint window_end_{};
  unsigned working_ = 0;
  bool stop_workers_ = false;
  std::vector<std::exception_ptr> worker_errors_;
};

}  // namespace pardsm
