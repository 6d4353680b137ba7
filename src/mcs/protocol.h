// Protocol framework: the MCS process abstraction.
//
// An McsProcess pairs with one application process: the application calls
// read()/write() (asynchronous, callback-based — wait-free protocols
// complete them synchronously before returning), the MCS process exchanges
// messages with its peers through the Transport to keep replicas
// consistent, and every completed operation is recorded for post-hoc
// checking.
//
// The asynchronous operation API is what lets the same protocol code run
// under the single-threaded discrete-event simulator (where a blocking
// call would deadlock the event loop) and under the thread runtime.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mcs/recorder.h"
#include "mcs/replica_store.h"
#include "sharegraph/share_graph.h"
#include "simnet/check.h"
#include "simnet/stats.h"
#include "simnet/transport.h"

namespace pardsm::mcs {

/// Completion callback of a read (receives the value returned).
using ReadCallback = std::function<void(Value)>;

/// Completion callback of a write.
using WriteCallback = std::function<void()>;

/// Protocol-internal counters (beyond NetworkStats).
struct ProtocolStats {
  std::uint64_t local_reads = 0;    ///< reads served from the local replica
  std::uint64_t remote_reads = 0;   ///< reads that required a round trip
  std::uint64_t writes = 0;
  std::uint64_t updates_applied = 0;
  /// Causal protocols: failed readiness checks, one per check that left a
  /// buffered update waiting (an update re-checked k times counts k), not
  /// the number of delayed updates.  slow-partial: updates held for their
  /// delivery timer.
  std::uint64_t updates_buffered = 0;
  /// Most updates held in the delivery buffer at once, the arrival included.
  std::uint64_t max_buffer_depth = 0;
};

/// Crash/recovery counters of one process (scenario runs; all zero on a
/// fault-free run).  Re-sync traffic travels as ordinary messages, so its
/// bytes are *also* charged to NetworkStats — these counters isolate the
/// recovery share for the overhead ledger.
struct RecoveryStats {
  std::uint64_t crashes = 0;
  std::uint64_t resync_requests_sent = 0;
  std::uint64_t resync_responses_served = 0;  ///< answered as a peer
  std::uint64_t resync_values_applied = 0;
  /// Wire bytes of re-sync requests sent plus responses received — the
  /// recovery cost charged to this process.
  std::uint64_t resync_bytes = 0;
  std::uint64_t deliveries_dropped_while_down = 0;
  std::uint64_t timers_deferred = 0;  ///< timer fires postponed past downtime
};

/// Immutable var → C(x) table (graph::build_cliques, O(Σ|X_i|)).
/// Protocols consult C(x) on every write, and Distribution::replicas_of
/// allocates a fresh vector per call — far too expensive for the hot
/// path.  One table is shared by all processes of a system
/// (make_processes injects it).
class CliqueTable {
 public:
  explicit CliqueTable(const graph::Distribution& dist)
      : cliques_(graph::build_cliques(dist)) {}

  [[nodiscard]] const std::vector<ProcessId>& clique(VarId x) const {
    PARDSM_CHECK(x >= 0 && static_cast<std::size_t>(x) < cliques_.size(),
                 "CliqueTable: bad variable");
    return cliques_[static_cast<std::size_t>(x)];
  }

 private:
  std::vector<std::vector<ProcessId>> cliques_;
};

/// One protocol send round: the same body to a set of destinations, with
/// shared accounting metadata and an urgency hint.  This is what protocols
/// emit instead of calling Transport::send per destination — the seam that
/// preserves the multicast structure all the way to the transport plane
/// (a batching layer coalesces, a future true-multicast network could
/// fan out natively).
///
/// Protocols whose per-recipient metadata differs (causal-partial-naive's
/// update/notify split, causal-partial-adhoc's per-recipient dependency
/// restriction) emit one single-destination plan per recipient — exactly
/// the bytes a real implementation would put on the wire for that
/// recipient, and exactly the send order of the pre-seam code.
struct SendPlan {
  BodyRef body;
  /// Accounting metadata, copied per destination on expansion.
  MessageMeta meta;
  /// Destination set in emission order (ascending for determinism; the
  /// sender itself is never listed).
  SmallVec<ProcessId, 8> to;
  /// Completion-blocking traffic (RPCs, commits, re-sync): transports
  /// must forward it immediately rather than coalesce it.
  bool urgent = false;
};

/// How a SendPlan reaches the wire.  The default expansion is one
/// point-to-point Transport::send per destination, in plan order — which
/// keeps per-destination FIFO and is bit-identical to the historical
/// per-destination send loops.  Implementations must preserve
/// per-destination FIFO across successive submits from one sender.
class MulticastService {
 public:
  virtual ~MulticastService() = default;

  virtual void submit(Transport& transport, ProcessId from,
                      SendPlan&& plan) = 0;

  /// The default stateless point-to-point expansion (shared instance).
  [[nodiscard]] static MulticastService& fanout();
};

/// Base class of every memory-consistency protocol instance (one per
/// process).
class McsProcess : public Endpoint {
 public:
  /// `dist` and `recorder` must outlive the process; `cliques` is the C(x)
  /// table of `dist` that make_processes builds once and shares with
  /// every process of the system.  `transport` is wired afterwards via
  /// attach() because process ids are assigned by the runtime at
  /// registration time.
  McsProcess(ProcessId self, const graph::Distribution& dist,
             HistoryRecorder& recorder,
             std::shared_ptr<const CliqueTable> cliques)
      : self_(self),
        dist_(dist),
        recorder_(recorder),
        store_(dist.per_process.at(static_cast<std::size_t>(self))),
        cliques_(std::move(cliques)) {
    PARDSM_CHECK(cliques_ != nullptr, "McsProcess needs the clique table");
  }

  /// Wire the transport (after runtime registration).  on_attach() lets
  /// protocols cache per-type body-pool handles from the transport's
  /// arena, next to their cached KindIds.
  void attach(Transport& transport) {
    transport_ = &transport;
    on_attach();
  }

  /// Replace the multicast expansion (the engine injects this; default is
  /// MulticastService::fanout()).  Must outlive the process.
  void use_multicast(MulticastService& service) { mcast_ = &service; }

  /// Asynchronous read of x; `done` receives the value.  Calling read on a
  /// variable outside X_i is a programming error (partial replication
  /// means the application only accesses its own variables).
  virtual void read(VarId x, ReadCallback done) = 0;

  /// Asynchronous write of v to x.
  virtual void write(VarId x, Value v, WriteCallback done) = 0;

  // -- runtime plumbing (final: the base owns crash filtering and the
  // re-sync handshake; protocols implement handle_message/handle_timer) ---
  void on_message(const Message& m) final;
  void on_timer(TimerTag tag) final;

  // -- crash / recovery (driven by scenario timelines) ----------------------
  /// Fail-pause crash: the process stops observing the world.  The network
  /// layer (ChannelFaults::set_down) stops its traffic in both directions; the
  /// base additionally drops any delivery or defers any timer that slips
  /// through while down.  Replica contents and protocol state survive (the
  /// paper's MCS process is the durable memory system — the *channel* to
  /// it fails), but everything in flight toward the process is lost and
  /// must be repaired by ARQ retransmission and/or recovery re-sync.
  void crash();

  /// End the downtime: resume processing and re-sync the replica set — for
  /// each held variable, the lowest-id other member of C(x) is asked for
  /// its current (value, provenance) copy.  Responses are applied under a
  /// never-regress rule (see apply_resync_entry) and every re-sync byte is
  /// charged to NetworkStats like any other control traffic.
  void recover();

  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return rstats_;
  }
  /// True while re-sync responses are outstanding after a recover().
  [[nodiscard]] bool resync_in_progress() const {
    return pending_resyncs_ > 0;
  }
  /// Time from the last recover() to its final re-sync response (zero if
  /// never crashed or not yet fully re-synced).
  [[nodiscard]] Duration last_recovery_latency() const {
    return last_recovery_latency_;
  }
  /// Slowest completed recover()→re-sync interval across every crash
  /// cycle of this process.
  [[nodiscard]] Duration max_recovery_latency() const {
    return max_recovery_latency_;
  }

  /// Human-readable protocol name.
  [[nodiscard]] virtual std::string name() const = 0;

  /// True if this protocol serves reads and writes without waiting for the
  /// network (the paper's wait-free local-access property, §3.3).
  [[nodiscard]] virtual bool wait_free() const = 0;

  [[nodiscard]] ProcessId id() const { return self_; }
  /// The attached transport's clock (simulated or wall, per runtime).
  /// Public so engine clients can timestamp operations on the same clock
  /// the protocol runs on.
  [[nodiscard]] TimePoint now() const {
    return transport_ ? transport_->now() : TimePoint{};
  }
  [[nodiscard]] const ProtocolStats& stats() const { return pstats_; }
  [[nodiscard]] const ReplicaStore& store() const { return store_; }
  [[nodiscard]] bool replicates(VarId x) const { return store_.holds(x); }

 protected:
  /// Protocol message handling (what on_message dispatched to before the
  /// crash/re-sync layer interposed).
  virtual void handle_message(const Message& m) = 0;

  /// Protocol timer handling; default: no protocol uses timers.
  virtual void handle_timer(TimerTag tag) { (void)tag; }

  /// Crash hooks for protocol-specific volatile state.  The default
  /// fail-pause model keeps all state, so these are no-ops.
  virtual void on_crash() {}
  virtual void on_recover() {}

  /// Called from attach(): override to cache BodyPool handles (via
  /// arena()) so hot-path body creation is a freelist pop, not an arena
  /// lookup.
  virtual void on_attach() {}

  /// This process's body pools on the attached runtime root.
  [[nodiscard]] BodyArena& arena() { return transport().arena(self_); }

  /// Peer asked for x's current copy during re-sync: the lowest-id member
  /// of C(x) other than self (kNoProcess = no peer, skip the variable).
  /// causal-full overrides this — under full replication any process can
  /// serve any variable, including those whose clique excludes it.
  [[nodiscard]] virtual ProcessId resync_source(VarId x) const;

  /// May a re-synced copy of x served by `responder` be adopted into the
  /// local store (it still passes the base never-regress rule afterwards)?
  ///
  /// Adoption is sound only when every in-flight or future update of x
  /// destined to this process travels on the responder→self channel: ARQ
  /// delivers per-pair FIFO, so the re-sync response then arrives *after*
  /// any older backlog and the adopted copy can never be crossed by a
  /// stale redelivery.  Protocols where that holds opt in (pram: entries
  /// written by the responder itself; home-based protocols: entries served
  /// by x's home).  The default is a veto — correct for every protocol
  /// whose apply path is gated (causal vector clocks, slow-memory jitter
  /// buffers, processor prior-count buffering): adopting a value past such
  /// a gate could expose it before its delivery preconditions, and the
  /// gated backlog repairs the state anyway.
  [[nodiscard]] virtual bool resync_adoptable(VarId x, ProcessId responder,
                                              const WriteId& source) const {
    (void)x;
    (void)responder;
    (void)source;
    return false;
  }

  [[nodiscard]] Transport& transport() {
    PARDSM_CHECK(transport_ != nullptr, "McsProcess used before attach()");
    return *transport_;
  }
  [[nodiscard]] const graph::Distribution& distribution() const {
    return dist_;
  }
  /// C(x) as a sorted list from the cached table (no allocation per call,
  /// unlike Distribution::replicas_of).
  [[nodiscard]] const std::vector<ProcessId>& replicas_of(VarId x) const {
    return cliques_->clique(x);
  }
  /// True if process q replicates x (binary search of the cached C(x)).
  [[nodiscard]] bool clique_holds(ProcessId q, VarId x) const {
    const auto& c = replicas_of(x);
    return std::binary_search(c.begin(), c.end(), q);
  }
  [[nodiscard]] HistoryRecorder& recorder() { return recorder_; }
  [[nodiscard]] ReplicaStore& mutable_store() { return store_; }
  [[nodiscard]] ProtocolStats& mutable_stats() { return pstats_; }

  /// Emit one send round through the multicast seam.  `plan.urgent` is
  /// propagated into the per-message metadata so coalescing transports
  /// flush instead of delaying completion-blocking traffic.
  void emit(SendPlan&& plan) {
    plan.meta.urgent = plan.urgent;
    mcast_->submit(transport(), self_, std::move(plan));
  }

  /// Convenience: a single-destination plan (RPCs, replies, per-recipient
  /// metadata variants).
  void emit_to(ProcessId to, BodyRef body, MessageMeta meta,
               bool urgent = false) {
    SendPlan plan;
    plan.body = std::move(body);
    plan.meta = std::move(meta);
    plan.to.push_back(to);
    plan.urgent = urgent;
    emit(std::move(plan));
  }

  /// Serve a read from the local replica, recording it.  Shared by all
  /// wait-free protocols.
  void local_read(VarId x, const ReadCallback& done) {
    PARDSM_CHECK(store_.holds(x),
                 "application read of a variable outside X_i");
    const Stored& s = store_.get(x);
    ++pstats_.local_reads;
    const TimePoint t = now();
    recorder_.record_read(self_, x, s.value, s.source, t, t);
    done(s.value);
  }

 private:
  void start_resync();
  void serve_resync_request(const Message& m);
  void absorb_resync_response(const Message& m);
  /// Never-regress apply rule for one re-synced (x, value, source) entry.
  void apply_resync_entry(VarId x, Value value, const WriteId& source,
                          ProcessId responder);

  ProcessId self_;
  const graph::Distribution& dist_;
  HistoryRecorder& recorder_;
  ReplicaStore store_;
  ProtocolStats pstats_;
  Transport* transport_ = nullptr;
  MulticastService* mcast_ = &MulticastService::fanout();
  /// The system's C(x) table, shared by all its processes.
  std::shared_ptr<const CliqueTable> cliques_;

  // -- crash / re-sync state ------------------------------------------------
  bool crashed_ = false;
  /// Timer fires parked during downtime, replayed in order on recovery.
  std::vector<TimerTag> deferred_timers_;
  /// Discriminates re-sync rounds: responses from a superseded recovery
  /// (the process crashed again mid-re-sync) are ignored.
  std::uint32_t resync_epoch_ = 0;
  std::uint32_t pending_resyncs_ = 0;
  TimePoint recovery_started_{};
  Duration last_recovery_latency_{};
  Duration max_recovery_latency_{};
  RecoveryStats rstats_;
};

/// The protocols implemented in this repository.  The last two are the
/// repository's extensions toward the paper's open question (conclusion):
/// criteria other than / stronger than PRAM that still admit efficient
/// partial replication.
enum class ProtocolKind {
  kAtomicHome,          ///< linearizable, home-based RPC
  kSequencerSC,         ///< sequentially consistent, sequencer total order
  kCausalFull,          ///< causal, full replication, vector clocks [3]
  kCausalPartialNaive,  ///< causal, partial replicas, global notifications
  kCausalPartialAdHoc,  ///< causal, partial replicas, hoop-routed metadata
  kPramPartial,         ///< PRAM, partial replicas (the paper's efficient case)
  kSlowPartial,         ///< slow memory, partial replicas
  kCachePartial,        ///< cache consistency, per-variable home sequencing
  kProcessorPartial,    ///< PRAM ∧ cache (processor consistency)
};

[[nodiscard]] const char* to_string(ProtocolKind k);

/// All protocol kinds, strongest criterion first.
[[nodiscard]] const std::vector<ProtocolKind>& all_protocols();

/// The weakest criterion each protocol is required to satisfy (used by
/// property tests: recorded histories must pass this checker and all
/// weaker ones).
enum class GuaranteeLevel {
  kAtomic,
  kSequential,
  kCausal,
  kProcessor,  ///< PRAM ∧ cache
  kPram,
  kCache,      ///< per-variable sequential consistency (incomparable to PRAM)
  kSlow,
};
[[nodiscard]] GuaranteeLevel guarantee_of(ProtocolKind k);

}  // namespace pardsm::mcs
