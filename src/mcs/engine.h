// The one engine every system run goes through.
//
// An EngineConfig names a complete experiment — protocol, distribution,
// the load (per-process scripts, or a generated streaming workload), the
// transport stack (raw / ARQ / batching, in either stacking order), an
// optional fault timeline and the runtime to execute on — and run()
// executes it.  run() is the only batch entry point: every bench, test and
// example names what it needs with designated initializers (in declaration
// order) and leaves the rest at the defaults,
//
//   auto r = mcs::run({.protocol = ProtocolKind::kCausalPartialAdHoc,
//                      .distribution = &dist,
//                      .scripts = &scripts,
//                      .scenario = &scenario,   // optional fault timeline
//                      .sim_seed = 7});
//
// (script generators live in driver.h).
//
// Transport stack assembled by run(), bottom-up — the same assembly on
// every root; only the root differs:
//
//   Simulator | ThreadRuntime |
//   ParallelSimulator | SocketTransport  (root RootTransport)
//     └─ BatchingTransport               (placement kBelowReliable)
//         └─ ReliableTransport           (when the run needs ARQ)
//             └─ BatchingTransport       (placement kAboveReliable, default)
//                 └─ McsProcess endpoints, each driven by one Client
//
// Layers are only constructed when configured: a lossless, unbatched run
// wires processes straight to the root runtime.  The Client schedules
// every step through the root's two-method seam (now() and
// schedule_at(when, owner, fn)), so the same client drives ops on all
// four roots.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "mcs/factory.h"
#include "simnet/batching.h"
#include "simnet/latency_histogram.h"
#include "simnet/reliable.h"
#include "simnet/scenario.h"
#include "simnet/simulator.h"
#include "simnet/socket_transport.h"
#include "workload/generator.h"

namespace pardsm::mcs {

/// One scripted operation.
struct ScriptOp {
  enum class Kind : std::uint8_t { kRead, kWrite };
  Kind kind = Kind::kRead;
  VarId var = kNoVar;
  Value value = kBottom;  ///< written value (writes only)
  /// Delay before issuing this operation (think time).
  Duration delay{};

  static ScriptOp read(VarId x, Duration delay = {}) {
    return {Kind::kRead, x, kBottom, delay};
  }
  static ScriptOp write(VarId x, Value v, Duration delay = {}) {
    return {Kind::kWrite, x, v, delay};
  }
};

/// A per-process operation script.
using Script = std::vector<ScriptOp>;

/// Drives one McsProcess through its load — a stored Script replayed
/// verbatim, or a stream pulled out of a workload::Generator — on any root
/// runtime.  Every step is scheduled through the root's seam
/// (RootTransport::schedule_at, owned by this client's process): the
/// simulators queue it at its virtual time, the wall-clock roots post it
/// to the process's mailbox.  A completion never issues the next op
/// inline, so a stream of any length runs in constant stack depth.
///
/// Closed loop (scripts; generators with arrival_rate == 0): op k+1 is
/// issued when op k completes, after the script's think time, latency
/// measured from the issue instant.  Open loop (a generator with a
/// positive rate; simulator roots only): op k *arrives* at start + k/rate
/// on the simulated clock regardless of system progress; at most one op
/// is outstanding, the rest queue as a backlog counter, and latency is
/// measured from the scheduled arrival, so head-of-line queueing behind a
/// slow (or crashed) system is charged to the op rather than omitted.
///
/// Crash-aware: the application is co-located with its MCS process, so
/// while the process is down the client neither issues operations (an
/// issue attempt stalls) nor loses its place in the load.  The scenario
/// driver calls resume() from the recovery hook; an operation that was in
/// flight at crash time simply completes late — its response is
/// retransmitted by the ARQ layer — and the load continues from there.
///
/// Generator-driven clients hold no per-op state — a fixed-size cursor
/// and a digest of read results — no matter how long the stream is, and
/// record each op's latency into a histogram they share with every client
/// run by the same owner thread (the engine keeps one per owner: 15 KiB
/// per thread, not per process).  Script-driven clients record no
/// latency and keep every read result.
class Client {
 public:
  Client(McsProcess& process, RootTransport& root, Script script);
  /// `latency` belongs to the thread that runs this client's steps and
  /// must outlive the client.
  Client(McsProcess& process, RootTransport& root,
         const workload::Generator& gen, LatencyHistogram& latency);
  /// Scheduled steps and protocol callbacks capture `this`.
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Schedule the first arrival (open loop) or first issue (closed loop).
  void start(TimePoint start);

  /// Re-enter the issue loop after the process recovered (no-op if the
  /// client was not stalled).
  void resume(TimePoint at);

  /// Every op of the load has *completed* — an op issued but never
  /// answered keeps the client unfinished.
  [[nodiscard]] bool done() const { return completed_ == total_; }
  /// Ops handed to the protocol / completed so far.  At quiescence
  /// issued - completed is 0 or, with a dead channel, the censored op.
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  /// Order-sensitive digest of every read result.
  [[nodiscard]] std::uint64_t reads_digest() const { return reads_digest_; }
  /// Every read result in program order (script-driven clients only).
  [[nodiscard]] const std::vector<Value>& read_results() const {
    return reads_;
  }

 private:
  [[nodiscard]] bool open_loop() const {
    return gen_ != nullptr && gen_->open_loop();
  }
  [[nodiscard]] workload::OpSpec op(std::uint64_t k) const;
  [[nodiscard]] Duration think_time(std::uint64_t k) const {
    return gen_ != nullptr ? Duration{} : script_[k].delay;
  }
  void arrive();
  void pump();
  void complete(TimePoint t0);

  McsProcess& process_;
  RootTransport& root_;
  Script script_;
  const workload::Generator* gen_ = nullptr;
  /// The owner thread's histogram (generator-driven clients only).
  LatencyHistogram* latency_ = nullptr;
  std::vector<Value> reads_;
  std::uint64_t total_ = 0;
  TimePoint start_{};
  std::uint64_t arrivals_ = 0;  ///< ops arrived (== total in closed loop)
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t reads_digest_ = 0;
  bool outstanding_ = false;
  bool stalled_ = false;
};

/// Final (value, provenance) copy of one replicated variable.
struct ReplicaEntry {
  VarId x = kNoVar;
  Value value = kBottom;
  WriteId source{};

  friend bool operator==(const ReplicaEntry&, const ReplicaEntry&) = default;
};

/// Result of a full system run.
struct RunResult {
  hist::History history;
  ProcessTraffic total_traffic;
  std::vector<ProcessTraffic> per_process_traffic;
  /// observed_relevant[x] = processes that received metadata about x.
  std::vector<std::set<ProcessId>> observed_relevant;
  std::vector<ProtocolStats> protocol_stats;
  /// Per-process replica contents at quiescence (sorted by VarId).
  std::vector<std::vector<ReplicaEntry>> final_replicas;
  TimePoint finished_at{};
  std::uint64_t events = 0;
  /// Channel-state footprint at quiescence (simulator runs only): directed
  /// pairs that carried at least one surviving message, and the bytes the
  /// network's sparse per-pair tables hold — the observable form of the
  /// O(active pairs) memory model (docs/SCALING.md).
  std::size_t active_channel_pairs = 0;
  std::size_t channel_state_bytes = 0;
  /// Generated-workload runs only (EngineConfig::workload): the per-op
  /// latency ledger, merged over every owner thread's histogram (the
  /// simulator's one, each shard's on the parallel root, each process's
  /// on the wall-clock roots).  ops_censored = ops that arrived per the
  /// generator's schedule but never completed — dead channel or
  /// never-recovered crash; they sit in the histogram's censored mass,
  /// above every bucket, never as ~0 latencies (docs/WORKLOADS.md).
  LatencyHistogram op_latency;
  std::uint64_t ops_issued = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t ops_censored = 0;
};

/// run() result: the ordinary run outcome plus the fault and
/// transport-stack ledgers.
struct ScenarioRunResult : RunResult {
  /// True when the run was routed through ReliableTransport (any faulty
  /// scenario); false for fault-free timelines on the raw simulator.
  bool used_reliable_transport = false;
  /// ARQ retransmissions across all senders.
  std::uint64_t retransmissions = 0;
  /// Channel drops by cause (loss, partition, downtime, in-flight).
  DropCounters drops;
  /// Crash/re-sync ledger summed over all processes.
  std::uint64_t crashes = 0;
  std::uint64_t resync_messages = 0;  ///< requests sent + responses served
  std::uint64_t resync_bytes = 0;
  std::uint64_t resync_values_applied = 0;
  /// Slowest recover()→re-sync-complete interval of the run.
  Duration max_recovery_latency{};
  /// Batching-layer ledger (all zero without a batching layer).
  BatchingStats batching;
  /// Directed pairs the ARQ layer declared dead after exhausting
  /// max_retransmits.  Empty on every default configuration — the engine
  /// default effectively never gives up.
  std::vector<std::pair<ProcessId, ProcessId>> dead_channels;
  /// Clients that could not finish their script because a channel died.
  /// Non-zero only when dead_channels is non-empty; with live channels an
  /// unfinished client is still a hard error.
  std::size_t unfinished_clients = 0;
  /// Socket-layer wire ledger (all zero off the sockets runtime): frames
  /// and bytes actually written/read, heartbeats, dials, reconnects and
  /// chaos injections.
  SocketCounters socket_counters;
};

/// When the run must be routed through the ARQ layer.
enum class ReliabilityMode : std::uint8_t {
  /// ReliableTransport iff the scenario is faulty or the channel can drop
  /// or duplicate.
  kAuto,
  /// Raw channel even when lossy: the fault-injection tests exercise
  /// protocol *safety* on an unrepaired channel, where lost completions
  /// are expected behaviour.
  kNever,
  /// Always wrap, pricing ARQ framing into a lossless run.
  kAlways,
};

/// Where the batching layer sits relative to the ARQ layer (only relevant
/// when both are configured).
enum class BatchPlacement : std::uint8_t {
  /// app → batching → ARQ: whole frames are acknowledged/retransmitted as
  /// one DATA frame — fewer acks.  The default.
  kAboveReliable,
  /// app → ARQ → batching: DATA and ACK frames coalesce on the wire; keep
  /// window well below the retransmit timer.
  kBelowReliable,
};

/// Which runtime executes the run.
enum class EngineRuntime : std::uint8_t {
  kSimulator,    ///< deterministic discrete-event simulator
  kThreads,      ///< one OS thread per process (non-deterministic)
  kParallelSim,  ///< sharded deterministic simulator (worker threads)
  /// Real TCP sockets over loopback, all endpoints in this OS process
  /// (SocketTransport root; pardsm_node drives the multi-process shape).
  /// Fault timelines replay on the wall clock — 1 simulated µs = 1 µs —
  /// with loss/duplication windows mapped onto the socket layer's
  /// deterministic chaos streams.  Message *timing* is as
  /// non-deterministic as kThreads; fault draws are reproducible.
  kSockets,
};

/// Parallel-simulator knobs (EngineRuntime::kParallelSim).  The shard
/// assignment itself is derived from the share graph (cells of
/// near-disjoint topologies map onto their own shards; connected
/// topologies round-robin by process id) — see graph::shard_assignment.
struct ParallelOptions {
  /// Worker thread count == shard count.  Results are independent of this
  /// value: the canonical event order and counter-based RNG streams make
  /// a run a pure function of (config, seed), not of the thread count.
  unsigned num_threads = 4;
  /// Conservative barrier window; zero derives the largest safe value
  /// from the latency model's lower bound.
  Duration quantum{};
};

/// Everything one system run needs.  Pointer members are borrowed and
/// must outlive run().
struct EngineConfig {
  ProtocolKind protocol = ProtocolKind::kPramPartial;
  const graph::Distribution* distribution = nullptr;  ///< required
  /// The load: exactly one of `scripts` (replayed verbatim) or `workload`
  /// (streamed from a generator, never materialized) must be set.
  const std::vector<Script>* scripts = nullptr;
  const workload::Spec* workload = nullptr;
  /// Record every op into RunResult::history (the consistency checkers
  /// need it).  Turn off for million-op workload runs: the recorder then
  /// only counts, memory stays O(1) in the op count, and
  /// RunResult::history comes back empty.
  bool record_history = true;
  /// Optional fault timeline (null = lossless run, no scenario events).
  const Scenario* scenario = nullptr;
  EngineRuntime runtime = EngineRuntime::kSimulator;

  // -- simulator ------------------------------------------------------------
  std::uint64_t sim_seed = 1;
  ChannelOptions channel{};
  std::unique_ptr<LatencyModel> latency{};  ///< null = constant 1ms

  // -- parallel simulator ---------------------------------------------------
  ParallelOptions parallel{};

  // -- transport stack ------------------------------------------------------
  ReliabilityMode reliability = ReliabilityMode::kAuto;
  /// ARQ configuration.  The default effectively never gives up: scenario
  /// liveness comes from healing timelines, not retransmit caps.
  ReliableOptions reliable{millis(40), 1'000'000};
  /// Batching window 0 = no batching layer at all (unless forced below).
  BatchingOptions batching{};
  BatchPlacement batch_placement = BatchPlacement::kAboveReliable;
  /// Construct the batching layer even at window 0 (the pass-through
  /// regression in tests/test_transport_conformance.cpp pins that this is
  /// bit-identical to no layer).
  bool force_batching_layer = false;
  /// Multicast expansion injected into every process (null = the default
  /// point-to-point fanout).
  MulticastService* multicast = nullptr;

  // -- thread runtime -------------------------------------------------------
  /// Bound on the wait for quiescence (kThreads and kSockets).
  std::chrono::milliseconds quiesce_timeout{10000};

  // -- sockets runtime ------------------------------------------------------
  /// Socket-root knobs (heartbeats, backoff, chaos injection).  The engine
  /// always runs the all-local loopback shape: total_processes and
  /// local_ids are derived from the distribution and must be left alone.
  SocketOptions sockets{};
};

/// Execute the configured run.  Deterministic per config on the simulator
/// runtimes; timing is non-deterministic by design on kThreads and
/// kSockets (the sockets root still replays fault timelines and runs the
/// full transport stack — chaos and backoff draws are seeded, only the
/// wall-clock interleaving varies; see docs/DEPLOYMENT.md).
[[nodiscard]] ScenarioRunResult run(EngineConfig config);

}  // namespace pardsm::mcs
