// Differential verification of the parallel engine against the sequential
// golden mode, across all nine protocols × three topologies × thread
// counts {1, 2, 4, 8} × two seeds.
//
// Three layers of assertion per cell:
//
//   * Sequential agreement — with a single-writer workload the final
//     replica state is a pure function of the scripts (the P6 argument),
//     so the parallel run must end in exactly the sequential run's
//     replica state, value and provenance alike, even though the two
//     engines draw channel latency from different RNG stream designs.
//   * Internal soundness — message/byte conservation at quiescence (a
//     lossless run delivers everything it sends) and the property net
//     (P1 weakest-criterion consistency, P2 exposure bounds, P4 exact
//     provenance) on the parallel run's own history.
//   * Thread-count independence — every thread count must produce the
//     byte-identical history, traffic ledger, exposure sets, event count
//     and finish time as the 1-thread parallel run.  The canonical event
//     order and counter-based RNG streams make the run a function of the
//     seed, not of the schedule; this is the assertion that catches any
//     leak of physical scheduling into logical results.
//
// ParallelTieRule pins where the two roots may part: events at equal
// times, which each root orders by its own documented rule.

#include <gtest/gtest.h>

#include "history/checkers.h"
#include "mcs/driver.h"
#include "sharegraph/hoops.h"
#include "sharegraph/sharding.h"
#include "sharegraph/topologies.h"

namespace pardsm::mcs {
namespace {

using graph::Distribution;
using hist::Criterion;

enum class PTopo { kSharded, kHierarchical, kOpenChain };

Distribution make_topo(PTopo t) {
  switch (t) {
    case PTopo::kSharded:
      return graph::topo::sharded(3, 3, 6);  // 9 processes, 3 cells
    case PTopo::kHierarchical:
      return graph::topo::hierarchical(2, 3);  // 7 processes
    case PTopo::kOpenChain:
      return graph::topo::open_chain(6);  // connected: hash sharding
  }
  return graph::topo::open_chain(6);
}

const char* topo_name(PTopo t) {
  switch (t) {
    case PTopo::kSharded:
      return "sharded";
    case PTopo::kHierarchical:
      return "hierarchical";
    case PTopo::kOpenChain:
      return "openchain";
  }
  return "?";
}

Criterion weakest_criterion(ProtocolKind kind) {
  switch (guarantee_of(kind)) {
    case GuaranteeLevel::kAtomic:
    case GuaranteeLevel::kSequential:
      return Criterion::kSequential;
    case GuaranteeLevel::kCausal:
      return Criterion::kCausal;
    case GuaranteeLevel::kProcessor:
    case GuaranteeLevel::kPram:
      return Criterion::kPram;
    case GuaranteeLevel::kCache:
      return Criterion::kCache;
    case GuaranteeLevel::kSlow:
      return Criterion::kSlow;
  }
  return Criterion::kSlow;
}

bool clique_confined(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kPramPartial:
    case ProtocolKind::kSlowPartial:
    case ProtocolKind::kCachePartial:
    case ProtocolKind::kProcessorPartial:
    case ProtocolKind::kAtomicHome:
      return true;
    default:
      return false;
  }
}

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

class ParallelDifferential
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, PTopo, int>> {};

TEST_P(ParallelDifferential, AgreesWithSequentialAtEveryThreadCount) {
  const auto [kind, topo, seed] = GetParam();
  const auto dist = make_topo(topo);

  WorkloadSpec spec;
  spec.ops_per_process = 3;
  spec.read_fraction = 0.4;
  spec.seed = static_cast<std::uint64_t>(seed) * 613 + 29;
  spec.think_time = millis(1);
  const auto scripts = make_single_writer_scripts(dist, spec);

  // One run of the case on `runtime` with `threads` parallel workers.
  const auto run_on = [&](EngineRuntime runtime, unsigned threads) {
    return run(
        {.protocol = kind,
         .distribution = &dist,
         .scripts = &scripts,
         .runtime = runtime,
         .sim_seed = static_cast<std::uint64_t>(seed),
         .latency = std::make_unique<UniformLatency>(millis(1), millis(5)),
         .parallel = {.num_threads = threads}});
  };

  const RunResult baseline = run_on(EngineRuntime::kSimulator, 1);

  std::optional<RunResult> one_thread;
  for (const unsigned threads : kThreadCounts) {
    SCOPED_TRACE(std::string(to_string(kind)) + " on " + topo_name(topo) +
                 " seed " + std::to_string(seed) + " threads " +
                 std::to_string(threads));
    const RunResult par = run_on(EngineRuntime::kParallelSim, threads);

    // -- sequential agreement: final replica state, value and provenance.
    ASSERT_EQ(par.final_replicas.size(), baseline.final_replicas.size());
    for (std::size_t p = 0; p < baseline.final_replicas.size(); ++p) {
      EXPECT_EQ(par.final_replicas[p], baseline.final_replicas[p])
          << "replica state of process " << p
          << " diverged from the sequential engine";
    }

    // -- conservation: a lossless quiesced run delivers all it sends.
    EXPECT_EQ(par.total_traffic.msgs_received, par.total_traffic.msgs_sent);
    EXPECT_EQ(par.total_traffic.control_bytes_received,
              par.total_traffic.control_bytes_sent);
    EXPECT_EQ(par.total_traffic.payload_bytes_received,
              par.total_traffic.payload_bytes_sent);

    // -- property net on the parallel run's own history.
    const auto check =
        hist::check_history(par.history, weakest_criterion(kind));
    EXPECT_TRUE(check.definitive);
    EXPECT_TRUE(check.consistent) << par.history.to_string();
    EXPECT_TRUE(par.history.read_from_resolvable());
    const graph::ShareGraph sg(dist);
    for (std::size_t x = 0; x < dist.var_count; ++x) {
      const auto xv = static_cast<VarId>(x);
      std::set<ProcessId> bound;
      if (clique_confined(kind)) {
        const auto clique = sg.clique(xv);
        bound.insert(clique.begin(), clique.end());
      } else if (kind == ProtocolKind::kCausalPartialAdHoc) {
        bound = graph::x_relevant(sg, xv);
      } else {
        continue;
      }
      for (ProcessId p : par.observed_relevant[x]) {
        EXPECT_TRUE(bound.count(p))
            << "x" << x << " metadata reached p" << p;
      }
    }

    // -- thread-count independence: byte-identical observables vs 1T.
    if (!one_thread) {
      one_thread = par;
      continue;
    }
    EXPECT_EQ(par.history.to_string(), one_thread->history.to_string());
    EXPECT_EQ(par.total_traffic.msgs_sent,
              one_thread->total_traffic.msgs_sent);
    EXPECT_EQ(par.total_traffic.control_bytes_sent,
              one_thread->total_traffic.control_bytes_sent);
    EXPECT_EQ(par.total_traffic.payload_bytes_sent,
              one_thread->total_traffic.payload_bytes_sent);
    EXPECT_EQ(par.observed_relevant, one_thread->observed_relevant);
    EXPECT_EQ(par.events, one_thread->events);
    EXPECT_EQ(par.finished_at, one_thread->finished_at);
    EXPECT_EQ(par.active_channel_pairs, one_thread->active_channel_pairs);
    for (std::size_t p = 0; p < par.per_process_traffic.size(); ++p) {
      EXPECT_EQ(par.per_process_traffic[p].msgs_sent,
                one_thread->per_process_traffic[p].msgs_sent)
          << "process " << p;
      EXPECT_EQ(par.per_process_traffic[p].msgs_received,
                one_thread->per_process_traffic[p].msgs_received)
          << "process " << p;
    }
  }
}

std::string differential_name(
    const ::testing::TestParamInfo<std::tuple<ProtocolKind, PTopo, int>>&
        info) {
  std::string s = to_string(std::get<0>(info.param));
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s + "_" + topo_name(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ParallelDifferential,
    ::testing::Combine(::testing::ValuesIn(all_protocols()),
                       ::testing::Values(PTopo::kSharded,
                                         PTopo::kHierarchical,
                                         PTopo::kOpenChain),
                       ::testing::Values(1, 2)),
    differential_name);

// The share-graph shard assignment itself: disconnected cells must map
// whole-cell to one shard; connected topologies round-robin.
TEST(ShardAssignment, CellsStayTogether) {
  const auto dist = graph::topo::sharded(4, 3, 8);  // 4 cells, 12 processes
  const auto shard = graph::shard_assignment(dist, 2);
  const graph::ShareGraph sg(dist);
  for (const auto& component : sg.components()) {
    for (ProcessId p : component) {
      EXPECT_EQ(shard[static_cast<std::size_t>(p)],
                shard[static_cast<std::size_t>(component.front())])
          << "cell split across shards at p" << p;
    }
  }
}

TEST(ShardAssignment, ConnectedTopologyRoundRobins) {
  const auto dist = graph::topo::open_chain(6);
  const auto shard = graph::shard_assignment(dist, 4);
  for (std::size_t p = 0; p < 6; ++p) {
    EXPECT_EQ(shard[p], static_cast<int>(p % 4));
  }
}

// The equal-time tie rule, pinned on sim-adhoc-lossy's shape (ad-hoc
// causal, 8 processes, 32 variables, r = 3, read-50 uniform, open loop at
// 1000 op/s per process) without its loss, under constant 1 ms latency,
// so every arrival and every delivery sits on a 1 ms grid.  At equal
// times the sequential root runs events in insertion order; the parallel
// root runs deliveries, then timers, then closures (docs/PARALLEL.md).  A
// client schedules its next arrival before it issues the current op, so
// on the sequential root the arrival 1 ms later runs before the batching
// flush timer armed by that op's send, and joins the frame; on the
// parallel root the flush timer runs first.
ScenarioRunResult adhoc_batched(EngineRuntime runtime, Duration window) {
  const auto dist = graph::topo::random_replication(8, 32, 3, 7);
  workload::Spec spec;
  spec.ops_per_process = 200;
  spec.read_fraction = 0.5;
  spec.keys = workload::KeyDist::kUniform;
  spec.arrival_rate = 1000.0;
  spec.seed = 11;
  return run({.protocol = ProtocolKind::kCausalPartialAdHoc,
              .distribution = &dist,
              .workload = &spec,
              .record_history = false,
              .runtime = runtime,
              .sim_seed = 5,
              .parallel = {.num_threads = 1},
              .batching = {.window = window}});
}

TEST(ParallelTieRule, WindowOffTheArrivalGridBatchesAlikeOnBothRoots) {
  const auto seq = adhoc_batched(EngineRuntime::kSimulator, micros(1500));
  const auto par = adhoc_batched(EngineRuntime::kParallelSim, micros(1500));
  EXPECT_GT(seq.batching.frames_sent, 0u);
  EXPECT_EQ(par.total_traffic.msgs_sent, seq.total_traffic.msgs_sent);
  EXPECT_EQ(par.batching.frames_sent, seq.batching.frames_sent);
  EXPECT_EQ(par.batching.singleton_flushes, seq.batching.singleton_flushes);
}

TEST(ParallelTieRule, WindowOnTheArrivalGridCoalescesOnlyOnTheSequentialRoot) {
  const auto unbatched = adhoc_batched(EngineRuntime::kSimulator, Duration{});
  const auto seq = adhoc_batched(EngineRuntime::kSimulator, millis(1));
  const auto par = adhoc_batched(EngineRuntime::kParallelSim, millis(1));
  // Sequential: the next arrival wins the tie with the flush timer.
  EXPECT_GT(seq.batching.frames_sent, 0u);
  EXPECT_LT(seq.total_traffic.msgs_sent, unbatched.total_traffic.msgs_sent);
  // Parallel: the timer wins, every queue flushes one message, and the
  // window saves nothing at all.
  EXPECT_EQ(par.batching.frames_sent, 0u);
  EXPECT_EQ(par.batching.singleton_flushes, par.total_traffic.msgs_sent);
  EXPECT_EQ(par.total_traffic.msgs_sent, unbatched.total_traffic.msgs_sent);
}

}  // namespace
}  // namespace pardsm::mcs
