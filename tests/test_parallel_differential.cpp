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

#include <algorithm>
#include <cmath>

#include "history/checkers.h"
#include "mcs/driver.h"
#include "mcs/factory.h"
#include "mcs/recorder.h"
#include "sharegraph/hoops.h"
#include "sharegraph/sharding.h"
#include "sharegraph/topologies.h"
#include "simnet/latency.h"
#include "simnet/parallel_sim.h"

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
      return graph::topo::open_chain(6);  // connected: id blocks
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

// The share-graph shard assignment itself.  Laid out in ascending
// min-member order, the components fill the shards in contiguous runs: a
// cell no larger than a block stays whole, a larger one is cut at block
// boundaries, and the shards stay balanced to within one cell.
TEST(ShardAssignment, CellsStayTogether) {
  struct Case {
    graph::Distribution dist;
    int shards;
  };
  const Case cases[] = {
      {graph::topo::sharded(4, 3, 8), 2},    // 4 cells of 3
      {graph::topo::sharded(7, 3, 14), 4},   // 7 cells over 4 shards
      {graph::topo::sharded(2, 5, 4), 4},    // 2 cells, each cut in two
      {graph::topo::sharded(6, 2, 6), 4},    // cells of 2, blocks of 3
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.dist.name + " on " + std::to_string(c.shards));
    const std::size_t n = c.dist.process_count();
    const auto k = static_cast<std::size_t>(c.shards);
    const std::size_t block = (n + k - 1) / k;
    const auto shard = graph::shard_assignment(c.dist, c.shards);
    const auto components = graph::share_components(c.dist);
    ASSERT_GT(components.size(), 1u);
    std::vector<std::size_t> load(k, 0);
    std::size_t largest = 1;
    int previous = 0;
    for (const auto& component : components) {
      for (ProcessId p : component) {
        const int s = shard[static_cast<std::size_t>(p)];
        if (component.size() <= block) {
          EXPECT_EQ(s, shard[static_cast<std::size_t>(component.front())])
              << "cell split across shards at p" << p;
        }
        EXPECT_GE(s, previous) << "shard " << s << " holds no contiguous run";
        previous = s;
        ++load[static_cast<std::size_t>(s)];
      }
      if (component.size() <= block) {
        largest = std::max(largest, component.size());
      }
    }
    const double even = static_cast<double>(n) / static_cast<double>(k);
    for (std::size_t l : load) {
      EXPECT_LE(std::abs(static_cast<double>(l) - even),
                static_cast<double>(largest))
          << "unbalanced shard load " << l;
    }
  }
}

// A connected share graph is cut into contiguous id blocks whose sizes
// differ by at most one: block_shard's rule, the simulator's default too.
TEST(ShardAssignment, ConnectedTopologyCutsContiguousBlocks) {
  for (const std::size_t n : {6u, 7u, 13u, 64u}) {
    const auto dist = graph::topo::open_chain(n);
    for (const int k : {2, 3, 4}) {
      SCOPED_TRACE("n " + std::to_string(n) + " k " + std::to_string(k));
      const auto shard = graph::shard_assignment(dist, k);
      ASSERT_EQ(shard.size(), n);
      std::vector<std::size_t> size(static_cast<std::size_t>(k), 0);
      for (std::size_t p = 0; p < n; ++p) {
        EXPECT_EQ(shard[p], block_shard(p, n, k));
        if (p > 0) {
          EXPECT_TRUE(shard[p] == shard[p - 1] ||
                      shard[p] == shard[p - 1] + 1)
              << "blocks not contiguous at p" << p;
        }
        ++size[static_cast<std::size_t>(shard[p])];
      }
      const auto [lo, hi] = std::minmax_element(size.begin(), size.end());
      EXPECT_LE(*hi - *lo, 1u);
      EXPECT_GE(*lo, 1u);
    }
  }
}

// The union-find components equal the share graph's own, on the
// topologies the benches run and on inputs with isolated processes.
TEST(ShardAssignment, ComponentsMatchShareGraph) {
  graph::Distribution isolated;
  isolated.var_count = 3;
  isolated.per_process = {{2}, {}, {0, 2}, {1}, {}, {1, 1}};
  const graph::Distribution inputs[] = {
      graph::topo::random_replication(64, 48, 3, 5),
      graph::topo::random_replication(40, 10, 2, 9),  // may split
      graph::topo::zipf_replication(48, 16, 2, 1.2, 3),
      graph::topo::sharded(5, 4, 10),
      graph::topo::hierarchical(3, 3),
      graph::topo::clusters(4, 3, false),
      isolated,
  };
  for (const graph::Distribution& dist : inputs) {
    SCOPED_TRACE(dist.name);
    EXPECT_EQ(graph::share_components(dist),
              graph::ShareGraph(dist).components());
  }
}

// Which shard runs a process never changes what the run computes: the
// canonical (when, key) order fixes every process's event order.  One
// system on four assignments of the same 4-thread root, with loss and
// duplication so drops count too.
struct AssignmentRun {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t loss = 0;
  std::uint64_t received = 0;
  std::vector<std::vector<Value>> replicas;

  friend bool operator==(const AssignmentRun&,
                         const AssignmentRun&) = default;
};

AssignmentRun run_with_assignment(ProtocolKind kind,
                                  const graph::Distribution& dist,
                                  std::vector<int> shard_of) {
  ParallelSimOptions options;
  options.seed = 41;
  options.channel.drop_probability = 0.05;
  options.channel.duplicate_probability = 0.05;
  options.latency = std::make_unique<UniformLatency>(millis(1), millis(4));
  options.num_threads = 4;
  options.shard_of = std::move(shard_of);
  ParallelSimulator sim(std::move(options));
  sim.stats().set_var_hint(dist.var_count);
  HistoryRecorder recorder(dist.process_count(), dist.var_count);
  recorder.use_canonical_order();
  auto processes = make_processes(kind, dist, recorder);
  for (auto& proc : processes) {
    sim.add_endpoint(proc.get());
    proc->attach(sim);
  }
  sim.freeze();
  // Every process writes each variable it holds, on a staggered cadence,
  // and reads it back; writes here complete locally.
  for (auto& proc : processes) {
    McsProcess* self = proc.get();
    const auto& held = dist.per_process[static_cast<std::size_t>(self->id())];
    for (std::size_t i = 0; i < 4 * held.size(); ++i) {
      const VarId x = held[i % held.size()];
      const Value v = static_cast<Value>(self->id()) * 1000 +
                      static_cast<Value>(i);
      sim.schedule_at(TimePoint{static_cast<std::int64_t>(
                          700 * i + 130 * self->id())},
                      self->id(), [self, x, v] {
                        self->write(x, v, [] {});
                        self->read(x, [](Value) {});
                      });
    }
  }
  sim.run();

  AssignmentRun out;
  const ProcessTraffic total = sim.stats().total();
  out.msgs = total.msgs_sent;
  out.bytes = total.control_bytes_sent + total.payload_bytes_sent;
  out.events = sim.events_fired();
  out.loss = sim.drop_counters().loss;
  out.received = total.msgs_received;
  for (const auto& proc : processes) {
    std::vector<Value>& mine = out.replicas.emplace_back();
    for (VarId x : proc->store().vars()) {
      mine.push_back(proc->store().get(x).value);
    }
  }
  return out;
}

TEST(ShardAssignment, NeverChangesResults) {
  const auto dist = graph::topo::random_replication(12, 16, 3, 4);
  const std::size_t n = dist.process_count();
  std::vector<int> blocks(n), round_robin(n), reversed(n), one_shard(n, 2);
  for (std::size_t p = 0; p < n; ++p) {
    blocks[p] = block_shard(p, n, 4);
    round_robin[p] = static_cast<int>(p % 4);
    reversed[p] = 3 - blocks[p];
  }
  for (const ProtocolKind kind :
       {ProtocolKind::kPramPartial, ProtocolKind::kCausalPartialAdHoc}) {
    SCOPED_TRACE(to_string(kind));
    const AssignmentRun want = run_with_assignment(kind, dist, blocks);
    EXPECT_GT(want.loss, 0u);
    EXPECT_GT(want.msgs, 0u);
    for (const auto& shard_of : {round_robin, reversed, one_shard}) {
      EXPECT_EQ(run_with_assignment(kind, dist, shard_of), want);
    }
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
