// S3 — scale past paper-size systems: protocols × large-n topologies.
//
// The paper's figures stop at a handful of processes; its efficiency
// claim — message and metadata cost track *which* processes share a
// variable, not how many processes exist — only becomes measurable when
// n is large enough for O(n) and O(|C(x)|) to diverge by orders of
// magnitude.  This sweep runs every protocol over four large-n shapes
// (the hoop-free open chain, datacenter sharding, a hierarchical tree of
// cells, and Zipf-skewed replication) at n ∈ {64, 256, 1024, 4096} and
// reports, besides the usual message/byte/exposure counters:
//
//   active_pairs  directed pairs that carried traffic — the sparse
//                 network's channel state is O(this), not O(n²)
//   net_state_kb  bytes the per-pair tables actually hold
//   max_rss_kb    process peak RSS at row completion (high-water: rows
//                 run in ascending n order, so the first row of each n
//                 bounds that configuration's footprint)
//
// Expected shape: for the efficient protocols (pram/slow/cache/
// processor/atomic-home) messages grow with Σ|C(x)|, active pairs stay
// near the share-graph edge count, and RSS grows roughly linearly in n.
// The inefficient protocols hit walls the sweep itself documents:
// causal-full and causal-partial-naive (O(n) fan-out per write, O(n·m)
// replica/clock state) are swept through n = 1024 and excluded at 4096;
// causal-partial-adhoc is excluded exactly where Theorem 1 predicts —
// on the hoop-rich zipf shape past n = 256 its R(x)-routed dependency
// metadata goes super-linear (minutes per run), and it stays out at
// 4096 everywhere (its static relevance analysis is linear per variable;
// what the 4096 cut-off prices is unmeasured).  Those exclusions *are*
// the paper's point, priced in RAM, messages and wall-clock.
//
// --quick caps the sweep at n = 256 (CI budget); the full run adds
// n = 1024 and 4096.
//
// --threads N runs the sweep on the sharded parallel engine instead of
// the sequential simulator: every cell executes once at 1 worker thread
// and once at N, and the row gains a speedup_vs_1t column (extra keys
// `threads` / `speedup_vs_1t`; the document schema stays
// pardsm-bench-v3).  Meaningful speedups need real cores — on a
// single-core host the column reads ~1.0 and mostly prices the barrier
// overhead (docs/PARALLEL.md records both regimes).

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"

namespace {

using namespace pardsm;
using namespace pardsm::mcs;
namespace bu = pardsm::benchutil;

/// Total application operations per cell, split evenly over processes:
/// keeps big-n cells tractable while small-n cells stay statistically
/// interesting.
constexpr std::uint64_t kOpsBudget = 2048;

/// The four large-n shapes at a target size.  hierarchical() sizes are
/// the nearest complete 4-ary tree (85/341/1365/5461 processes).
std::vector<graph::Distribution> topologies_at(std::size_t n) {
  const std::size_t depth = n <= 64 ? 4 : n <= 256 ? 5 : n <= 1024 ? 6 : 7;
  std::vector<graph::Distribution> out;
  out.push_back(graph::topo::open_chain(n));
  out.push_back(graph::topo::sharded(/*shards=*/n / 8,
                                     /*replicas_per_var=*/8, /*vars=*/n));
  out.push_back(graph::topo::hierarchical(/*branching=*/4, depth));
  out.push_back(graph::topo::zipf_replication(n, /*m=*/n, /*r=*/3,
                                              /*skew=*/1.1, /*seed=*/7));
  return out;
}

/// Where each protocol stops fitting a laptop-class budget (see the
/// header comment): the broadcast protocols past n = 1024, the ad-hoc
/// causal protocol past n = 256 on the hoop-rich zipf shape and past
/// n = 1024 everywhere (static relevance analysis cost).
bool feasible_at(ProtocolKind kind, std::size_t n,
                 const graph::Distribution& dist) {
  if (kind == ProtocolKind::kCausalFull ||
      kind == ProtocolKind::kCausalPartialNaive) {
    return n <= 1024;
  }
  if (kind == ProtocolKind::kCausalPartialAdHoc) {
    const bool hoop_rich = dist.name.rfind("zipf", 0) == 0;
    return hoop_rich ? n <= 256 : n <= 1024;
  }
  return true;
}

void sweep(bu::Harness& h, unsigned threads) {
  std::vector<std::size_t> sizes = {64, 256};
  if (!h.quick()) {
    sizes.push_back(1024);
    sizes.push_back(4096);
  }

  {
    std::ostringstream title;
    title << "S3 scale sweep (ops budget " << kOpsBudget << ", n ascending";
    if (threads > 0) title << ", parallel engine, " << threads << " threads";
    title << ")";
    bu::banner(title.str());
  }
  std::vector<std::string> header = {"distribution", "protocol", "n",
                                     "msgs",         "bytes",    "pairs",
                                     "netKB",        "rssMB",    "ms"};
  if (threads > 0) header.push_back("x1t");
  bu::row(header);

  for (const std::size_t n : sizes) {
    for (const auto& dist : topologies_at(n)) {
      WorkloadSpec spec;
      spec.ops_per_process =
          std::max<std::size_t>(1, kOpsBudget / dist.process_count());
      spec.read_fraction = 0.5;
      spec.seed = 42;
      const auto scripts = make_random_scripts(dist, spec);

      // Built via append: GCC 12's -Wrestrict false-fires on the
      // char* + std::string&& operator at -O2.
      std::string label = "n";
      label += bu::num(std::uint64_t{n});

      for (auto kind : all_protocols()) {
        if (!feasible_at(kind, n, dist)) continue;
        // Threads mode: time the same cell at 1 worker first so the row
        // can carry its own parallel speedup.
        std::uint64_t wall_1t_ns = 0;
        if (threads > 0) {
          bu::WallTimer t1;
          const auto r1 =
              mcs::run({.protocol = kind,
                        .distribution = &dist,
                        .scripts = &scripts,
                        .runtime = EngineRuntime::kParallelSim,
                        .parallel = {.num_threads = 1}});
          wall_1t_ns = t1.ns();
          benchmark::DoNotOptimize(&r1);
        }
        bu::WallTimer timer;
        const auto r = mcs::run(
            {.protocol = kind,
             .distribution = &dist,
             .scripts = &scripts,
             .runtime = threads > 0 ? EngineRuntime::kParallelSim
                                    : EngineRuntime::kSimulator,
             .parallel = {.num_threads = threads}});
        const std::uint64_t wall_ns = timer.ns();
        const std::uint64_t rss_kb = bu::max_rss_kb();
        const double speedup_vs_1t =
            threads > 0 && wall_ns > 0
                ? static_cast<double>(wall_1t_ns) /
                      static_cast<double>(wall_ns)
                : 0.0;

        const auto pairs = static_cast<double>(r.active_channel_pairs);
        const double net_kb =
            static_cast<double>(r.channel_state_bytes) / 1024.0;
        std::vector<std::string> cells = {
            dist.name, to_string(kind), bu::num(std::uint64_t{n}),
            bu::num(r.total_traffic.msgs_sent),
            bu::num(r.total_traffic.wire_bytes_sent()),
            bu::num(r.active_channel_pairs), bu::num(net_kb, 1),
            bu::num(static_cast<double>(rss_kb) / 1024.0, 1),
            bu::num(static_cast<double>(wall_ns) / 1e6, 1)};
        if (threads > 0) cells.push_back(bu::num(speedup_vs_1t, 2));
        bu::row(cells);
        std::vector<std::pair<std::string, double>> extra = {
            {"n", static_cast<double>(n)},
            {"processes", static_cast<double>(dist.process_count())},
            {"vars", static_cast<double>(dist.var_count)},
            {"active_pairs", pairs},
            {"net_state_kb", net_kb},
            {"pair_fraction_of_n2",
             pairs / (static_cast<double>(dist.process_count()) *
                      static_cast<double>(dist.process_count()))},
            {"events", static_cast<double>(r.events)},
        };
        if (threads > 0) {
          extra.emplace_back("threads", static_cast<double>(threads));
          extra.emplace_back("speedup_vs_1t", speedup_vs_1t);
        }
        h.record(
            {.label = label,
             .protocol = to_string(kind),
             .distribution = dist.name,
             .ops = r.history.size(),
             .messages = r.total_traffic.msgs_sent,
             .bytes = r.total_traffic.wire_bytes_sent(),
             .sim_time_ms = static_cast<double>(r.finished_at.us) / 1000.0,
             .wall_ns = wall_ns,
             .max_rss_kb = rss_kb,
             .extra = std::move(extra)});
      }
    }
  }
  std::cout << "(active pairs / netKB are the sparse Network's channel "
               "state — O(active pairs), not O(n^2); rssMB is the process "
               "high-water, rows run in ascending n)\n";
}

void BM_Scale(benchmark::State& state, ProtocolKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dist = graph::topo::sharded(n / 8, 8, n);
  WorkloadSpec spec;
  spec.ops_per_process = std::max<std::size_t>(1, kOpsBudget / n);
  spec.seed = 42;
  const auto scripts = make_random_scripts(dist, spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mcs::run(
        {.protocol = kind, .distribution = &dist, .scripts = &scripts}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * spec.ops_per_process));
}
BENCHMARK_CAPTURE(BM_Scale, pram_sharded, ProtocolKind::kPramPartial)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_Scale, atomic_sharded, ProtocolKind::kAtomicHome)
    ->Arg(64)
    ->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  bu::Harness h(&argc, argv, "scale");
  // Bench-specific flag, stripped before benchmark::Initialize:
  // --threads N (or --threads=N) switches the sweep to the parallel
  // engine with N worker threads; 0 (the default) keeps the sequential
  // simulator and the historical rows.
  unsigned threads = 0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<unsigned>(std::stoul(arg.substr(10)));
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argv[kept] = nullptr;
  argc = kept;

  sweep(h, threads);
  if (!h.quick() && threads == 0) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return h.write_json();
}
