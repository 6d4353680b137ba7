// E1 — Figure 1: share graph construction.
//
// Prints the Figure 1 share graph (cliques, edges, labels) exactly as the
// paper describes it, then times share-graph construction across topology
// sizes.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sharegraph/share_graph.h"
#include "sharegraph/topologies.h"

namespace {

using namespace pardsm;
using namespace pardsm::graph;

void print_fig1(benchutil::Harness& h) {
  benchutil::banner("Figure 1: share graph of X_i={x1,x2}, X_j={x1}, X_k={x2}");
  const ShareGraph sg(topo::fig1());
  std::cout << sg.to_dot();
  benchutil::row({"clique", "members"});
  for (VarId x = 0; x < 2; ++x) {
    std::string members;
    for (ProcessId p : sg.clique(x)) {
      members += 'p';
      members += std::to_string(p);
      members += ' ';
    }
    benchutil::row({"C(x" + std::to_string(x + 1) + ")", members});
  }
  std::cout << "edges: " << sg.edge_count()
            << " (paper: (i,j) labelled x1; (i,k) labelled x2)\n";
  h.record({.label = "fig1",
            .distribution = "fig1",
            .extra = {{"edges", static_cast<double>(sg.edge_count())},
                      {"processes", static_cast<double>(sg.process_count())}}});

  // Construction cost across topology families (the same shapes the
  // google-benchmark section times, recorded once for the JSON trail).
  for (std::size_t n : {32u, 128u, 256u}) {
    const auto dist = topo::random_replication(n, 2 * n, 4, 7);
    double ms = 0;
    std::size_t edges = 0;
    ms = benchutil::time_ms([&] {
      const ShareGraph g(dist);
      edges = g.edge_count();
    });
    h.record({.label = "construct-random-" + std::to_string(n),
              .distribution = dist.name,
              .wall_ns = static_cast<std::uint64_t>(ms * 1e6),
              .extra = {{"edges", static_cast<double>(edges)},
                        {"wall_ms", ms}}});
  }
}

void BM_ShareGraphConstructRandom(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dist = topo::random_replication(n, 2 * n, 4, 7);
  for (auto _ : state) {
    ShareGraph sg(dist);
    benchmark::DoNotOptimize(sg.edge_count());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ShareGraphConstructRandom)->Range(8, 256)->Complexity();

void BM_ShareGraphConstructGrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dist = topo::grid(n, n);
  for (auto _ : state) {
    ShareGraph sg(dist);
    benchmark::DoNotOptimize(sg.edge_count());
  }
}
BENCHMARK(BM_ShareGraphConstructGrid)->Range(2, 16);

void BM_CliqueQuery(benchmark::State& state) {
  const ShareGraph sg(topo::random_replication(128, 256, 4, 7));
  VarId x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sg.clique(x));
    x = static_cast<VarId>((x + 1) % 256);
  }
}
BENCHMARK(BM_CliqueQuery);

void BM_LabelQuery(benchmark::State& state) {
  const ShareGraph sg(topo::random_replication(64, 128, 4, 7));
  ProcessId i = 0, j = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sg.label(i, j));
    i = static_cast<ProcessId>((i + 1) % 64);
    j = static_cast<ProcessId>((j + 3) % 64);
  }
}
BENCHMARK(BM_LabelQuery);

}  // namespace

int main(int argc, char** argv) {
  benchutil::Harness h(&argc, argv, "fig1_sharegraph");
  print_fig1(h);
  if (!h.quick()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return h.write_json();
}
