// S4 — exact consistency checking cost vs history size.
//
// The serialization search is the tool that validates every protocol in
// this repository; this bench characterizes how far it scales and how
// much the forced-edge propagation prunes.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "history/checkers.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"

namespace {

using namespace pardsm;
using namespace pardsm::hist;
namespace bu = pardsm::benchutil;

History recorded_history(std::size_t ops_per_process, std::uint64_t seed) {
  const auto dist = graph::topo::random_replication(4, 3, 2, seed);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = ops_per_process;
  spec.read_fraction = 0.5;
  spec.seed = seed;
  const auto scripts = mcs::make_random_scripts(dist, spec);
  return mcs::run({.protocol = mcs::ProtocolKind::kCausalPartialNaive,
                   .distribution = &dist,
                   .scripts = &scripts})
      .history;
}

void print_table(bu::Harness& harness) {
  bu::banner("S4: exact checker cost vs history size (causal criterion)");
  bu::row({"ops/proc", "|O_H|", "verdict", "check-ms"});
  for (std::size_t ops : {4u, 8u, 12u, 16u, 20u}) {
    const auto h = recorded_history(ops, 3);
    CheckResult result;
    const double ms =
        bu::time_ms([&] { result = check_history(h, Criterion::kCausal); });
    bu::row({bu::num(static_cast<std::uint64_t>(ops)),
             bu::num(static_cast<std::uint64_t>(h.size())),
             result.consistent ? "consistent" : "violated",
             bu::num(ms, 2)});
    harness.record(
        {.label = "causal-ops" + std::to_string(ops),
         .protocol = "causal-partial-naive",
         .distribution = "random-r2-4p3v",
         .ops = h.size(),
         .wall_ns = static_cast<std::uint64_t>(ms * 1e6),
         .extra = {{"check_ms", ms},
                   {"consistent", result.consistent ? 1.0 : 0.0}}});
  }
  std::cout << "(forced-edge propagation keeps protocol-generated histories "
               "near-linear; adversarial instances can still explode — the "
               "checker then reports unknown rather than guessing)\n";
}

void BM_CheckCriterion(benchmark::State& state, Criterion c) {
  const auto h = recorded_history(8, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_history(h, c));
  }
}
BENCHMARK_CAPTURE(BM_CheckCriterion, causal, Criterion::kCausal);
BENCHMARK_CAPTURE(BM_CheckCriterion, lazy_causal, Criterion::kLazyCausal);
BENCHMARK_CAPTURE(BM_CheckCriterion, lazy_semi, Criterion::kLazySemiCausal);
BENCHMARK_CAPTURE(BM_CheckCriterion, pram, Criterion::kPram);
BENCHMARK_CAPTURE(BM_CheckCriterion, slow, Criterion::kSlow);
BENCHMARK_CAPTURE(BM_CheckCriterion, sequential, Criterion::kSequential);

void BM_CheckVsOps(benchmark::State& state) {
  const auto h = recorded_history(static_cast<std::size_t>(state.range(0)),
                                  7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_history(h, Criterion::kPram));
  }
  state.SetComplexityN(static_cast<std::int64_t>(h.size()));
}
BENCHMARK(BM_CheckVsOps)->DenseRange(4, 20, 4)->Complexity();

void BM_OrderConstruction(benchmark::State& state) {
  const auto h = recorded_history(16, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(causality_order(h));
    benchmark::DoNotOptimize(lazy_semi_causal_order(h));
  }
}
BENCHMARK(BM_OrderConstruction);

}  // namespace

int main(int argc, char** argv) {
  bu::Harness h(&argc, argv, "checkers_scaling");
  print_table(h);
  if (!h.quick()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return h.write_json();
}
