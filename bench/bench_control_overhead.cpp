// S1 — the §3.3 scalability argument, quantified.
//
// Control-information cost per application write as the system grows, for
// every protocol, with the analytic prediction (core::predict) printed
// next to the measurement.  Expected shape:
//
//   causal-full / causal-partial-naive : grows linearly in n (vector
//                                        clocks to everyone)
//   causal-partial-adhoc               : grows with hoop structure only
//   pram-partial / slow-partial        : flat (O(1) per update, C(x) only)
//   sequencer-sc                       : flat per write but centralised
//   atomic-home                        : flat, but reads are RPCs

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/analysis.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"

namespace {

using namespace pardsm;
using namespace pardsm::mcs;
namespace bu = pardsm::benchutil;

std::vector<Script> write_heavy_scripts(const graph::Distribution& dist,
                                        std::size_t ops,
                                        std::uint64_t seed) {
  WorkloadSpec spec;
  spec.ops_per_process = ops;
  spec.read_fraction = 0.25;
  spec.seed = seed;
  return make_random_scripts(dist, spec);
}

void sweep(bu::Harness& h, const std::string& label,
           const std::function<graph::Distribution(std::size_t)>& topo) {
  bu::banner("S1 control overhead on " + label);
  bu::row({"protocol", "n", "msgs/write", "ctrl-B/write", "predicted",
           "outside-C/wr"});
  for (auto kind : all_protocols()) {
    for (std::size_t n : {4u, 8u, 16u, 32u}) {
      const auto dist = topo(n);
      const auto scripts = write_heavy_scripts(dist, 6, n);
      std::size_t writes = 0;
      for (const auto& s : scripts) {
        for (const auto& op : s) {
          if (op.kind == ScriptOp::Kind::kWrite) ++writes;
        }
      }
      if (writes == 0) continue;
      const auto run = mcs::run(
          {.protocol = kind, .distribution = &dist, .scripts = &scripts});
      // wall_ns times a second, warm run of the identical (deterministic)
      // workload so the row measures the engine, not cold-start noise.
      const std::uint64_t wall_ns = bu::time_ns([&] {
        (void)mcs::run(
            {.protocol = kind, .distribution = &dist, .scripts = &scripts});
      });
      const auto model = core::predict(kind, dist);
      bu::row({to_string(kind), bu::num(static_cast<std::uint64_t>(n)),
               bu::num(static_cast<double>(run.total_traffic.msgs_sent) /
                           static_cast<double>(writes),
                       2),
               bu::num(static_cast<double>(
                           run.total_traffic.control_bytes_sent) /
                           static_cast<double>(writes),
                       1),
               bu::num(model.control_bytes_per_write, 1),
               bu::num(model.recipients_outside_clique, 2)});
      h.record(
          {.label = label + "-n" + std::to_string(n),
           .protocol = to_string(kind),
           .distribution = dist.name,
           .ops = run.history.size(),
           .messages = run.total_traffic.msgs_sent,
           .bytes = run.total_traffic.wire_bytes_sent(),
           .sim_time_ms = static_cast<double>(run.finished_at.us) / 1000.0,
           .wall_ns = wall_ns,
           .extra = {{"writes", static_cast<double>(writes)},
                     {"msgs_per_write",
                      static_cast<double>(run.total_traffic.msgs_sent) /
                          static_cast<double>(writes)},
                     {"ctrl_bytes_per_write",
                      static_cast<double>(
                          run.total_traffic.control_bytes_sent) /
                          static_cast<double>(writes)},
                     {"predicted_ctrl_bytes_per_write",
                      model.control_bytes_per_write}}});
    }
  }
  std::cout << "(prediction assumes uniform write load; sequencer/atomic "
               "rows also pay per-read costs not shown here)\n";
}

void BM_ControlSweep(benchmark::State& state, ProtocolKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dist = graph::topo::random_replication(n, 2 * n, 3, 11);
  const auto scripts = write_heavy_scripts(dist, 5, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mcs::run(
        {.protocol = kind, .distribution = &dist, .scripts = &scripts}));
  }
}
BENCHMARK_CAPTURE(BM_ControlSweep, pram, ProtocolKind::kPramPartial)
    ->Range(4, 32);
BENCHMARK_CAPTURE(BM_ControlSweep, causal_naive,
                  ProtocolKind::kCausalPartialNaive)
    ->Range(4, 32);
BENCHMARK_CAPTURE(BM_ControlSweep, causal_full, ProtocolKind::kCausalFull)
    ->Range(4, 32);
BENCHMARK_CAPTURE(BM_ControlSweep, adhoc, ProtocolKind::kCausalPartialAdHoc)
    ->Range(4, 32);

void BM_PredictModel(benchmark::State& state) {
  const auto dist = graph::topo::random_replication(24, 48, 3, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::predict(ProtocolKind::kCausalPartialAdHoc, dist));
  }
}
BENCHMARK(BM_PredictModel);

}  // namespace

int main(int argc, char** argv) {
  bu::Harness h(&argc, argv, "control_overhead");
  sweep(h, "rings", [](std::size_t n) { return graph::topo::ring(n); });
  sweep(h, "random-r3", [](std::size_t n) {
    return graph::topo::random_replication(n, 2 * n, std::min<std::size_t>(3, n),
                                           17);
  });
  sweep(h, "open-chain", [](std::size_t n) {
    return graph::topo::open_chain(n);
  });
  if (!h.quick()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return h.write_json();
}
