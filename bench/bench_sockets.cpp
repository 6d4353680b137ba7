// Real-loopback numbers beside simulated ones: the same workloads run on
// the deterministic simulator and on the sockets root (EngineRuntime::
// kSockets — real TCP frames over loopback, mailbox threads, wire
// serialization), so the table prices what the simulator abstracts away:
// frame encoding, kernel round trips, heartbeats and — in the chaos rows
// (10% channel loss, drawn per frame at the socket sender) — ARQ repair
// of frames genuinely never written.
//
// Model-level columns (messages, bytes, ops) are identical between the
// two runtimes by construction (same protocol, same scripts; conservation
// is asserted in tests/test_sockets.cpp); what differs is the wall clock
// and the wire ledger (socket frames/bytes include framing, HELLOs and
// heartbeats — SocketCounters, not NetworkStats).

#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"

namespace {

using namespace pardsm;
using namespace pardsm::mcs;
namespace bu = pardsm::benchutil;

constexpr std::size_t kProcs = 4;
constexpr std::size_t kOpsPerProc = 16;

struct Workload {
  graph::Distribution dist;
  std::vector<Script> scripts;
};

Workload make_workload() {
  Workload w;
  w.dist = graph::topo::complete(kProcs, kProcs);
  WorkloadSpec spec;
  spec.ops_per_process = kOpsPerProc;
  spec.seed = 17;
  w.scripts = mcs::make_single_writer_scripts(w.dist, spec);
  return w;
}

EngineConfig base_config(ProtocolKind kind, const Workload& w) {
  EngineConfig config;
  config.protocol = kind;
  config.distribution = &w.dist;
  config.scripts = &w.scripts;
  return config;
}

const ProtocolKind kProtocols[] = {ProtocolKind::kPramPartial,
                                   ProtocolKind::kCachePartial,
                                   ProtocolKind::kSequencerSC};

void sweep(bu::Harness& h) {
  const Workload w = make_workload();
  bu::banner("simulator vs loopback sockets (complete-" +
             bu::num(static_cast<std::uint64_t>(kProcs)) + ", " +
             bu::num(static_cast<std::uint64_t>(kProcs * kOpsPerProc)) +
             " ops)");
  bu::row({"row", "runtime", "msgs", "model_bytes", "frames", "wire_bytes",
           "heartbeats", "wall_ms"});

  for (const ProtocolKind kind : kProtocols) {
    // -- deterministic simulator reference -----------------------------------
    ScenarioRunResult sim_r;
    const std::uint64_t sim_ns =
        bu::time_ns([&] { sim_r = run(base_config(kind, w)); });
    bu::row({std::string("sim-") + to_string(kind), "simulator",
             bu::num(sim_r.total_traffic.msgs_sent),
             bu::num(sim_r.total_traffic.wire_bytes_sent()), "-", "-", "-",
             bu::num(static_cast<double>(sim_ns) / 1e6, 2)});
    h.record({.label = std::string("sim-") + to_string(kind),
              .protocol = to_string(kind),
              .distribution = w.dist.name,
              .ops = kProcs * kOpsPerProc,
              .messages = sim_r.total_traffic.msgs_sent,
              .bytes = sim_r.total_traffic.wire_bytes_sent(),
              .sim_time_ms = static_cast<double>(sim_r.finished_at.us) / 1e3,
              .wall_ns = sim_ns,
              .extra = {{"runtime_sockets", 0.0}}});

    // -- same workload on real loopback TCP ----------------------------------
    for (const double chaos_drop : {0.0, 0.1}) {
      EngineConfig config = base_config(kind, w);
      config.runtime = EngineRuntime::kSockets;
      config.channel.drop_probability = chaos_drop;
      ScenarioRunResult r;
      const std::uint64_t ns = bu::time_ns([&] { r = run(std::move(config)); });
      const std::string label =
          (chaos_drop > 0.0 ? "sockets-chaos10-" : "sockets-") +
          std::string(to_string(kind));
      bu::row({label, "sockets", bu::num(r.total_traffic.msgs_sent),
               bu::num(r.total_traffic.wire_bytes_sent()),
               bu::num(r.socket_counters.frames_sent),
               bu::num(r.socket_counters.bytes_sent),
               bu::num(r.socket_counters.heartbeats_sent),
               bu::num(static_cast<double>(ns) / 1e6, 2)});
      h.record(
          {.label = label,
           .protocol = to_string(kind),
           .distribution = w.dist.name,
           .ops = kProcs * kOpsPerProc,
           .messages = r.total_traffic.msgs_sent,
           .bytes = r.total_traffic.wire_bytes_sent(),
           .sim_time_ms = static_cast<double>(r.finished_at.us) / 1e3,
           .wall_ns = ns,
           .extra = {
               {"runtime_sockets", 1.0},
               {"chaos_drop", chaos_drop},
               {"frames_sent", static_cast<double>(r.socket_counters.frames_sent)},
               {"wire_bytes_sent",
                static_cast<double>(r.socket_counters.bytes_sent)},
               {"heartbeats_sent",
                static_cast<double>(r.socket_counters.heartbeats_sent)},
               {"loss_drops", static_cast<double>(r.drops.loss)},
               {"retransmissions", static_cast<double>(r.retransmissions)},
           }});
    }
  }
  std::cout << "(model columns match the simulator rows by construction; "
               "frames/wire_bytes are the real TCP ledger incl. framing, "
               "HELLOs and heartbeats)\n";
}

void BM_SimulatorRun(benchmark::State& state) {
  const Workload w = make_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(base_config(ProtocolKind::kPramPartial, w)));
  }
}
BENCHMARK(BM_SimulatorRun)->Unit(benchmark::kMillisecond);

void BM_SocketRun(benchmark::State& state) {
  const Workload w = make_workload();
  for (auto _ : state) {
    EngineConfig config = base_config(ProtocolKind::kPramPartial, w);
    config.runtime = EngineRuntime::kSockets;
    benchmark::DoNotOptimize(run(std::move(config)));
  }
}
BENCHMARK(BM_SocketRun)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bu::Harness h(&argc, argv, "sockets");
  sweep(h);
  if (!h.quick()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return h.write_json();
}
