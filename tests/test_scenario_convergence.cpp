// P6 — differential convergence: after quiescence and ARQ drain, a faulty
// run ends in exactly the replica state of the lossless run of the same
// workload.
//
// The workload is single-writer (each variable is written only by the
// lowest-id member of its clique), so the final content of every replica
// is a pure function of the scripts: the last write of each variable's
// unique writer, delivered in that writer's FIFO order.  Any update a
// fault destroyed and the recovery machinery (ARQ retransmission +
// crash re-sync) failed to repair shows up as a (value, provenance)
// mismatch against the lossless baseline — per protocol, per seed, per
// scenario family, per root.  The baseline always runs on the simulator;
// the faulty run goes to the root under test, where the scenario's
// timeline maps 1 simulated µs onto 1 µs of the root's clock.

#include <gtest/gtest.h>

#include "mcs/driver.h"
#include "scenario_families.h"
#include "sharegraph/topologies.h"
#include "simnet/scenario.h"

namespace pardsm::mcs {
namespace {

using golden::FaultFamily;
using golden::family_name;

/// The canonical family timelines with convergence's loss pairing: a high
/// pure-loss rate, milder background loss for the structural families.
Scenario make_scenario(FaultFamily f, Duration unit) {
  return golden::make_fault_scenario(f, f == FaultFamily::kLoss ? 0.1 : 0.02,
                                     unit);
}

using ConvergenceParam =
    std::tuple<ProtocolKind, FaultFamily, int, EngineRuntime>;

class Convergence : public ::testing::TestWithParam<ConvergenceParam> {};

TEST_P(Convergence, FaultyRunEndsInLosslessReplicaState) {
  const auto [kind, family, seed, runtime] = GetParam();
  const auto dist = graph::topo::clusters(2, 3, true);  // 6 processes

  // On a wall-clock root the fault windows and the ops meet on the OS
  // scheduler's clock, where thread start-up alone can stall a run for
  // tens of ms under a sanitizer: there the timeline and the think time
  // run 10x slower and the script is longer, so traffic crosses every
  // window however late the threads get going.
  const bool wall_clock = runtime == EngineRuntime::kThreads ||
                          runtime == EngineRuntime::kSockets;
  const Duration unit = wall_clock ? millis(10) : millis(1);

  WorkloadSpec spec;
  spec.ops_per_process = wall_clock ? 12 : 6;
  spec.read_fraction = 0.4;
  spec.seed = static_cast<std::uint64_t>(seed) * 977 + 11;
  spec.think_time = unit;  // ops overlap the fault windows
  const auto scripts = make_single_writer_scripts(dist, spec);

  const auto baseline = run({.protocol = kind,
                             .distribution = &dist,
                             .scripts = &scripts,
                             .sim_seed = static_cast<std::uint64_t>(seed)});

  const Scenario scenario = make_scenario(family, unit);
  const auto faulty = run({.protocol = kind,
                           .distribution = &dist,
                           .scripts = &scripts,
                           .scenario = &scenario,
                           .runtime = runtime,
                           .sim_seed = static_cast<std::uint64_t>(seed)});

  EXPECT_TRUE(faulty.used_reliable_transport);
  EXPECT_EQ(faulty.unfinished_clients, 0u);
  // Every message sent is delivered or counted under exactly one drop
  // cause (the families never duplicate, and no channel dies).
  EXPECT_EQ(faulty.total_traffic.msgs_sent,
            faulty.total_traffic.msgs_received + faulty.drops.total());
  // The family's fault really bit: every cell crosses a 10% loss or a
  // partition with traffic on both sides of it.
  if (family == FaultFamily::kLoss) {
    EXPECT_GT(faulty.drops.loss, 0u);
  }
  if (family == FaultFamily::kPartition) {
    EXPECT_GT(faulty.drops.severed, 0u);
  }
  ASSERT_EQ(faulty.final_replicas.size(), baseline.final_replicas.size());
  for (std::size_t p = 0; p < baseline.final_replicas.size(); ++p) {
    const auto& want = baseline.final_replicas[p];
    const auto& got = faulty.final_replicas[p];
    ASSERT_EQ(got.size(), want.size()) << "process " << p;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].x, want[i].x) << "process " << p;
      EXPECT_EQ(got[i].value, want[i].value)
          << to_string(kind) << "/" << family_name(family) << " seed "
          << seed << ": process " << p << " x" << want[i].x
          << " diverged (fault not repaired)";
      EXPECT_EQ(got[i].source, want[i].source)
          << to_string(kind) << "/" << family_name(family) << " seed "
          << seed << ": process " << p << " x" << want[i].x
          << " provenance diverged";
    }
  }
}

std::string convergence_name(
    const ::testing::TestParamInfo<ConvergenceParam>& info) {
  std::string s = to_string(std::get<0>(info.param));
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  s += std::string("_") + family_name(std::get<1>(info.param)) + "_s" +
       std::to_string(std::get<2>(info.param));
  switch (std::get<3>(info.param)) {
    case EngineRuntime::kSimulator:
      break;
    case EngineRuntime::kParallelSim:
      s += "_parallel";
      break;
    case EngineRuntime::kThreads:
      s += "_threads";
      break;
    case EngineRuntime::kSockets:
      s += "_sockets";
      break;
  }
  return s;
}

const auto kFamilies = ::testing::Values(
    FaultFamily::kLoss, FaultFamily::kPartition, FaultFamily::kCrash);

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, Convergence,
    ::testing::Combine(::testing::ValuesIn(all_protocols()), kFamilies,
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(EngineRuntime::kSimulator)),
    convergence_name);

INSTANTIATE_TEST_SUITE_P(
    Parallel, Convergence,
    ::testing::Combine(::testing::ValuesIn(all_protocols()), kFamilies,
                       ::testing::Values(1),
                       ::testing::Values(EngineRuntime::kParallelSim)),
    convergence_name);

// The same cells on the wall-clock roots, one seed: fault *timing* there
// depends on the OS scheduler, so the seed axis adds little.
INSTANTIATE_TEST_SUITE_P(
    WallClock, Convergence,
    ::testing::Combine(::testing::ValuesIn(all_protocols()), kFamilies,
                       ::testing::Values(1),
                       ::testing::Values(EngineRuntime::kThreads,
                                         EngineRuntime::kSockets)),
    convergence_name);

}  // namespace
}  // namespace pardsm::mcs
