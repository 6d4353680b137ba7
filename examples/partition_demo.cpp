// partition_demo — two causal protocols through a partition/heal timeline.
//
// Runs the same workload twice on a two-cluster topology: once with
// causal-partial-adhoc (hoop-routed metadata, partial replicas) and once
// with causal-full (vector clocks to everyone, full replicas).  A 5ms
// network partition splits the clusters mid-run; the ARQ layer repairs
// the backlog after the heal.  The printed ledger shows what the paper's
// efficiency argument looks like once recovery traffic is charged:
// the chatty protocol pays for the partition in proportion to its
// message complexity.
//
//   $ ./examples/partition_demo

#include <cstdio>

#include "history/checkers.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"
#include "simnet/scenario.h"

using namespace pardsm;

namespace {

struct Ledger {
  const char* protocol;
  mcs::ScenarioRunResult faulty;
  std::uint64_t lossless_bytes = 0;
  bool consistent = false;
};

Ledger run_one(mcs::ProtocolKind kind, const graph::Distribution& dist,
               const std::vector<mcs::Script>& scripts,
               const Scenario& scenario) {
  const auto lossless = mcs::run(
      {.protocol = kind, .distribution = &dist, .scripts = &scripts});

  Ledger out{mcs::to_string(kind),
             mcs::run({.protocol = kind,
                       .distribution = &dist,
                       .scripts = &scripts,
                       .scenario = &scenario,
                       .sim_seed = 7}),
             lossless.total_traffic.wire_bytes_sent(), false};
  out.consistent =
      hist::check_history(out.faulty.history, hist::Criterion::kCausal)
          .consistent;
  return out;
}

}  // namespace

int main() {
  // Two clusters of three, bridged by shared variables: the partition
  // severs exactly the links the bridge variables depend on.
  const auto dist = graph::topo::clusters(2, 3, true);

  mcs::WorkloadSpec spec;
  spec.ops_per_process = 8;
  spec.read_fraction = 0.4;
  spec.seed = 42;
  spec.think_time = millis(1);
  const auto scripts = mcs::make_random_scripts(dist, spec);

  Scenario scenario("cluster-split");
  scenario.set_loss(0.01);
  scenario.partition({{0, 1, 2}, {3, 4, 5}}, after(millis(2)),
                     after(millis(7)));

  std::printf("workload: 6 processes, 8 ops each, 1%% loss, clusters split "
              "2..7ms\n\n");
  std::printf("%-22s %10s %10s %10s %10s %10s %10s\n", "protocol", "msgs",
              "bytes", "retrans", "dropped", "finish-ms", "overhead");

  for (auto kind : {mcs::ProtocolKind::kCausalPartialAdHoc,
                    mcs::ProtocolKind::kCausalFull}) {
    const Ledger l = run_one(kind, dist, scripts, scenario);
    std::printf(
        "%-22s %10llu %10llu %10llu %10llu %10.1f %9.2fx\n", l.protocol,
        static_cast<unsigned long long>(l.faulty.total_traffic.msgs_sent),
        static_cast<unsigned long long>(
            l.faulty.total_traffic.wire_bytes_sent()),
        static_cast<unsigned long long>(l.faulty.retransmissions),
        static_cast<unsigned long long>(l.faulty.drops.total()),
        static_cast<double>(l.faulty.finished_at.us) / 1000.0,
        static_cast<double>(l.faulty.total_traffic.wire_bytes_sent()) /
            static_cast<double>(l.lossless_bytes));
    std::printf("%-22s   causal-consistent: %s\n", "",
                l.consistent ? "yes" : "NO");
  }

  std::printf(
      "\noverhead = wire bytes vs the lossless ARQ-free run of the same "
      "scripts.\nBoth histories stay causally consistent: the partition "
      "costs recovery\ntraffic and latency, never safety.\n");
  return 0;
}
