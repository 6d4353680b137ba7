// experiment_runner — command-line driver for ad-hoc experiments.
//
//   ./examples/experiment_runner <protocol> <topology> [n] [ops] [seed]
//
//   protocol: atomic | sc | causal-full | causal-naive | causal-adhoc |
//             pram | slow | cache | processor
//   topology: chain | open-chain | ring | star | grid | clusters |
//             hypercube | torus | random | prefattach
//
// Runs a random workload, prints the efficiency report (observed vs
// Theorem-1 relevance), traffic totals and the history's classification.

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "core/analysis.h"
#include "history/checkers.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"

namespace {

using namespace pardsm;

mcs::ProtocolKind parse_protocol(const std::string& s) {
  static const std::map<std::string, mcs::ProtocolKind> kMap = {
      {"atomic", mcs::ProtocolKind::kAtomicHome},
      {"sc", mcs::ProtocolKind::kSequencerSC},
      {"causal-full", mcs::ProtocolKind::kCausalFull},
      {"causal-naive", mcs::ProtocolKind::kCausalPartialNaive},
      {"causal-adhoc", mcs::ProtocolKind::kCausalPartialAdHoc},
      {"pram", mcs::ProtocolKind::kPramPartial},
      {"slow", mcs::ProtocolKind::kSlowPartial},
      {"cache", mcs::ProtocolKind::kCachePartial},
      {"processor", mcs::ProtocolKind::kProcessorPartial},
  };
  auto it = kMap.find(s);
  if (it == kMap.end()) {
    std::cerr << "unknown protocol '" << s << "'\n";
    std::exit(2);
  }
  return it->second;
}

graph::Distribution parse_topology(const std::string& s, std::size_t n,
                                   std::uint64_t seed) {
  if (s == "chain") return graph::topo::chain_with_hoop(n);
  if (s == "open-chain") return graph::topo::open_chain(n);
  if (s == "ring") return graph::topo::ring(n);
  if (s == "star") return graph::topo::star(n);
  if (s == "grid") return graph::topo::grid(n, n);
  if (s == "clusters") return graph::topo::clusters(n, 3, true);
  if (s == "hypercube") return graph::topo::hypercube(n);
  if (s == "torus") return graph::topo::torus(n, n);
  if (s == "random") return graph::topo::random_replication(n, 2 * n, 3, seed);
  if (s == "prefattach") {
    return graph::topo::preferential_attachment(n, 2, seed);
  }
  std::cerr << "unknown topology '" << s << "'\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: " << argv[0]
              << " <protocol> <topology> [n=8] [ops=6] [seed=1]\n";
    return 2;
  }
  const auto kind = parse_protocol(argv[1]);
  const std::size_t n = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 8;
  const std::size_t ops = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 6;
  const std::uint64_t seed =
      argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 1;
  const auto dist = parse_topology(argv[2], n, seed);

  mcs::WorkloadSpec spec;
  spec.ops_per_process = ops;
  spec.read_fraction = 0.5;
  spec.seed = seed;
  const auto scripts = mcs::make_random_scripts(dist, spec);

  const auto run = mcs::run(
      {.protocol = kind,
       .distribution = &dist,
       .scripts = &scripts,
       .sim_seed = seed,
       .latency = std::make_unique<UniformLatency>(millis(1), millis(10))});

  std::cout << "protocol : " << mcs::to_string(kind) << '\n'
            << "topology : " << dist.name << "  (" << dist.process_count()
            << " processes, " << dist.var_count << " variables)\n"
            << "ops      : " << run.history.size() << " recorded\n"
            << "sim time : " << run.finished_at.us / 1000 << " ms\n"
            << "traffic  : " << run.total_traffic.msgs_sent << " msgs, "
            << run.total_traffic.control_bytes_sent << " control B, "
            << run.total_traffic.payload_bytes_sent << " payload B\n\n";

  const auto report =
      core::analyze_run(dist, run.observed_relevant, run.total_traffic);
  std::cout << report.to_table() << '\n';

  const auto model = core::predict(kind, dist);
  std::cout << "analytic model: " << model.messages_per_write
            << " msgs/write, " << model.control_bytes_per_write
            << " control B/write, " << model.recipients_outside_clique
            << " recipients beyond C(x)/write\n\n";

  std::cout << "classification: "
            << hist::classify(run.history).to_string() << '\n';
  return 0;
}
