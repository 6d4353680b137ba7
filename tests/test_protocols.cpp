// Protocol correctness: every protocol's recorded histories must satisfy
// its advertised criterion — checked with the *exact* serialization-search
// checkers — plus every weaker criterion in the lattice, across a corpus
// of topologies, workloads and seeds.  This is the repository's main
// correctness gate (DESIGN.md §7.3).

#include <gtest/gtest.h>

#include "history/checkers.h"
#include "history/linearizability.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"

namespace pardsm::mcs {
namespace {

using graph::Distribution;
using hist::CheckOptions;
using hist::Criterion;

/// Criteria a protocol's history must satisfy.
std::vector<Criterion> required_criteria(ProtocolKind kind) {
  switch (guarantee_of(kind)) {
    case GuaranteeLevel::kAtomic:
    case GuaranteeLevel::kSequential:
      return {Criterion::kSequential,     Criterion::kCausal,
              Criterion::kLazyCausal,     Criterion::kLazySemiCausal,
              Criterion::kPram,           Criterion::kSlow,
              Criterion::kCache};
    case GuaranteeLevel::kCausal:
      return {Criterion::kCausal, Criterion::kLazyCausal,
              Criterion::kLazySemiCausal, Criterion::kPram, Criterion::kSlow};
    case GuaranteeLevel::kProcessor:
      return {Criterion::kPram, Criterion::kCache, Criterion::kSlow};
    case GuaranteeLevel::kPram:
      return {Criterion::kPram, Criterion::kSlow};
    case GuaranteeLevel::kCache:
      return {Criterion::kCache, Criterion::kSlow};
    case GuaranteeLevel::kSlow:
      return {Criterion::kSlow};
  }
  return {};
}

void expect_history_ok(const hist::History& h, ProtocolKind kind,
                       const std::string& label) {
  for (Criterion c : required_criteria(kind)) {
    const auto result = hist::check_history(h, c);
    EXPECT_TRUE(result.definitive)
        << label << ": " << to_string(c) << " check hit its budget";
    EXPECT_TRUE(result.consistent)
        << label << ": history violates " << to_string(c) << "\n"
        << h.to_string();
    if (!result.consistent) break;
  }
}

struct Case {
  ProtocolKind kind;
  Distribution dist;
  std::uint64_t seed;
};

std::vector<Distribution> topology_corpus() {
  return {
      graph::topo::complete(3, 2),
      graph::topo::chain_with_hoop(4),
      graph::topo::star(3),
      graph::topo::random_replication(5, 4, 2, 11),
      graph::topo::clusters(2, 2, /*cyclic=*/false),
  };
}

class ProtocolConsistency
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, int>> {};

TEST_P(ProtocolConsistency, RandomWorkloadSatisfiesCriterion) {
  const auto [kind, seed] = GetParam();
  for (const Distribution& dist : topology_corpus()) {
    WorkloadSpec spec;
    spec.ops_per_process = 5;
    spec.read_fraction = 0.5;
    spec.seed = static_cast<std::uint64_t>(seed) * 977 + 13;
    const auto scripts = make_random_scripts(dist, spec);

    const auto result = run(
        {.protocol = kind,
         .distribution = &dist,
         .scripts = &scripts,
         .sim_seed = static_cast<std::uint64_t>(seed),
         .latency = std::make_unique<UniformLatency>(millis(1), millis(20))});

    expect_history_ok(result.history, kind,
                      std::string(to_string(kind)) + " on " + dist.name +
                          " seed " + std::to_string(seed));
  }
}

std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolConsistency,
    ::testing::Combine(::testing::ValuesIn(all_protocols()),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return sanitize(to_string(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// Reordering channels: causal protocols must still be correct when the
// network is not FIFO (their vector clocks restore causal order).  PRAM
// and slow rely on FIFO and are excluded by design.
class CausalNonFifo : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(CausalNonFifo, SurvivesReorderingNetwork) {
  const ProtocolKind kind = GetParam();
  const auto dist = graph::topo::random_replication(4, 3, 2, 5);
  WorkloadSpec spec;
  spec.ops_per_process = 6;
  spec.seed = 77;
  const auto scripts = make_random_scripts(dist, spec);

  const auto result = run(
      {.protocol = kind,
       .distribution = &dist,
       .scripts = &scripts,
       .sim_seed = 9,
       .channel = {.fifo = false},
       .latency = std::make_unique<UniformLatency>(millis(1), millis(50))});
  expect_history_ok(result.history, kind, "non-fifo");
}

INSTANTIATE_TEST_SUITE_P(Causal, CausalNonFifo,
                         ::testing::Values(ProtocolKind::kCausalFull,
                                           ProtocolKind::kCausalPartialNaive),
                         [](const auto& info) {
                           return sanitize(to_string(info.param));
                         });

// Atomic protocol: real-time linearizability of the recorded history.
TEST(AtomicHome, HistoriesAreLinearizable) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto dist = graph::topo::random_replication(4, 3, 2, seed);
    WorkloadSpec spec;
    spec.ops_per_process = 8;
    spec.read_fraction = 0.6;
    spec.seed = seed;
    const auto scripts = make_random_scripts(dist, spec);

    const auto result = run(
        {.protocol = ProtocolKind::kAtomicHome,
         .distribution = &dist,
         .scripts = &scripts,
         .sim_seed = seed,
         .latency = std::make_unique<UniformLatency>(millis(1), millis(9))});
    const auto lin = hist::check_linearizable(result.history);
    EXPECT_TRUE(lin.definitive);
    EXPECT_TRUE(lin.linearizable) << result.history.to_string();
  }
}

// Determinism: identical seeds produce identical histories and traffic.
TEST(Driver, SimulatorRunsAreDeterministic) {
  const auto dist = graph::topo::chain_with_hoop(5);
  WorkloadSpec spec;
  spec.ops_per_process = 6;
  spec.seed = 3;
  const auto scripts = make_random_scripts(dist, spec);

  const auto run_once = [&] {
    return run(
        {.protocol = ProtocolKind::kCausalPartialNaive,
         .distribution = &dist,
         .scripts = &scripts,
         .sim_seed = 42,
         .latency = std::make_unique<UniformLatency>(millis(1), millis(30))});
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.history.to_string(), b.history.to_string());
  EXPECT_EQ(a.total_traffic.msgs_sent, b.total_traffic.msgs_sent);
  EXPECT_EQ(a.total_traffic.control_bytes_sent,
            b.total_traffic.control_bytes_sent);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.events, b.events);
}

// Reads-return-writes sanity: every non-⊥ read returns a value actually
// written by somebody, with exact provenance.
TEST(Driver, ReadProvenanceResolves) {
  const auto dist = graph::topo::random_replication(5, 4, 3, 8);
  WorkloadSpec spec;
  spec.ops_per_process = 10;
  spec.seed = 21;
  const auto scripts = make_random_scripts(dist, spec);
  const auto result = run({.protocol = ProtocolKind::kPramPartial,
                           .distribution = &dist,
                           .scripts = &scripts});
  EXPECT_TRUE(result.history.read_from_resolvable());
}

// Wait-free protocols answer reads and writes instantly (zero simulated
// latency between invocation and completion) — the §3.3 property.
TEST(Protocols, WaitFreedomFlag) {
  HistoryRecorder rec(3, 2);
  const auto dist = graph::topo::complete(3, 2);
  for (ProtocolKind kind : all_protocols()) {
    auto procs = make_processes(kind, dist, rec);
    const bool expected = kind != ProtocolKind::kAtomicHome &&
                          kind != ProtocolKind::kSequencerSC &&
                          kind != ProtocolKind::kCachePartial &&
                          kind != ProtocolKind::kProcessorPartial;
    EXPECT_EQ(procs[0]->wait_free(), expected) << to_string(kind);
  }
}

}  // namespace
}  // namespace pardsm::mcs
