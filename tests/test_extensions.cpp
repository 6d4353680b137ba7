// Extension protocols: cache consistency and processor consistency
// (PRAM ∧ cache) under partial replication — the repository's answer to
// the paper's open question ("does a criterion stronger than PRAM admit
// efficient partial replication?").

#include <gtest/gtest.h>

#include "history/checkers.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"

namespace pardsm::mcs {
namespace {

using hist::Criterion;

RunResult run(ProtocolKind kind, const graph::Distribution& dist,
              std::uint64_t seed) {
  WorkloadSpec spec;
  spec.ops_per_process = 6;
  spec.read_fraction = 0.5;
  spec.seed = seed;
  const auto scripts = make_random_scripts(dist, spec);
  return mcs::run(
      {.protocol = kind,
       .distribution = &dist,
       .scripts = &scripts,
       .sim_seed = seed,
       .latency = std::make_unique<UniformLatency>(millis(1), millis(12))});
}

TEST(CacheChecker, DivergentWriteOrdersViolateCache) {
  // Two readers observe two concurrent writes to x in opposite orders:
  // PRAM admits it, cache does not.
  hist::History h(4, 1);
  h.push_write(0, 0, 1);
  h.push_write(1, 0, 2);
  h.push_read(2, 0, 1);
  h.push_read(2, 0, 2);
  h.push_read(3, 0, 2);
  h.push_read(3, 0, 1);
  EXPECT_FALSE(hist::check_history(h, Criterion::kCache).consistent);
  EXPECT_TRUE(hist::check_history(h, Criterion::kPram).consistent);
}

TEST(CacheChecker, CrossVariableReorderIsCacheConsistent) {
  // The slow-not-PRAM litmus is fine for cache (no cross-var coupling).
  hist::History h(2, 2);
  h.push_write(0, 0, 1);
  h.push_write(0, 1, 2);
  h.push_read(1, 1, 2);
  h.push_read(1, 0, kBottom);
  EXPECT_TRUE(hist::check_history(h, Criterion::kCache).consistent);
  EXPECT_FALSE(hist::check_history(h, Criterion::kPram).consistent);
}

TEST(CachePartial, HistoriesAreCacheConsistent) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto dist = graph::topo::random_replication(5, 4, 3, seed);
    const auto result = run(ProtocolKind::kCachePartial, dist, seed);
    const auto check =
        hist::check_history(result.history, Criterion::kCache);
    EXPECT_TRUE(check.definitive);
    EXPECT_TRUE(check.consistent)
        << "seed " << seed << "\n" << result.history.to_string();
  }
}

TEST(ProcessorPartial, HistoriesArePramAndCacheConsistent) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto dist = graph::topo::random_replication(5, 4, 3, seed);
    const auto result = run(ProtocolKind::kProcessorPartial, dist, seed);
    for (Criterion c : {Criterion::kPram, Criterion::kCache,
                        Criterion::kSlow}) {
      const auto check = hist::check_history(result.history, c);
      EXPECT_TRUE(check.definitive);
      EXPECT_TRUE(check.consistent)
          << "seed " << seed << " criterion " << to_string(c) << "\n"
          << result.history.to_string();
    }
  }
}

TEST(Extensions, ExposureConfinedToCliques) {
  // The open-question property: BOTH extensions keep every byte of
  // x-metadata inside C(x) — efficient partial replication for a
  // criterion (PRAM ∧ cache) strictly stronger than PRAM.
  for (auto kind :
       {ProtocolKind::kCachePartial, ProtocolKind::kProcessorPartial}) {
    for (const auto& dist :
         {graph::topo::chain_with_hoop(5), graph::topo::ring(6),
          graph::topo::clusters(3, 2, true)}) {
      const auto result = run(kind, dist, 7);
      for (std::size_t x = 0; x < dist.var_count; ++x) {
        const auto clique = dist.replicas_of(static_cast<VarId>(x));
        const std::set<ProcessId> cset(clique.begin(), clique.end());
        for (ProcessId p : result.observed_relevant[x]) {
          EXPECT_TRUE(cset.count(p))
              << to_string(kind) << " leaked x" << x << " to p" << p
              << " on " << dist.name;
        }
      }
    }
  }
}

TEST(Extensions, ProcessorStrictlyStrongerThanPramDeterministic) {
  // Deterministic separation witness: two writers, two readers, a latency
  // matrix that delivers the writes in opposite orders at the readers, and
  // reads timed between the arrivals.  PRAM admits the resulting history;
  // cache consistency rejects it; the processor protocol on the *same*
  // workload produces a history both checkers admit.
  const auto dist = graph::topo::complete(4, 1);
  std::vector<Script> scripts(4);
  scripts[0] = {ScriptOp::write(0, 1)};
  scripts[1] = {ScriptOp::write(0, 2)};
  scripts[2] = {ScriptOp::read(0, millis(10)), ScriptOp::read(0, millis(60))};
  scripts[3] = {ScriptOp::read(0, millis(10)), ScriptOp::read(0, millis(60))};

  const auto latency_matrix = [] {
    const Duration fast = millis(1), slow = millis(50);
    std::vector<std::vector<Duration>> m(4, std::vector<Duration>(4, fast));
    m[0][3] = slow;  // p0's write reaches p3 late
    m[1][2] = slow;  // p1's write reaches p2 late
    return m;
  };

  // PRAM: apply-on-arrival → p2 sees 1 then 2; p3 sees 2 then 1.
  {
    const auto result = mcs::run(
        {.protocol = ProtocolKind::kPramPartial,
         .distribution = &dist,
         .scripts = &scripts,
         .latency = std::make_unique<MatrixLatency>(latency_matrix())});
    EXPECT_TRUE(
        hist::check_history(result.history, Criterion::kPram).consistent);
    EXPECT_FALSE(
        hist::check_history(result.history, Criterion::kCache).consistent)
        << result.history.to_string();
  }
  // Processor consistency: home sequencing forbids the divergence.
  {
    const auto result = mcs::run(
        {.protocol = ProtocolKind::kProcessorPartial,
         .distribution = &dist,
         .scripts = &scripts,
         .latency = std::make_unique<MatrixLatency>(latency_matrix())});
    EXPECT_TRUE(
        hist::check_history(result.history, Criterion::kPram).consistent);
    EXPECT_TRUE(
        hist::check_history(result.history, Criterion::kCache).consistent)
        << result.history.to_string();
  }
}

TEST(Extensions, WritesBlockButReadsAreLocal) {
  const auto dist = graph::topo::complete(3, 2);
  const auto result = run(ProtocolKind::kProcessorPartial, dist, 3);
  for (const auto& op : result.history.ops()) {
    if (op.is_read()) {
      EXPECT_EQ(op.responded, op.invoked);  // wait-free read
    }
  }
  // Some write by a non-home process must have taken network time.
  bool some_slow_write = false;
  for (const auto& op : result.history.ops()) {
    if (op.is_write() && op.responded > op.invoked) some_slow_write = true;
  }
  EXPECT_TRUE(some_slow_write);
}

}  // namespace
}  // namespace pardsm::mcs
