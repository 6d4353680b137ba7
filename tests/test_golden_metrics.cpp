// Golden-metrics determinism gate.
//
// Every tuple below — total messages, wire bytes, the full per-(process,
// variable) exposure matrix (sum + FNV-1a fingerprint), events fired and
// simulated quiescence time — was captured from the engine BEFORE the
// allocation-free hot-path refactor (pooled events, interned message
// metadata, dense replica stores).  The paper's results are statements
// about these exact quantities, so engine/performance work must reproduce
// them bit-for-bit: any drift here means the refactor changed observable
// behaviour, not just speed.
//
// Regenerate with ./tests/golden_metrics_gen ONLY when a protocol's
// message complexity legitimately changes.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>

#include "golden_metrics_common.h"

namespace pardsm {
namespace {

struct GoldenRow {
  const char* protocol;
  const char* topology;
  std::uint64_t messages;
  std::uint64_t bytes;
  std::uint64_t exposure_sum;
  std::uint64_t exposure_hash;
  std::uint64_t events;
  std::int64_t finished_us;
};

constexpr GoldenRow kGolden[] = {
    // generated by golden_metrics_gen — do not hand-edit
    {"atomic-home", "ring-6", 65ull, 2920ull, 65ull, 16227735140426255558ull, 113ull, 16000},
    {"sequencer-sc", "ring-6", 79ull, 4640ull, 79ull, 9331455010116791436ull, 127ull, 12002},
    {"causal-full", "ring-6", 155ull, 14880ull, 155ull, 15314204951945354565ull, 203ull, 1005},
    {"causal-partial-naive", "ring-6", 155ull, 13888ull, 155ull, 15314204951945354565ull, 203ull, 1005},
    {"causal-partial-adhoc", "ring-6", 155ull, 30008ull, 155ull, 15314204951945354565ull, 203ull, 1005},
    {"pram-partial", "ring-6", 31ull, 1488ull, 31ull, 10483959652504495909ull, 79ull, 1003},
    {"slow-partial", "ring-6", 31ull, 1736ull, 31ull, 10483959652504495909ull, 110ull, 1300},
    {"cache-partial", "ring-6", 47ull, 3128ull, 47ull, 12703365952814952494ull, 95ull, 12000},
    {"processor-partial", "ring-6", 47ull, 4632ull, 47ull, 12703365952814952494ull, 95ull, 12000},
    {"atomic-home", "open-chain-5", 51ull, 2304ull, 51ull, 13965656317439996962ull, 91ull, 16000},
    {"sequencer-sc", "open-chain-5", 64ull, 3776ull, 64ull, 15072611533784925675ull, 104ull, 12002},
    {"causal-full", "open-chain-5", 100ull, 8800ull, 100ull, 15035716856385438925ull, 140ull, 1005},
    {"causal-partial-naive", "open-chain-5", 100ull, 8200ull, 100ull, 15035716856385438925ull, 140ull, 1005},
    {"causal-partial-adhoc", "open-chain-5", 25ull, 2000ull, 25ull, 8609637033548555748ull, 65ull, 1004},
    {"pram-partial", "open-chain-5", 25ull, 1200ull, 25ull, 8609637033548555748ull, 65ull, 1004},
    {"slow-partial", "open-chain-5", 25ull, 1400ull, 25ull, 8609637033548555748ull, 90ull, 1300},
    {"cache-partial", "open-chain-5", 35ull, 2360ull, 35ull, 11919175246014146478ull, 75ull, 8000},
    {"processor-partial", "open-chain-5", 35ull, 3480ull, 35ull, 11919175246014146478ull, 75ull, 8000},
    {"atomic-home", "random-8p12v-r3", 122ull, 5592ull, 122ull, 5069152131303794510ull, 186ull, 16001},
    {"sequencer-sc", "random-8p12v-r3", 140ull, 8432ull, 140ull, 17727836339076882593ull, 204ull, 12005},
    {"causal-full", "random-8p12v-r3", 266ull, 29792ull, 266ull, 13853321093889372039ull, 330ull, 1005},
    {"causal-partial-naive", "random-8p12v-r3", 266ull, 28272ull, 266ull, 13853321093889372039ull, 330ull, 1005},
    {"causal-partial-adhoc", "random-8p12v-r3", 266ull, 115520ull, 266ull, 13853321093889372039ull, 330ull, 1005},
    {"pram-partial", "random-8p12v-r3", 76ull, 3648ull, 76ull, 10796424339989580450ull, 140ull, 1004},
    {"slow-partial", "random-8p12v-r3", 76ull, 4256ull, 76ull, 10796424339989580450ull, 216ull, 1296},
    {"cache-partial", "random-8p12v-r3", 96ull, 6592ull, 96ull, 10711403704131691044ull, 160ull, 12000},
    {"processor-partial", "random-8p12v-r3", 96ull, 11200ull, 96ull, 10711403704131691044ull, 160ull, 12000},
};

struct GoldenScenarioRow {
  const char* protocol;
  std::uint64_t messages;
  std::uint64_t bytes;
  std::uint64_t retransmissions;
  std::uint64_t dropped;
  std::int64_t finished_us;
};

/// One canonical lossy+partition scenario per protocol (ring-6, 1% loss,
/// 3|3 split healed at 6ms — see golden::measure_scenario).  Messages and
/// bytes include ARQ frames, acks, retransmissions and re-sync traffic:
/// this pins the *recovery* cost the same way kGolden pins the lossless
/// message complexity.
constexpr GoldenScenarioRow kGoldenScenario[] = {
    // generated by golden_metrics_gen — do not hand-edit
    {"atomic-home", 132ull, 5656ull, 2ull, 2ull, 84000},
    {"sequencer-sc", 163ull, 8168ull, 5ull, 6ull, 83000},
    {"causal-full", 393ull, 29056ull, 68ull, 67ull, 88000},
    {"causal-partial-naive", 393ull, 27568ull, 68ull, 67ull, 88000},
    {"causal-partial-adhoc", 393ull, 50760ull, 68ull, 67ull, 88000},
    {"pram-partial", 67ull, 3048ull, 5ull, 5ull, 48000},
    {"slow-partial", 67ull, 3336ull, 5ull, 5ull, 48000},
    {"cache-partial", 97ull, 5240ull, 3ull, 3ull, 89000},
    {"processor-partial", 97ull, 6840ull, 3ull, 3ull, 89000},
};

struct GoldenParallelRow {
  const char* protocol;
  const char* cell;
  std::uint64_t messages;
  std::uint64_t bytes;
  std::uint64_t retransmissions;
  std::uint64_t loss;
  std::uint64_t severed;
  std::uint64_t down;
  std::uint64_t in_flight;
  std::uint64_t events;
  std::int64_t finished_us;
};

/// The parallel root (kParallelSim) per protocol and fault cell on ring-6
/// under uniform 1..4ms latency (see golden::measure_parallel).  Its
/// channel draws are counter-based, so the same row must come out at
/// every thread count; the test checks 1 and 4 workers.
constexpr GoldenParallelRow kGoldenParallel[] = {
    // generated by golden_metrics_gen — do not hand-edit
    {"atomic-home", "fault-free", 65ull, 2920ull, 0ull, 0ull, 0ull, 0ull, 0ull, 113ull, 46450},
    {"sequencer-sc", "fault-free", 79ull, 4640ull, 0ull, 0ull, 0ull, 0ull, 0ull, 127ull, 40693},
    {"causal-full", "fault-free", 155ull, 14880ull, 0ull, 0ull, 0ull, 0ull, 0ull, 203ull, 11889},
    {"causal-partial-naive", "fault-free", 155ull, 13888ull, 0ull, 0ull, 0ull, 0ull, 0ull, 203ull, 11889},
    {"causal-partial-adhoc", "fault-free", 155ull, 30008ull, 0ull, 0ull, 0ull, 0ull, 0ull, 203ull, 11889},
    {"pram-partial", "fault-free", 31ull, 1488ull, 0ull, 0ull, 0ull, 0ull, 0ull, 79ull, 11519},
    {"slow-partial", "fault-free", 31ull, 1736ull, 0ull, 0ull, 0ull, 0ull, 0ull, 110ull, 11656},
    {"cache-partial", "fault-free", 47ull, 3128ull, 0ull, 0ull, 0ull, 0ull, 0ull, 95ull, 34814},
    {"processor-partial", "fault-free", 47ull, 4632ull, 0ull, 0ull, 0ull, 0ull, 0ull, 95ull, 34814},
    {"atomic-home", "loss-dup", 140ull, 5872ull, 4ull, 2ull, 0ull, 0ull, 0ull, 201ull, 85294},
    {"sequencer-sc", "loss-dup", 168ull, 8288ull, 5ull, 5ull, 0ull, 0ull, 0ull, 221ull, 81158},
    {"causal-full", "loss-dup", 335ull, 22736ull, 12ull, 6ull, 0ull, 0ull, 0ull, 396ull, 88000},
    {"causal-partial-naive", "loss-dup", 335ull, 21688ull, 12ull, 6ull, 0ull, 0ull, 0ull, 396ull, 88000},
    {"causal-partial-adhoc", "loss-dup", 335ull, 39056ull, 12ull, 6ull, 0ull, 0ull, 0ull, 396ull, 88000},
    {"pram-partial", "loss-dup", 73ull, 3152ull, 4ull, 1ull, 0ull, 0ull, 0ull, 130ull, 42000},
    {"slow-partial", "loss-dup", 73ull, 3432ull, 4ull, 1ull, 0ull, 0ull, 0ull, 161ull, 42000},
    {"cache-partial", "loss-dup", 111ull, 5864ull, 7ull, 2ull, 0ull, 0ull, 0ull, 169ull, 89253},
    {"processor-partial", "loss-dup", 111ull, 7592ull, 7ull, 2ull, 0ull, 0ull, 0ull, 169ull, 89253},
    {"atomic-home", "partition", 132ull, 5656ull, 2ull, 2ull, 2ull, 0ull, 0ull, 190ull, 86470},
    {"sequencer-sc", "partition", 168ull, 8480ull, 9ull, 5ull, 6ull, 0ull, 0ull, 222ull, 116460},
    {"causal-full", "partition", 432ull, 32456ull, 96ull, 8ull, 75ull, 0ull, 0ull, 445ull, 125000},
    {"causal-partial-naive", "partition", 432ull, 30784ull, 96ull, 8ull, 75ull, 0ull, 0ull, 445ull, 125000},
    {"causal-partial-adhoc", "partition", 432ull, 56888ull, 96ull, 8ull, 75ull, 0ull, 0ull, 445ull, 125000},
    {"pram-partial", "partition", 71ull, 3264ull, 8ull, 1ull, 7ull, 0ull, 0ull, 128ull, 85000},
    {"slow-partial", "partition", 71ull, 3576ull, 8ull, 1ull, 7ull, 0ull, 0ull, 159ull, 85000},
    {"cache-partial", "partition", 99ull, 5352ull, 4ull, 2ull, 3ull, 0ull, 0ull, 158ull, 95228},
    {"processor-partial", "partition", 99ull, 6984ull, 4ull, 2ull, 3ull, 0ull, 0ull, 158ull, 95228},
    {"atomic-home", "crash", 146ull, 6288ull, 6ull, 2ull, 0ull, 4ull, 2ull, 207ull, 90853},
    {"sequencer-sc", "crash", 182ull, 9216ull, 14ull, 5ull, 0ull, 3ull, 3ull, 242ull, 98149},
    {"causal-full", "crash", 355ull, 25368ull, 32ull, 6ull, 0ull, 19ull, 11ull, 416ull, 92000},
    {"causal-partial-naive", "crash", 361ull, 24096ull, 33ull, 6ull, 0ull, 19ull, 11ull, 423ull, 92000},
    {"causal-partial-adhoc", "crash", 361ull, 43440ull, 33ull, 6ull, 0ull, 19ull, 11ull, 423ull, 92000},
    {"pram-partial", "crash", 82ull, 3728ull, 9ull, 1ull, 0ull, 5ull, 3ull, 142ull, 84000},
    {"slow-partial", "crash", 82ull, 4032ull, 9ull, 1ull, 0ull, 5ull, 3ull, 173ull, 84000},
    {"cache-partial", "crash", 108ull, 5776ull, 5ull, 2ull, 0ull, 4ull, 2ull, 165ull, 82741},
    {"processor-partial", "crash", 108ull, 7408ull, 5ull, 2ull, 0ull, 4ull, 2ull, 165ull, 82741},
};

struct GoldenAdHocLossyRow {
  std::uint64_t messages;
  std::uint64_t bytes;
  std::uint64_t events;
  std::uint64_t retransmissions;
  std::uint64_t updates_buffered;
  std::uint64_t replicas_digest;
};

/// perfbench's sim-adhoc-lossy shape at 200 ops per process (see
/// golden::measure_adhoc_lossy): several event cadences (1 ms delivery
/// and batching, 40 ms ARQ timers) through the event queue, and every
/// ad-hoc dependency walk of a process that tracks all 32 variables.
constexpr GoldenAdHocLossyRow kGoldenAdHocLossy = {
    // generated by golden_metrics_gen — do not hand-edit
    7441ull, 6161464ull, 9536ull, 46ull, 890ull, 11504493705686703284ull,
};

TEST(GoldenMetrics, EveryProtocolEveryTopologyBitIdentical) {
  std::map<std::string, mcs::ProtocolKind> kinds;
  for (auto kind : mcs::all_protocols()) {
    kinds[mcs::to_string(kind)] = kind;
  }
  auto topologies = golden::golden_topologies();

  std::size_t checked = 0;
  for (const auto& topo : topologies) {
    for (const auto& row : kGolden) {
      if (std::string(row.topology) != topo.name) continue;
      ASSERT_TRUE(kinds.count(row.protocol)) << row.protocol;
      const auto m = golden::measure(kinds.at(row.protocol), topo.dist);
      SCOPED_TRACE(std::string(row.protocol) + " on " + row.topology);
      EXPECT_EQ(m.messages, row.messages);
      EXPECT_EQ(m.bytes, row.bytes);
      EXPECT_EQ(m.exposure_sum, row.exposure_sum);
      EXPECT_EQ(m.exposure_hash, row.exposure_hash);
      EXPECT_EQ(m.events, row.events);
      EXPECT_EQ(m.finished_us, row.finished_us);
      ++checked;
    }
  }
  // Every protocol appears on every topology of the corpus.
  EXPECT_EQ(checked, topologies.size() * mcs::all_protocols().size());
}

TEST(GoldenMetrics, CanonicalLossyPartitionScenarioBitIdentical) {
  std::map<std::string, mcs::ProtocolKind> kinds;
  for (auto kind : mcs::all_protocols()) {
    kinds[mcs::to_string(kind)] = kind;
  }
  std::size_t checked = 0;
  for (const auto& row : kGoldenScenario) {
    ASSERT_TRUE(kinds.count(row.protocol)) << row.protocol;
    const auto m = golden::measure_scenario(kinds.at(row.protocol));
    SCOPED_TRACE(row.protocol);
    EXPECT_EQ(m.messages, row.messages);
    EXPECT_EQ(m.bytes, row.bytes);
    EXPECT_EQ(m.retransmissions, row.retransmissions);
    EXPECT_EQ(m.dropped, row.dropped);
    EXPECT_EQ(m.finished_us, row.finished_us);
    ++checked;
  }
  EXPECT_EQ(checked, mcs::all_protocols().size());
}

TEST(GoldenMetrics, ParallelRootEveryFaultCellBitIdentical) {
  std::map<std::string, mcs::ProtocolKind> kinds;
  for (auto kind : mcs::all_protocols()) {
    kinds[mcs::to_string(kind)] = kind;
  }
  std::size_t checked = 0;
  for (const auto& row : kGoldenParallel) {
    ASSERT_TRUE(kinds.count(row.protocol)) << row.protocol;
    for (unsigned threads : {1u, 4u}) {
      const auto m =
          golden::measure_parallel(kinds.at(row.protocol), row.cell, threads);
      SCOPED_TRACE(std::string(row.protocol) + " / " + row.cell + " at " +
                   std::to_string(threads) + " threads");
      EXPECT_EQ(m.messages, row.messages);
      EXPECT_EQ(m.bytes, row.bytes);
      EXPECT_EQ(m.retransmissions, row.retransmissions);
      EXPECT_EQ(m.loss, row.loss);
      EXPECT_EQ(m.severed, row.severed);
      EXPECT_EQ(m.down, row.down);
      EXPECT_EQ(m.in_flight, row.in_flight);
      EXPECT_EQ(m.events, row.events);
      EXPECT_EQ(m.finished_us, row.finished_us);
    }
    ++checked;
  }
  EXPECT_EQ(checked,
            std::size(golden::kParallelCells) * mcs::all_protocols().size());
}

TEST(GoldenMetrics, AdHocLossyBatchedShapeBitIdentical) {
  const auto m = golden::measure_adhoc_lossy();
  EXPECT_EQ(m.messages, kGoldenAdHocLossy.messages);
  EXPECT_EQ(m.bytes, kGoldenAdHocLossy.bytes);
  EXPECT_EQ(m.events, kGoldenAdHocLossy.events);
  EXPECT_EQ(m.retransmissions, kGoldenAdHocLossy.retransmissions);
  EXPECT_EQ(m.updates_buffered, kGoldenAdHocLossy.updates_buffered);
  EXPECT_EQ(m.replicas_digest, kGoldenAdHocLossy.replicas_digest);
}

}  // namespace
}  // namespace pardsm
