// The streaming-workload subsystem end to end: the log-linear latency
// histogram (exactness vs a sorted-vector reference, merge algebra, the
// zero-allocation gate), the lazy YCSB-style generator (purity, mix and
// skew shape, the packing/offset wrap guards), and the engine surface
// (the engine Client on all four runtimes, open-loop arrivals, censored
// accounting on dead channels, peak-RSS independence of the op count).

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <random>
#include <stdexcept>
#include <vector>

#include "history/history.h"
#include "mcs/engine.h"
#include "sharegraph/topologies.h"
#include "simnet/event_queue.h"
#include "simnet/latency_histogram.h"
#include "workload/generator.h"

// ---------------------------------------------------------------------------
// Global allocation counter (same discipline as test_hotpath_containers):
// counts every operator new while armed, for the capture-path gate.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// new is malloc-backed so the matching delete frees with std::free; GCC
// cannot see the pairing across the replaced global operators and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace pardsm {
namespace {

// ------------------------------------------------------- LatencyHistogram

TEST(LatencyHistogram, BucketIndexRoundTripsAndIsMonotone) {
  const std::vector<std::uint64_t> probes = {
      0,   1,    31,   32,         33,         63,        64,
      95,  1000, 4096, 1ULL << 20, 1ULL << 40, 1ULL << 63,
      std::numeric_limits<std::uint64_t>::max()};
  std::uint32_t prev_index = 0;
  for (const std::uint64_t v : probes) {
    const std::uint32_t i = LatencyHistogram::bucket_index(v);
    ASSERT_LT(i, LatencyHistogram::kBucketCount) << v;
    EXPECT_GE(LatencyHistogram::bucket_upper_us(i), v) << v;
    EXPECT_GE(i, prev_index) << v;  // probes ascend, so must indices
    prev_index = i;
  }
  // Values below kSubBuckets are exact unit buckets.
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(LatencyHistogram::bucket_index(7)),
            7u);
}

/// Quantiles read back from the histogram must match the exact order
/// statistic of a sorted-vector reference to within one histogram bucket
/// (relative error <= 1/32 of the value, and exact below 32 us).
TEST(LatencyHistogram, QuantilesMatchSortedVectorWithinOneBucket) {
  std::mt19937_64 rng(20260808);
  // Mix of regimes: sub-bucket exact values, mid-range, heavy tail.
  std::vector<std::uint64_t> values;
  LatencyHistogram h;
  for (int i = 0; i < 20'000; ++i) {
    std::uint64_t v = 0;
    switch (i % 4) {
      case 0: v = rng() % 32; break;                   // exact buckets
      case 1: v = rng() % 10'000; break;               // ~ms range
      case 2: v = rng() % 1'000'000; break;            // ~s range
      default: v = 1'000'000 + rng() % (1ULL << 40);   // tail
    }
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  ASSERT_EQ(h.samples(), values.size());
  EXPECT_EQ(h.max_us(), values.back());

  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    // Same rank convention as the histogram: 1-based ceil(q*n), min 1.
    const auto n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(q * n);
    if (static_cast<double>(rank) < q * n) ++rank;
    if (rank == 0) rank = 1;
    const std::uint64_t exact = values[rank - 1];

    const auto got = h.quantile(q);
    ASSERT_FALSE(got.censored) << q;
    EXPECT_GE(got.us, static_cast<double>(exact)) << q;
    const double one_bucket =
        static_cast<double>(exact) / 32.0 + 1.0;  // width <= value/32 (+1)
    EXPECT_LE(got.us, static_cast<double>(exact) + one_bucket) << q;
  }
  // The top quantile is clamped to the exact recorded max, not the edge.
  EXPECT_EQ(h.quantile(1.0).us, static_cast<double>(values.back()));
}

TEST(LatencyHistogram, MergeIsAssociativeAndCommutative) {
  std::mt19937_64 rng(7);
  LatencyHistogram a, b, c;
  for (int i = 0; i < 1000; ++i) a.record(rng() % 100'000);
  for (int i = 0; i < 500; ++i) b.record(rng() % (1ULL << 33));
  for (int i = 0; i < 200; ++i) c.record(rng() % 32);
  b.add_censored(3);

  LatencyHistogram ab = a;
  ab.merge_from(b);
  LatencyHistogram ba = b;
  ba.merge_from(a);
  EXPECT_EQ(ab, ba);

  LatencyHistogram ab_c = ab;
  ab_c.merge_from(c);
  LatencyHistogram bc = b;
  bc.merge_from(c);
  LatencyHistogram a_bc = a;
  a_bc.merge_from(bc);
  EXPECT_EQ(ab_c, a_bc);

  EXPECT_EQ(ab_c.samples(), 1700u);
  EXPECT_EQ(ab_c.censored(), 3u);
  EXPECT_EQ(ab_c.total(), 1703u);
}

TEST(LatencyHistogram, CensoredMassSitsAboveEveryBucket) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.record(100);
  h.add_censored(10);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_FALSE(h.quantile(0.5).censored);
  EXPECT_FALSE(h.quantile(0.9).censored);  // rank 90 = last completed op
  EXPECT_TRUE(h.quantile(0.95).censored);
  EXPECT_TRUE(h.quantile(1.0).censored);
  EXPECT_TRUE(std::isinf(h.quantile(1.0).us));
}

/// The capture path — record, merge, quantile — must not allocate: it
/// sits on the per-op hot path of million-op runs and inside the parallel
/// engine's shards.
TEST(LatencyHistogram, CapturePathDoesNotAllocate) {
  LatencyHistogram a, b;
  // Touch everything once, outside the gate.
  a.record(1);
  b.record(1ULL << 40);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    a.record(i * 37 % (1ULL << 45));
  }
  b.merge_from(a);
  b.add_censored(5);
  const auto q50 = b.quantile(0.5);
  const auto q999 = b.quantile(0.999);
  g_count_allocs.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "latency capture path allocated on the hot path";
  EXPECT_FALSE(q50.censored);
  EXPECT_GE(q999.us, q50.us);
}

// ------------------------------------------------------------- Generator

graph::Distribution test_dist() {
  return graph::topo::random_replication(6, 24, 3, 42);
}

TEST(Generator, OpStreamIsPureInProcessAndIndex) {
  const auto dist = test_dist();
  workload::Spec spec;
  spec.ops_per_process = 1000;
  spec.keys = workload::KeyDist::kZipf;
  spec.seed = 99;
  const workload::Generator gen(dist, spec);

  // Forward sweep, then a scrambled re-query on a second generator built
  // from the same spec: every (p, k) must agree — op content is a pure
  // function of (seed, p, k), not of call order or generator instance.
  std::map<std::pair<ProcessId, std::uint64_t>, workload::OpSpec> first;
  for (ProcessId p = 0; p < 6; ++p) {
    for (std::uint64_t k = 0; k < 50; ++k) {
      first[{p, k}] = gen.op(p, k);
    }
  }
  const workload::Generator gen2(dist, spec);
  for (std::uint64_t k = 50; k-- > 0;) {
    for (ProcessId p = 6; p-- > 0;) {
      const auto again = gen2.op(p, k);
      const auto& want = first.at({p, k});
      EXPECT_EQ(again.is_read, want.is_read);
      EXPECT_EQ(again.var, want.var);
      EXPECT_EQ(again.value, want.value);
    }
  }
}

TEST(Generator, MixAndSkewShapeTheStream) {
  const auto dist = test_dist();
  workload::Spec spec;
  spec.ops_per_process = 20'000;
  spec.read_fraction = 0.9;
  spec.keys = workload::KeyDist::kZipf;
  spec.zipf_theta = 0.99;
  const workload::Generator gen(dist, spec);

  std::uint64_t reads = 0;
  std::map<VarId, std::uint64_t> hits;
  for (std::uint64_t k = 0; k < spec.ops_per_process; ++k) {
    const auto op = gen.op(0, k);
    reads += op.is_read ? 1 : 0;
    ++hits[op.var];
    // Keys stay inside the process's own replica set.
    const auto& mine = dist.per_process[0];
    EXPECT_TRUE(std::find(mine.begin(), mine.end(), op.var) != mine.end());
    if (!op.is_read) {
      EXPECT_EQ(op.value, workload::Generator::packed_value(0, k));
    }
  }
  const double read_frac =
      static_cast<double>(reads) / static_cast<double>(spec.ops_per_process);
  EXPECT_NEAR(read_frac, 0.9, 0.02);

  // Zipf θ=0.99: rank 0 (the process's first variable) is the hottest,
  // far above the uniform share.
  const VarId hottest = dist.per_process[0].front();
  const double hot_share = static_cast<double>(hits[hottest]) /
                           static_cast<double>(spec.ops_per_process);
  const double uniform_share = 1.0 / static_cast<double>(
                                         dist.per_process[0].size());
  EXPECT_GT(hot_share, 2.0 * uniform_share);
}

TEST(Generator, WriteValuesAreGloballyUnique) {
  // packed_value(p, k) = (k << 20 | p) + 1: distinct across p and k, and
  // never kBottom.
  EXPECT_NE(workload::Generator::packed_value(0, 0),
            workload::Generator::packed_value(1, 0));
  EXPECT_NE(workload::Generator::packed_value(0, 0),
            workload::Generator::packed_value(0, 1));
  EXPECT_NE(workload::Generator::packed_value(0, 0), kBottom);
}

// ------------------------------------------------- wrap / overflow guards

TEST(WrapGuards, EventPoolSlotWidth) {
  // The event pool indexes slots with uint32; the checked cast trips
  // loudly at 2^32 instead of silently aliasing slot 0.
  EXPECT_EQ(EventQueue::checked_slot(0u), 0u);
  EXPECT_EQ(EventQueue::checked_slot(0xFFFF'FFFFULL), 0xFFFF'FFFFu);
  EXPECT_THROW((void)EventQueue::checked_slot(0x1'0000'0000ULL),
               std::logic_error);
}

TEST(WrapGuards, HistoryOpIndexWidth) {
  // OpIndex is int32: the 2^31-1st push must fail loudly (and point at
  // discard mode), not wrap into a negative index.
  EXPECT_EQ(hist::History::checked_op_index(0u), 0);
  EXPECT_EQ(hist::History::checked_op_index(0x7FFF'FFFEULL), 0x7FFF'FFFE);
  EXPECT_THROW((void)hist::History::checked_op_index(0x7FFF'FFFFULL),
               std::logic_error);
}

TEST(WrapGuards, PackedValueBitBudget) {
  // k has 43 bits, p has 20: both boundaries throw instead of colliding.
  EXPECT_THROW((void)workload::Generator::packed_value(0, 1ULL << 43),
               std::logic_error);
  EXPECT_THROW((void)workload::Generator::packed_value(1 << 20, 0),
               std::logic_error);
  // The very top in-range packing is fine and stays a positive int64...
  const Value top = workload::Generator::packed_value((1 << 20) - 2,
                                                      (1ULL << 43) - 1);
  EXPECT_GT(top, 0);
  EXPECT_NE(top, kBottom);
  // ...but the single (p_max, k_max) corner would wrap the +1 past
  // INT64_MAX (and alias kBottom): it must throw, not overflow.
  EXPECT_THROW((void)workload::Generator::packed_value((1 << 20) - 1,
                                                       (1ULL << 43) - 1),
               std::logic_error);
}

TEST(WrapGuards, ArrivalOffsetIsMonotoneAndGuarded) {
  // Monotone (no precision cliff) around a > 2^32 op index...
  const std::uint64_t k = (1ULL << 33) + 12345;
  const auto a = workload::Generator::arrival_offset_us(1000.0, k);
  const auto b = workload::Generator::arrival_offset_us(1000.0, k + 1);
  const auto c = workload::Generator::arrival_offset_us(1000.0, k + 2);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  // ...and loud when the offset would overflow the int64 us clock.
  EXPECT_THROW(
      (void)workload::Generator::arrival_offset_us(1.0, 10'000'000'000'000ULL),
      std::logic_error);
}

// ------------------------------------------------------- engine surface

mcs::ScenarioRunResult run_workload_on(mcs::EngineRuntime runtime,
                                       const graph::Distribution& dist,
                                       const workload::Spec& spec,
                                       mcs::ProtocolKind kind,
                                       bool record_history,
                                       unsigned threads = 2) {
  mcs::EngineConfig config;
  config.protocol = kind;
  config.distribution = &dist;
  config.workload = &spec;
  config.record_history = record_history;
  config.runtime = runtime;
  config.parallel.num_threads = threads;
  return mcs::run(std::move(config));
}

TEST(WorkloadEngine, RequiresExactlyOneLoad) {
  const auto dist = test_dist();
  mcs::EngineConfig config;
  config.distribution = &dist;
  EXPECT_THROW((void)mcs::run(std::move(config)), std::logic_error);

  workload::Spec spec;
  std::vector<mcs::Script> scripts(6);
  mcs::EngineConfig both;
  both.distribution = &dist;
  both.scripts = &scripts;
  both.workload = &spec;
  EXPECT_THROW((void)mcs::run(std::move(both)), std::logic_error);
}

TEST(WorkloadEngine, RunsOnAllFourRuntimes) {
  const auto dist = graph::topo::complete(4, 8);
  workload::Spec spec;
  spec.ops_per_process = 50;
  spec.read_fraction = 0.8;
  spec.seed = 5;
  const std::uint64_t target = spec.ops_per_process * 4;

  for (const auto runtime :
       {mcs::EngineRuntime::kSimulator, mcs::EngineRuntime::kParallelSim,
        mcs::EngineRuntime::kThreads, mcs::EngineRuntime::kSockets}) {
    // PRAM completes every op in place; atomic-home waits for the home's
    // reply, so its latencies are non-zero and its completions run on
    // whichever owner thread handles the reply.
    for (const auto kind :
         {mcs::ProtocolKind::kPramPartial, mcs::ProtocolKind::kAtomicHome}) {
      SCOPED_TRACE(std::string(mcs::to_string(kind)) + " on runtime " +
                   std::to_string(static_cast<int>(runtime)));
      const auto r =
          run_workload_on(runtime, dist, spec, kind, /*record_history=*/true);
      EXPECT_EQ(r.ops_issued, target);
      EXPECT_EQ(r.ops_completed, target);
      EXPECT_EQ(r.ops_censored, 0u);
      // One histogram per owner thread, merged: one sample per op.
      EXPECT_EQ(r.op_latency.samples(), r.ops_completed);
      EXPECT_EQ(r.op_latency.censored(), 0u);
      if (kind == mcs::ProtocolKind::kAtomicHome) {
        EXPECT_GT(r.op_latency.max_us(), 0u);
      }
      EXPECT_EQ(r.unfinished_clients, 0u);
      // record_history=true: the full History is there for the checkers.
      EXPECT_EQ(r.history.size(), target);
    }
  }
}

TEST(WorkloadEngine, OpenLoopCompletesAndChargesQueueing) {
  const auto dist = test_dist();
  workload::Spec spec;
  spec.ops_per_process = 200;
  spec.seed = 3;

  // Closed loop first: atomic-home RPC latency is ~2 ms per op.
  const auto closed = run_workload_on(
      mcs::EngineRuntime::kSimulator, dist, spec,
      mcs::ProtocolKind::kAtomicHome, /*record_history=*/false);
  EXPECT_EQ(closed.ops_completed, spec.ops_per_process * 6);

  // Open loop far over capacity (2000/s vs ~500/s service): every op
  // still completes, but waiting in the arrival backlog is charged to
  // the ops — the tail must stretch far past the closed-loop service
  // latency instead of being omitted.
  spec.arrival_rate = 2000.0;
  const auto open = run_workload_on(
      mcs::EngineRuntime::kSimulator, dist, spec,
      mcs::ProtocolKind::kAtomicHome, /*record_history=*/false);
  EXPECT_EQ(open.ops_completed, spec.ops_per_process * 6);
  EXPECT_EQ(open.ops_censored, 0u);

  const auto p50 = open.op_latency.quantile(0.5);
  const auto p99 = open.op_latency.quantile(0.99);
  const auto p999 = open.op_latency.quantile(0.999);
  ASSERT_FALSE(p999.censored);
  EXPECT_LE(p50.us, p99.us);
  EXPECT_LE(p99.us, p999.us);
  const auto closed_p99 = closed.op_latency.quantile(0.99);
  EXPECT_GT(p99.us, 4.0 * closed_p99.us)
      << "open-loop overload must surface queueing delay";

  // Open loop needs virtual time: the wall-clock runtimes reject it.
  EXPECT_THROW((void)run_workload_on(mcs::EngineRuntime::kThreads, dist, spec,
                                     mcs::ProtocolKind::kAtomicHome, false),
               std::logic_error);
}

/// The parallel root must produce the identical workload result at any
/// worker count — histograms merged over shards included.  (PR 6 pins
/// parallel-vs-parallel determinism; this extends it to the workload
/// path's per-shard latency capture.)
TEST(WorkloadEngine, ParallelResultIndependentOfThreadCount) {
  const auto dist = test_dist();
  workload::Spec spec;
  spec.ops_per_process = 300;
  spec.keys = workload::KeyDist::kZipf;
  spec.seed = 17;

  const auto r1 = run_workload_on(mcs::EngineRuntime::kParallelSim, dist, spec,
                                  mcs::ProtocolKind::kPramPartial, true, 1);
  const auto r2 = run_workload_on(mcs::EngineRuntime::kParallelSim, dist, spec,
                                  mcs::ProtocolKind::kPramPartial, true, 2);
  const auto r4 = run_workload_on(mcs::EngineRuntime::kParallelSim, dist, spec,
                                  mcs::ProtocolKind::kPramPartial, true, 4);

  EXPECT_EQ(r1.ops_completed, r2.ops_completed);
  EXPECT_EQ(r2.ops_completed, r4.ops_completed);
  EXPECT_EQ(r1.op_latency, r2.op_latency);
  EXPECT_EQ(r2.op_latency, r4.op_latency);
  EXPECT_EQ(r1.final_replicas, r2.final_replicas);
  EXPECT_EQ(r2.final_replicas, r4.final_replicas);

  // PRAM ops are wait-free, so every latency above is 0.  Atomic-home
  // ops wait for an RPC round trip: non-zero latencies, recorded into one
  // histogram per shard, must merge to the same ledger at any shard count.
  std::vector<mcs::ScenarioRunResult> rpc;
  for (const unsigned threads : {1U, 2U, 4U}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    rpc.push_back(run_workload_on(mcs::EngineRuntime::kParallelSim, dist, spec,
                                  mcs::ProtocolKind::kAtomicHome, false,
                                  threads));
    EXPECT_EQ(rpc.back().ops_completed, spec.ops_per_process * 6);
    EXPECT_EQ(rpc.back().op_latency.samples(), rpc.back().ops_completed);
    EXPECT_GT(rpc.back().op_latency.max_us(), 0u);
  }
  EXPECT_EQ(rpc[0].op_latency, rpc[1].op_latency);
  EXPECT_EQ(rpc[1].op_latency, rpc[2].op_latency);
}

/// Dead channels censor ops: they vanish from neither the count nor the
/// percentile ledger, and never masquerade as ~0-latency completions.
TEST(WorkloadEngine, DeadChannelsCensorInsteadOfDropping) {
  const auto dist = graph::topo::complete(3, 2);
  workload::Spec spec;
  spec.ops_per_process = 4;
  spec.read_fraction = 0.0;  // all writes: every op is an RPC for the home
  spec.seed = 9;

  mcs::EngineConfig config;
  config.protocol = mcs::ProtocolKind::kAtomicHome;
  config.distribution = &dist;
  config.workload = &spec;
  config.record_history = false;
  config.channel.drop_probability = 1.0;  // total black hole (ARQ engages)
  config.reliable.retransmit_after = millis(5);
  config.reliable.max_retransmits = 2;
  const auto r = mcs::run(std::move(config));

  EXPECT_TRUE(r.used_reliable_transport);
  EXPECT_FALSE(r.dead_channels.empty());
  EXPECT_GT(r.unfinished_clients, 0u);

  const std::uint64_t target = spec.ops_per_process * 3;
  EXPECT_GT(r.ops_censored, 0u);
  EXPECT_EQ(r.ops_completed + r.ops_censored, target);
  EXPECT_EQ(r.op_latency.samples(), r.ops_completed);
  EXPECT_EQ(r.op_latency.censored(), r.ops_censored);
  EXPECT_EQ(r.op_latency.total(), target);
  // The max quantile falls into the censored mass: "at least longer than
  // the run", not a number.
  EXPECT_TRUE(r.op_latency.quantile(1.0).censored);
}

std::uint64_t rss_kb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss > 0 ? static_cast<std::uint64_t>(usage.ru_maxrss) : 0;
}

/// Streaming + recorder discard mode: peak RSS must be independent of the
/// op count.  A 6x bigger run may not move the high-water mark by more
/// than a small fixed margin (a materialized Script or recorded History
/// would add tens of MB).
TEST(WorkloadEngine, PeakRssIndependentOfOpCount) {
  // Under TSan ru_maxrss measures the sanitizer's shadow and history
  // allocations, which grow with events executed regardless of product
  // memory — the assertion is meaningful only uninstrumented (it also
  // runs, and passes, under ASan's lighter shadow).
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "peak-RSS high-water is dominated by TSan shadow state";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "peak-RSS high-water is dominated by TSan shadow state";
#endif
#endif
  const auto dist = test_dist();
  workload::Spec spec;
  spec.ops_per_process = 10'000;
  spec.seed = 21;

  // Warm-up run: allocator pools, event queue, protocol state all reach
  // their steady-state footprint here.
  auto small = run_workload_on(mcs::EngineRuntime::kSimulator, dist, spec,
                               mcs::ProtocolKind::kPramPartial,
                               /*record_history=*/false);
  EXPECT_EQ(small.ops_completed, spec.ops_per_process * 6);
  EXPECT_EQ(small.history.size(), 0u);  // discard mode: nothing stored
  const std::uint64_t high_water_small = rss_kb();

  spec.ops_per_process = 60'000;
  auto big = run_workload_on(mcs::EngineRuntime::kSimulator, dist, spec,
                             mcs::ProtocolKind::kPramPartial,
                             /*record_history=*/false);
  EXPECT_EQ(big.ops_completed, spec.ops_per_process * 6);
  const std::uint64_t high_water_big = rss_kb();

  ASSERT_GT(high_water_small, 0u);
  EXPECT_LE(high_water_big, high_water_small + 24 * 1024)
      << "6x the ops moved peak RSS by more than 24 MB — something "
         "materializes per-op state";
}

}  // namespace
}  // namespace pardsm
