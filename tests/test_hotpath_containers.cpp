// Unit tests for the allocation-free hot-path containers introduced by
// the pooled-event refactor: the event pool (slot reuse, (time, seq) tie
// ordering), the kind interner (stable ids, round-trip names, ARQ
// wrapping), the small-buffer variable list (inline → heap spill), the
// wake-indexed causal buffer (rescan-equivalent delivery order), the ARQ
// layer's seq-indexed rings, the socket root's frame path, the wire
// decoders', ARQ receiver's, socket reader's, PRAM receiver's and ad-hoc
// receiver's defences against hostile frames, the ad-hoc span walk over
// in-process and decoded snapshots, and the allocation shapes of the
// per-process ledgers (sized by what a process touches, never by m or a
// VarId).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "mcs/causal_buffer.h"
#include "mcs/causal_partial_adhoc.h"
#include "mcs/driver.h"
#include "mcs/factory.h"
#include "mcs/replica_store.h"
#include "sharegraph/topologies.h"
#include "simnet/event_queue.h"
#include "simnet/kind_table.h"
#include "simnet/pair_map.h"
#include "simnet/reliable.h"
#include "simnet/rng.h"
#include "simnet/simulator.h"
#include "simnet/small_vec.h"
#include "simnet/socket_transport.h"
#include "simnet/stats.h"
#include "simnet/thread_runtime.h"
#include "simnet/wire.h"

// ---------------------------------------------------------------------------
// Global allocation counter: counts every operator new while armed and
// records the largest single request.  Used by the steady-state gates and
// the hostile-frame decoder test at the bottom of this file.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::size_t> g_max_alloc{0};
}  // namespace

// new is malloc-backed so the matching delete frees with std::free; GCC
// cannot see the pairing across the replaced global operators and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = g_max_alloc.load(std::memory_order_relaxed);
    while (size > seen && !g_max_alloc.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace pardsm {
namespace {

// ------------------------------------------------------------- EventQueue
TEST(EventPool, SlotsAreReusedAcrossPops) {
  EventQueue q;
  // Fill to depth 4, drain, refill: the pool must not grow past the peak.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 4; ++i) {
      q.schedule_timer(TimePoint{10 * round + i}, 0, static_cast<unsigned>(i));
    }
    while (!q.empty()) (void)q.pop();
  }
  EXPECT_EQ(q.pool_slots(), 4u);
  EXPECT_EQ(q.scheduled_total(), 200u);
}

TEST(EventPool, OrderingBreaksTiesBySequence) {
  EventQueue q;
  q.schedule_timer(TimePoint{5}, 0, 100);
  q.schedule_timer(TimePoint{1}, 0, 101);
  q.schedule_timer(TimePoint{5}, 0, 102);  // same time as 100: FIFO
  q.schedule_timer(TimePoint{1}, 0, 103);  // same time as 101: FIFO
  std::vector<std::uint64_t> tags;
  while (!q.empty()) tags.push_back(q.pop().timer_tag);
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{101, 103, 100, 102}));
}

TEST(EventPool, MixedTypedEventsCarryTheirPayloads) {
  EventQueue q;
  int fired = 0;
  q.schedule(TimePoint{3}, [&] { ++fired; });
  Message m;
  m.from = 1;
  m.to = 2;
  m.meta.kind = "MIX";
  q.schedule_deliver(TimePoint{1}, std::move(m));
  q.schedule_timer(TimePoint{2}, 7, 42);

  Event first = q.pop();
  ASSERT_EQ(first.type, Event::Type::kDeliver);
  EXPECT_EQ(first.msg.to, 2);
  EXPECT_EQ(first.msg.meta.kind.name(), "MIX");

  Event second = q.pop();
  ASSERT_EQ(second.type, Event::Type::kTimer);
  EXPECT_EQ(second.timer_who, 7);
  EXPECT_EQ(second.timer_tag, 42u);

  Event third = q.pop();
  ASSERT_EQ(third.type, Event::Type::kClosure);
  third.fire();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventPool, InPlacePopReferencesStayValidAcrossScheduling) {
  EventQueue q;
  q.schedule_timer(TimePoint{1}, 3, 30);
  Event& e = q.pop_ref();
  // Scheduling more events (forcing pool growth) must not invalidate `e`.
  for (int i = 0; i < 100; ++i) q.schedule_timer(TimePoint{2 + i}, 0, 0);
  EXPECT_EQ(e.timer_who, 3);
  EXPECT_EQ(e.timer_tag, 30u);
  q.release(e);
  while (!q.empty()) (void)q.pop();
}

// ------------------------------------------------------------ KindId
TEST(KindTable, StableIdsAndRoundTripNames) {
  const KindId a("HOTPATH-A");
  const KindId b("HOTPATH-B");
  const KindId a2("HOTPATH-A");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.name(), "HOTPATH-A");
  EXPECT_EQ(b.name(), "HOTPATH-B");
}

TEST(KindTable, DefaultIsEmptyKind) {
  const KindId none;
  EXPECT_EQ(none.value(), 0);
  EXPECT_EQ(none.name(), "");
  EXPECT_EQ(none, KindId(""));
}

TEST(KindTable, ArqWrappingIsCachedAndPrefixed) {
  const KindId base("HOTPATH-C");
  const KindId wrapped = arq_wrapped(base);
  EXPECT_EQ(wrapped.name(), "ARQ:HOTPATH-C");
  const std::size_t before = kind_table_size();
  EXPECT_EQ(arq_wrapped(base), wrapped);  // second wrap: cached
  EXPECT_EQ(kind_table_size(), before);
}

// ------------------------------------------------------------ SmallVec
TEST(SmallVecTest, StaysInlineUpToCapacity) {
  SmallVec<VarId, 2> v;
  EXPECT_TRUE(v.empty());
  v.push_back(10);
  v.push_back(20);
  EXPECT_TRUE(v.inline_storage());
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
}

TEST(SmallVecTest, SpillsToHeapPastCapacityAndKeepsContents) {
  SmallVec<VarId, 2> v{1, 2};
  v.push_back(3);
  EXPECT_FALSE(v.inline_storage());
  EXPECT_EQ(v.size(), 3u);
  for (VarId i = 0; i < 3; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i + 1);
  // And keeps growing.
  for (VarId i = 4; i <= 40; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 40u);
  EXPECT_EQ(v[39], 40);
}

TEST(SmallVecTest, CopyAndMoveBothStorageModes) {
  SmallVec<VarId, 2> small{7};
  SmallVec<VarId, 2> big{1, 2, 3, 4};

  SmallVec<VarId, 2> small_copy = small;
  EXPECT_EQ(small_copy, small);
  EXPECT_TRUE(small_copy.inline_storage());

  SmallVec<VarId, 2> big_copy = big;
  EXPECT_EQ(big_copy, big);

  SmallVec<VarId, 2> moved = std::move(big_copy);
  EXPECT_EQ(moved, big);
  EXPECT_TRUE(big_copy.empty());  // NOLINT(bugprone-use-after-move)

  moved = {9};  // initializer-list assignment resets
  EXPECT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0], 9);
}

TEST(SmallVecTest, AssignmentReleasesAndCopies) {
  SmallVec<VarId, 2> a{1, 2, 3};
  SmallVec<VarId, 2> b{5};
  a = b;
  EXPECT_EQ(a, b);
  b = SmallVec<VarId, 2>{1, 2, 3, 4};
  EXPECT_EQ(b.size(), 4u);
}

// capacity * 2 in 32 bits wraps at 2^31: the doubling must refuse loudly
// instead of allocating a zero-sized buffer and writing past it.  The
// computation is a public static exactly so this is testable without
// materializing 2^31 elements.
TEST(SmallVecTest, GrowRefusesCapacityOverflow) {
  using V = SmallVec<VarId, 2>;
  EXPECT_EQ(V::next_capacity(2), 4u);
  EXPECT_EQ(V::next_capacity(1u << 30), 1u << 31);
  EXPECT_THROW((void)V::next_capacity((1u << 31) + 1), std::logic_error);
  EXPECT_THROW((void)V::next_capacity(~std::uint32_t{0}), std::logic_error);
}

// --------------------------------------------------------------- PairMap
TEST(PairMapTest, FindMissesUntilInserted) {
  PairMap<double> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42), nullptr);
  map.get_or_insert(42, 0.5) = 0.7;
  ASSERT_NE(map.find(42), nullptr);
  EXPECT_EQ(*map.find(42), 0.7);
  EXPECT_EQ(map.find(43), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(PairMapTest, GetOrInsertKeepsExistingValue) {
  PairMap<std::uint32_t> map;
  ++map.get_or_insert(7, 0);
  ++map.get_or_insert(7, 0);
  EXPECT_EQ(*map.find(7), 2u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(PairMapTest, SurvivesGrowthWithRegularPairKeys) {
  // Packed pair indices are stripes of consecutive integers — the worst
  // case for a weak hash.  Insert a large n×n-ish sample and verify every
  // key still resolves after many rehashes.
  PairMap<std::uint64_t> map;
  const std::uint64_t n = 97;
  for (std::uint64_t from = 0; from < n; ++from) {
    for (std::uint64_t to = 0; to < n; to += 3) {
      map.get_or_insert(from * n + to, 0) = from * 1000 + to;
    }
  }
  for (std::uint64_t from = 0; from < n; ++from) {
    for (std::uint64_t to = 0; to < n; ++to) {
      const auto* v = map.find(from * n + to);
      if (to % 3 == 0) {
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, from * 1000 + to);
      } else {
        EXPECT_EQ(v, nullptr);
      }
    }
  }
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.memory_bytes(), 0u);
}

// ----------------------------------------------------------- CausalBuffer
// A causally consistent update set: writer[u] issued update u with clock
// clock[u], after incorporating a random earlier update (and, through its
// clock, everything that update depended on).
struct UpdateSet {
  std::vector<ProcessId> writer;
  std::vector<mcs::VectorClock> clock;
};

UpdateSet make_update_set(std::size_t writers, std::size_t writes, Rng& rng) {
  UpdateSet set;
  std::vector<mcs::VectorClock> at(writers, mcs::VectorClock(writers));
  for (std::size_t u = 0; u < writes; ++u) {
    const auto w = static_cast<ProcessId>(rng.below(writers));
    auto& vc = at[static_cast<std::size_t>(w)];
    if (u > 0 && rng.below(2) == 0) vc.merge(set.clock[rng.below(u)]);
    vc.increment(w);
    set.writer.push_back(w);
    set.clock.push_back(vc);
  }
  return set;
}

// Arrivals of update u are messages with id = u, from its writer.
Message arrival_of(const UpdateSet& set, std::size_t u) {
  Message m;
  m.from = set.writer[u];
  m.id = u;
  return m;
}

// The receiving side: a process outside the writer set.
struct ClockOwner {
  const UpdateSet* set = nullptr;
  mcs::VectorClock mine;
  std::vector<std::uint64_t> delivered;

  [[nodiscard]] mcs::Readiness check(const Message& m,
                                     std::uint64_t& resume) const {
    return mcs::clock_readiness(mine, set->clock[m.id], m.from, resume);
  }
  std::uint32_t deliver(const Message& m) {
    mine.merge(set->clock[m.id]);
    delivered.push_back(m.id);
    return static_cast<std::uint32_t>(m.from);
  }
};

// The oracle: the rescan every causal protocol used before the buffer —
// after each arrival, deliver the first ready update in arrival order
// until none is ready.
std::vector<std::uint64_t> rescan_order(const UpdateSet& set,
                                        const std::vector<Message>& arrivals) {
  mcs::VectorClock mine(set.clock.front().size());
  std::deque<Message> buffer;
  std::vector<std::uint64_t> order;
  for (const Message& m : arrivals) {
    buffer.push_back(m);
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto it = buffer.begin(); it != buffer.end(); ++it) {
        if (!mine.ready_from(set.clock[it->id], it->from)) continue;
        mine.merge(set.clock[it->id]);
        order.push_back(it->id);
        buffer.erase(it);
        progress = true;
        break;
      }
    }
  }
  return order;
}

TEST(CausalBufferTest, DeliversInTheRescanOrder) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t writers = 2 + rng.below(5);
    const UpdateSet set = make_update_set(writers, 8 + rng.below(40), rng);
    std::vector<Message> arrivals;
    for (std::size_t u = 0; u < set.writer.size(); ++u) {
      arrivals.push_back(arrival_of(set, u));
    }
    const bool duplicates = trial % 2 == 1;
    if (duplicates) {
      for (std::size_t u = 0; u < set.writer.size(); ++u) {
        if (rng.below(3) == 0) arrivals.push_back(arrival_of(set, u));
      }
    }
    for (std::size_t i = arrivals.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(arrivals[i - 1], arrivals[rng.below(i)]);
    }

    ClockOwner owner{&set, mcs::VectorClock(writers), {}};
    mcs::CausalBuffer buffer;
    buffer.set_key_count(writers);
    mcs::ProtocolStats stats;
    for (const Message& m : arrivals) buffer.arrive(m, owner, stats);

    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(owner.delivered, rescan_order(set, arrivals));
    EXPECT_EQ(owner.delivered.size(), set.writer.size());
    // Every update got delivered, so every copy left is stale: dropped.
    EXPECT_EQ(buffer.size(), 0u);
  }
}

TEST(CausalBufferTest, SteadyStateIsAllocationFree) {
  Rng rng(7);
  const std::size_t writers = 4;
  const UpdateSet set = make_update_set(writers, 200, rng);
  ClockOwner owner{&set, mcs::VectorClock(writers), {}};
  owner.delivered.reserve(set.writer.size());
  mcs::CausalBuffer buffer;
  buffer.set_key_count(writers);
  mcs::ProtocolStats stats;
  // Reversed arrival order: nearly every update waits for its
  // predecessors, so the buffer is driven to (almost) full depth.
  const auto drive = [&] {
    for (std::size_t u = set.writer.size(); u-- > 0;) {
      buffer.arrive(arrival_of(set, u), owner, stats);
    }
  };
  drive();
  ASSERT_EQ(owner.delivered.size(), set.writer.size());
  ASSERT_GT(stats.max_buffer_depth, set.writer.size() / 2);

  owner.mine = mcs::VectorClock(writers);
  owner.delivered.clear();
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  drive();
  g_count_allocs.store(false);
  EXPECT_EQ(owner.delivered.size(), set.writer.size());
  EXPECT_EQ(g_alloc_count.load(), 0u);
}

// ------------------------------------------------- steady-state allocation
// The event queue alone under the hold model the simulators run: once the
// pool, the sorted run and the heap have reached the depth's high-water
// mark, popping one event and scheduling one later allocates nothing, and
// the pops keep time order.
TEST(SteadyStateAllocations, EventQueueHoldLoopIsAllocationFree) {
  constexpr int kDepth = 1024;
  constexpr int kEvents = 10'000;
  EventQueue q;
  Rng rng(11);
  std::int64_t now = 0;
  std::uint64_t inversions = 0;
  const auto pop = [&] {
    Event& e = q.pop_ref();
    if (e.when.us < now) ++inversions;
    now = e.when.us;
    q.release(e);
  };
  // Pop one, push one up to 2 ms later: some pushes follow the latest
  // pending time and join the run, the rest go to the heap.
  const auto hold = [&] {
    pop();
    q.schedule_timer(TimePoint{now + rng.range(1, 2000)}, 0, 0);
  };
  for (int i = 0; i < kDepth; ++i) {
    q.schedule_timer(TimePoint{rng.range(0, 2000)}, 0, 0);
  }
  for (int i = 0; i < kEvents; ++i) hold();

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < kEvents; ++i) hold();
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kDepth));
  EXPECT_EQ(q.pool_slots(), static_cast<std::size_t>(kDepth));
  while (!q.empty()) pop();
  EXPECT_EQ(inversions, 0u);
}

// Two cadences under the hold model, as a lossy batched run schedules
// them: a popped delivery schedules the next one 1.000 to 1.006 ms out
// and, one time in three, an ARQ-style deadline 40 ms out; a popped
// deadline schedules nothing.  The schedule is periodic, so once every
// run's ring and the pool have reached the high-water mark the loop
// allocates nothing, the heap stays unused and the pops keep time order.
TEST(SteadyStateAllocations, EventQueueTwoCadenceHoldLoopIsAllocationFree) {
  constexpr int kEvents = 20'000;
  EventQueue q;
  std::int64_t now = 0;
  std::uint64_t inversions = 0;
  std::uint64_t deliveries = 0;
  const auto hold = [&] {
    Event& e = q.pop_ref();
    if (e.when.us < now) ++inversions;
    now = e.when.us;
    const bool deadline = e.timer_tag == 1;
    q.release(e);
    if (deadline) return;
    const auto n = static_cast<std::int64_t>(deliveries++);
    q.schedule_timer(TimePoint{now + 1'000 + n % 7}, 0, 0);
    if (n % 3 == 0) q.schedule_timer(TimePoint{now + 40'000}, 0, 1);
  };
  for (int i = 0; i < 64; ++i) {
    q.schedule_timer(TimePoint{i * 16}, 0, 0);
  }
  for (int i = 0; i < kEvents; ++i) hold();
  const std::size_t slots = q.pool_slots();

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < kEvents; ++i) hold();
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);
  EXPECT_EQ(q.pool_slots(), slots);
  EXPECT_EQ(q.heap_size(), 0u);
  while (!q.empty()) {
    Event& e = q.pop_ref();
    if (e.when.us < now) ++inversions;
    now = e.when.us;
    q.release(e);
  }
  EXPECT_EQ(inversions, 0u);
}

// The tentpole's hard gate: once the pools are warm, delivering messages
// must not allocate per message.  A PRAM workload on a clique-rich ring
// multiplies messages per write, so an allocation-per-message regression
// shows up as counts scaling with messages; the budget below only allows
// the per-write costs (one body make_shared, history append amortization,
// client callbacks).
TEST(SteadyStateAllocations, DeliverPathIsAllocationFree) {
  const auto dist = graph::topo::complete(12, 4);  // C(x) = all 12
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 20;
  spec.read_fraction = 0.0;  // writes only: maximum deliveries
  spec.seed = 99;
  const auto scripts = mcs::make_random_scripts(dist, spec);

  // Warm run: grows pools, interner, history vectors, etc.
  const auto warm = mcs::run({.protocol = mcs::ProtocolKind::kPramPartial,
                              .distribution = &dist,
                              .scripts = &scripts});
  const std::uint64_t messages = warm.total_traffic.msgs_sent;
  const std::uint64_t writes = 12 * 20;
  ASSERT_EQ(messages, writes * 11);  // every write updates 11 replicas

  // Counted run: identical workload, fresh system (pools start cold again
  // inside mcs::run, so the budget must cover pool growth too — what
  // it must NOT cover is an allocation per delivered message).
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const auto counted = mcs::run({.protocol = mcs::ProtocolKind::kPramPartial,
                                 .distribution = &dist,
                                 .scripts = &scripts});
  g_count_allocs.store(false);
  ASSERT_EQ(counted.total_traffic.msgs_sent, messages);

  const std::uint64_t allocs = g_alloc_count.load();
  // 2640 deliveries vs 240 writes: before the refactor this took > 4
  // allocations per delivered message (closure + meta strings/vectors +
  // heap churn), i.e. > 10000.  Now the whole run — setup, pool growth,
  // bodies, history, result collection included — must fit well under
  // one allocation per delivered message.
  EXPECT_LT(allocs, messages)
      << "deliver path allocates per message again: " << allocs
      << " allocations for " << messages << " deliveries";
}

// The pooled-body plane's hard gate, per protocol: once every pool,
// freelist and container is warm, a full operation lifecycle — issue,
// body creation, fanout, delivery, apply, completion — performs ZERO heap
// allocations on the simulator root.  Unlike the budgeted mcs::run
// gate above, this drives processes directly inside ONE system so the
// measured rounds really are steady state (mcs::run rebuilds the
// system, whose cold pools would dominate the count).
TEST(SteadyStateAllocations, EveryProtocolSteadyStateOpIsAllocationFree) {
  for (const mcs::ProtocolKind kind : mcs::all_protocols()) {
    SCOPED_TRACE(mcs::to_string(kind));
    // Full replication on 6 processes: C(x) = everyone (maximum fanout),
    // n ≤ 8 keeps vector clocks and prior-count vectors inline.
    const auto dist = graph::topo::complete(6, 4);
    Simulator sim;
    mcs::HistoryRecorder recorder(dist.process_count(), dist.var_count);
    recorder.use_discard_mode();  // O(1) memory: no per-op history append
    auto processes = mcs::make_processes(kind, dist, recorder);
    for (auto& proc : processes) {
      const ProcessId assigned = sim.add_endpoint(proc.get());
      ASSERT_EQ(assigned, proc->id());
      proc->attach(sim);
    }

    std::uint64_t completed = 0;
    Value next_value = 1;
    // One write + one read of every variable by every process, each op
    // drained to completion before the next is issued (blocking protocols
    // allow one operation in flight per process).
    const auto round = [&] {
      for (auto& proc : processes) {
        for (VarId x = 0; x < static_cast<VarId>(dist.var_count); ++x) {
          proc->write(x, next_value++, [&completed] { ++completed; });
          sim.run();
          proc->read(x, [&completed](Value) { ++completed; });
          sim.run();
        }
      }
    };
    // Warm rounds: grow the body pools, event pool, recycling-map
    // freelists and every per-key container entry the workload touches.
    for (int warm = 0; warm < 3; ++warm) round();

    const std::uint64_t before = completed;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    round();
    g_count_allocs.store(false);

    const std::uint64_t ops = completed - before;
    EXPECT_EQ(ops, 2u * dist.process_count() * dist.var_count);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << mcs::to_string(kind) << ": " << g_alloc_count.load()
        << " heap allocations across " << ops << " steady-state operations";
  }
}

// The ARQ layer's gate: once its rings have grown to the traffic's
// high-water mark, sending, acknowledging, buffering frames past a gap
// and resending a lost one allocate nothing.  A per-frame container node
// on either side would show up here as 10 000 allocations or more.
struct Tick final : MessageBody {};

struct CountingSink final : Endpoint {
  std::uint64_t got = 0;
  void on_message(const Message&) override { ++got; }
};

TEST(SteadyStateAllocations, ArqFramesAreAllocationFree) {
  SimOptions options;
  options.seed = 17;
  options.channel.drop_probability = 0.01;  // FIFO: a loss opens a gap
  Simulator sim(std::move(options));
  ReliableTransport rel(sim, {});
  CountingSink a, b;
  const ProcessId s = rel.add_endpoint(&a);
  const ProcessId r = rel.add_endpoint(&b);
  BodyPool<Tick>& pool = sim.arena(s).pool<Tick>();
  const MessageMeta meta{KindId("TICK"), 4, 0, {}};
  constexpr int kBurst = 100;
  const auto burst = [&] {
    for (int i = 0; i < kBurst; ++i) {
      rel.send(s, r, BodyRef::adopt(pool.create()), meta);
    }
    sim.run();
  };
  for (int warm = 0; warm < 50; ++warm) burst();
  const std::uint64_t retx_before = rel.retransmissions();
  const std::uint64_t got_before = b.got;

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int round = 0; round < 100; ++round) burst();
  g_count_allocs.store(false);

  EXPECT_EQ(b.got - got_before, 100u * kBurst);
  EXPECT_GT(rel.retransmissions(), retx_before);  // losses were repaired
  EXPECT_LE(g_alloc_count.load(), 4u)
      << g_alloc_count.load() << " heap allocations across "
      << 100 * kBurst << " ARQ frames";
}

// The socket root's gate: once the channel's encoding buffer, the read
// buffers and the body pool are warm, a frame encoded and written on the
// sender's worker, read and delivered on the receiver's worker, allocates
// nothing.  A per-frame copy, queue node or decoded string would show up
// here as 10 000 allocations or more.
struct WireTick final : MessageBody {
  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kTestPayload;
  }
  void wire_encode(WireWriter& w) const override { w.u32(7); }
};
const wire::BodyRegistrar kWireTickCodec(
    wire::kTestPayload, [](WireReader& r, BodyArena& arena) -> BodyRef {
      (void)r.u32();
      return BodyRef::adopt(arena.create<WireTick>());
    });

struct AtomicSink final : Endpoint {
  std::atomic<std::uint64_t> got{0};
  void on_message(const Message&) override { ++got; }
};

TEST(SteadyStateAllocations, SocketFramesAreAllocationFree) {
  SocketOptions options;
  options.total_processes = 2;
  SocketTransport transport(std::move(options));
  AtomicSink a, b;
  const ProcessId s = transport.add_endpoint(&a);
  const ProcessId r = transport.add_endpoint(&b);
  transport.start();
  BodyPool<WireTick>& pool = transport.arena(s).pool<WireTick>();
  const MessageMeta meta{KindId("TICK"), 4, 0, {}};
  constexpr int kBurst = 100;
  const auto send_burst = [&] {
    for (int i = 0; i < kBurst; ++i) {
      transport.send(s, r, BodyRef::adopt(pool.create()), meta);
    }
  };
  const auto burst = [&] {
    // One pointer fits the task's std::function without a heap block.
    transport.post(s, [fn = &send_burst] { (*fn)(); });
    ASSERT_TRUE(transport.await_quiescence(std::chrono::seconds(10)));
  };
  for (int warm = 0; warm < 20; ++warm) burst();
  const std::uint64_t got_before = b.got.load();

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int round = 0; round < 100; ++round) burst();
  g_count_allocs.store(false);

  EXPECT_EQ(b.got.load() - got_before, 100u * kBurst);
  EXPECT_EQ(transport.counters().frames_rejected, 0u);
  // Measured 0: the mailbox queues recycle their chunks.  The budget
  // covers a rare partial write's queued copy.
  EXPECT_LE(g_alloc_count.load(), 4u)
      << g_alloc_count.load() << " heap allocations across "
      << 100 * kBurst << " socket frames";
  transport.stop();
}

// The thread root's gate: a message sent on one worker and delivered on
// another crosses two mailbox queues (the posted task's and the
// message's).  Their chunks come back to each mailbox's pool, so once the
// queues have reached their depth a posted stream allocates nothing; a
// plain deque allocated a chunk every few messages (about 2 000 here).
TEST(SteadyStateAllocations, ThreadRuntimeFramesAreAllocationFree) {
  ThreadRuntime rt;
  AtomicSink a, b;
  const ProcessId s = rt.add_endpoint(&a);
  const ProcessId r = rt.add_endpoint(&b);
  rt.start();
  BodyPool<Tick>& pool = rt.arena(s).pool<Tick>();
  const MessageMeta meta{KindId("TICK"), 4, 0, {}};
  constexpr int kBurst = 100;
  const auto send_burst = [&] {
    for (int i = 0; i < kBurst; ++i) {
      rt.send(s, r, BodyRef::adopt(pool.create()), meta);
    }
  };
  const auto burst = [&] {
    rt.post(s, [fn = &send_burst] { (*fn)(); });
    ASSERT_TRUE(rt.await_quiescence(std::chrono::seconds(10)));
  };
  // Warm up at the deepest backlog a burst can build: the receiver's
  // worker is held until the whole burst is queued, so its queues reach
  // their high-water depth here, not in a measured burst that happens to
  // find the receiver descheduled (a loaded machine did that).
  std::atomic<bool> queued{false};
  rt.post(r, [&queued] {
    while (!queued.load()) std::this_thread::yield();
  });
  rt.post(s, [&] {
    send_burst();
    queued.store(true);
  });
  ASSERT_TRUE(rt.await_quiescence(std::chrono::seconds(10)));
  for (int warm = 0; warm < 20; ++warm) burst();
  const std::uint64_t got_before = b.got.load();

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int round = 0; round < 100; ++round) burst();
  g_count_allocs.store(false);

  EXPECT_EQ(b.got.load() - got_before, 100u * kBurst);
  EXPECT_LE(g_alloc_count.load(), 4u)
      << g_alloc_count.load() << " heap allocations across "
      << 100 * kBurst << " posted messages";
  rt.stop();
}

// ------------------------------------------------------- hostile frames
// A peer names message kinds by spelling.  The receiver only looks them
// up: an unregistered spelling is rejected before it can enter the
// process-global kind table (which a peer could otherwise grow by
// gigabytes, until a legitimate arq_wrapped() overflowed it), while
// "ARQ:" + a registered kind and kinds inside batch frames still decode.
TEST(HostileFrames, UnknownKindsAreRejectedWithoutInterning) {
  const auto meta_bytes = [](std::string_view kind) {
    WireWriter w;
    w.str(kind);
    w.u64(1);  // control bytes
    w.u64(2);  // payload bytes
    w.boolean(false);
    w.u16(0);  // no variables
    return w.take();
  };
  const auto decode = [&](std::string_view kind) -> std::string {
    const std::vector<std::uint8_t> bytes = meta_bytes(kind);
    WireReader r(bytes);
    try {
      return std::string(wire::decode_meta(r).kind.name());
    } catch (const std::logic_error& e) {
      return std::string("rejected: ") + e.what();
    }
  };
  const KindId base("HOSTILE-BASE");
  const std::size_t before = kind_table_size();
  for (const std::string_view kind :
       {"NEVER-REGISTERED", "ARQ:NEVER-REGISTERED", "ARQ:ARQ:HOSTILE-BASE",
        "HOSTILE-BASE ", "ARQ:ARQ:", "hostile-base"}) {
    SCOPED_TRACE(kind);
    EXPECT_NE(decode(kind).find("unknown kind"), std::string::npos);
  }
  EXPECT_EQ(kind_table_size(), before);

  // "ARQ:" + a registered base is wrapped once, as arq_wrapped() would.
  EXPECT_EQ(decode("HOSTILE-BASE"), "HOSTILE-BASE");
  EXPECT_EQ(decode("ARQ:HOSTILE-BASE"), "ARQ:HOSTILE-BASE");
  EXPECT_EQ(kind_table_size(), before + 1);
  EXPECT_EQ(decode("ARQ:HOSTILE-BASE"), "ARQ:HOSTILE-BASE");
  EXPECT_EQ(kind_table_size(), before + 1);
  // An ARQ frame wraps its payload's kind: an ARQ-wrapped payload kind
  // would add "ARQ:ARQ:..." entries, one per frame, so it is refused.
  EXPECT_THROW((void)arq_wrapped(arq_wrapped(base)), std::logic_error);

  // A batch of two items with registered kinds, one ARQ-wrapped.
  WireWriter batch;
  batch.u32(wire::kBatchFrame);
  batch.u32(2);
  for (const std::string_view kind : {"HOSTILE-BASE", "ARQ:HOSTILE-BASE"}) {
    batch.i64(0);  // enqueue time
    for (const std::uint8_t b : meta_bytes(kind)) batch.u8(b);
    batch.u32(wire::kArqAck);  // any decodable body
    batch.u64(0);
  }
  BodyArena arena(/*concurrent=*/false);
  WireReader r(batch.bytes());
  EXPECT_NO_THROW((void)wire::decode_body(r, arena));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(kind_table_size(), before + 1);
}

// A frame's length prefix does not size the socket root's read buffer:
// after a HELLO, a prefix claiming 64 MiB followed by 10 000 bytes grows
// the connection's buffer only as far as those bytes need.
TEST(HostileFrames, SocketReadBufferGrowsWithArrivedBytes) {
  SocketOptions options;
  options.total_processes = 2;
  // One heartbeat per channel, at start: the rest of bytes_received is
  // the raw connection's.
  options.heartbeat_period = millis(5000);
  options.heartbeat_timeout = millis(10000);
  SocketTransport transport(std::move(options));
  AtomicSink a, b;
  transport.add_endpoint(&a);
  transport.add_endpoint(&b);
  transport.start();
  const auto settle =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (transport.counters().heartbeats_received < 2 &&
         std::chrono::steady_clock::now() < settle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(transport.counters().heartbeats_received, 2u);

  WireWriter w;
  w.u32(17);  // HELLO: [type][from][to][incarnation]
  w.u8(1);
  w.i32(0);
  w.i32(1);
  w.u64(1);
  w.u32(64u << 20);  // a frame of 64 MiB, of which 10 000 bytes arrive
  for (int i = 0; i < 10'000; ++i) w.u8(0);
  const std::uint64_t after_hello =
      transport.counters().bytes_received + w.size() - 21;

  g_max_alloc.store(0);
  g_count_allocs.store(true);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(transport.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::write(fd, w.bytes().data(), w.size()),
            static_cast<ssize_t>(w.size()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (transport.counters().bytes_received < after_hello &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  g_count_allocs.store(false);

  EXPECT_EQ(transport.counters().bytes_received, after_hello);
  EXPECT_EQ(transport.counters().frames_rejected, 0u);
  EXPECT_LE(g_max_alloc.load(), std::size_t{64} << 10);
  ::close(fd);
  transport.stop();
}

// A decoder must check every wire count against the bytes left in the
// frame before it sizes a container: a short frame claiming 2^28 elements
// is rejected by the wire check without ever asking for the memory.
TEST(HostileFrames, CountsNeverSizeAnAllocation) {
  constexpr std::uint32_t kHuge = 1U << 28;
  const auto adhoc_header = [](WireWriter& w, std::uint32_t entries) {
    w.u32(wire::kAdHocMsg);
    w.i32(0);         // x
    w.i64(7);         // v
    w.boolean(true);  // has_value
    w.i32(1);         // writer
    w.i64(0);         // write seq
    w.i64(1);         // var_seq
    w.u32(entries);
  };
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> frames;
  {
    WireWriter w;  // 2^28 dependency entries
    adhoc_header(w, kHuge);
    w.i32(0);
    w.u32(0);
    frames.emplace_back("ad-hoc entries", w.take());
  }
  {
    WireWriter w;  // one entry claiming 2^28 counters
    adhoc_header(w, 1);
    w.i32(0);
    w.u32(kHuge);
    frames.emplace_back("ad-hoc counters", w.take());
  }
  {
    WireWriter w;
    w.u32(wire::kBatchFrame);
    w.u32(kHuge);
    frames.emplace_back("batch items", w.take());
  }
  for (const auto type : {wire::kResyncRequest, wire::kResyncResponse}) {
    WireWriter w;
    w.u32(type);
    w.u32(1);  // epoch
    w.u32(kHuge);
    frames.emplace_back("resync " + std::to_string(type), w.take());
  }
  ASSERT_EQ(frames[0].second.size(), 49u);
  ASSERT_EQ(frames[1].second.size(), 49u);
  ASSERT_EQ(frames[2].second.size(), 8u);

  BodyArena arena(/*concurrent=*/false);
  for (const auto& [name, bytes] : frames) {
    SCOPED_TRACE(name);
    WireReader r(bytes);
    std::string error;
    g_max_alloc.store(0);
    g_count_allocs.store(true);
    try {
      (void)wire::decode_body(r, arena);
    } catch (const std::logic_error& e) {
      error = e.what();
    }
    g_count_allocs.store(false);
    EXPECT_NE(error.find("element count exceeds the frame"),
              std::string::npos)
        << error;
    EXPECT_LE(g_max_alloc.load(), std::size_t{1} << 20);
  }
}

// Nested frames must hit the nesting cap, not the reader's stack: a chain
// of 100 000 ARQ DATA headers (about 3 MB, far below the socket's frame
// limit) overflowed the decoder's recursion before the cap existed.
TEST(HostileFrames, NestingDepthIsCapped) {
  const auto chain = [](int levels) {
    WireWriter w;
    for (int i = 0; i < levels; ++i) {
      w.u32(wire::kArqData);
      w.u64(static_cast<std::uint64_t>(i));  // seq
      wire::encode_meta(w, MessageMeta{});
    }
    w.u32(wire::kArqAck);
    w.u64(0);  // cumulative
    return w.take();
  };
  BodyArena arena(/*concurrent=*/false);
  {
    // The deepest accepted stack: kMaxBodyDepth decode_body levels.
    const std::vector<std::uint8_t> bytes = chain(wire::kMaxBodyDepth - 1);
    WireReader r(bytes);
    EXPECT_NO_THROW((void)wire::decode_body(r, arena));
    EXPECT_TRUE(r.done());
  }
  for (const int levels : {wire::kMaxBodyDepth, 100'000}) {
    SCOPED_TRACE(levels);
    const std::vector<std::uint8_t> bytes = chain(levels);
    WireReader r(bytes);
    std::string error;
    try {
      (void)wire::decode_body(r, arena);
    } catch (const std::logic_error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("body nesting exceeds the limit"), std::string::npos)
        << error;
  }
}

// The ARQ receiver's reordering ring is sized by how far a frame's seq
// lies past the last delivered one, so a frame claiming seq 2^63 (or just
// 10^9 ahead) must be discarded and counted, without allocating.  A frame
// at the edge of the window is buffered, in a ring of at most the
// window's size.
TEST(HostileFrames, ArqSeqFarAheadIsDiscardedNotBuffered) {
  const auto data_frame = [](std::uint64_t seq) {
    WireWriter w;
    w.u32(wire::kArqData);
    w.u64(seq);
    wire::encode_meta(w, MessageMeta{});
    w.u32(wire::kArqAck);  // any decodable payload
    w.u64(0);
    return w.take();
  };
  Simulator sim;
  ReliableTransport rel(sim, {});
  CountingSink a, b;
  const ProcessId s = rel.add_endpoint(&a);
  const ProcessId r = rel.add_endpoint(&b);
  const std::uint64_t window = ReliableTransport::kReceiveWindow;
  const auto inject = [&](std::uint64_t seq) {
    const std::vector<std::uint8_t> bytes = data_frame(seq);
    WireReader reader(bytes);
    BodyRef body = wire::decode_body(reader, sim.arena(s));
    g_alloc_count.store(0);
    g_max_alloc.store(0);
    g_count_allocs.store(true);
    sim.send(s, r, std::move(body), MessageMeta{});
    sim.run();
    g_count_allocs.store(false);
  };
  inject(0);  // a stale duplicate: warms the network, pools and peer state
  for (const std::uint64_t seq :
       {std::uint64_t{1} << 63, std::uint64_t{1'000'000'000}, ~std::uint64_t{0},
        window + 1}) {
    SCOPED_TRACE(seq);
    const std::uint64_t discards = rel.window_discards();
    inject(seq);
    EXPECT_EQ(rel.window_discards(), discards + 1);
    EXPECT_EQ(g_alloc_count.load(), 0u);
  }
  inject(window);  // the farthest seq a receiver buffers
  EXPECT_EQ(rel.window_discards(), 4u);
  EXPECT_LE(g_max_alloc.load(), window * sizeof(BodyRef));
  EXPECT_EQ(b.got, 0u);  // nothing delivered past the gap at seq 1
}

// An ACK for a frame the sender never sent (cumulative = 2^64 - 1) is
// ignored: it must not pop the frames still in flight, which are then
// resent and delivered in order once the channel heals.
TEST(HostileFrames, ArqAckBeyondLastSentSeqIsIgnored) {
  Simulator sim;
  ReliableTransport rel(sim, {});
  CountingSink a, b;
  const ProcessId s = rel.add_endpoint(&a);
  const ProcessId r = rel.add_endpoint(&b);
  sim.ensure_network().sever(s, r);
  BodyPool<Tick>& pool = sim.arena(s).pool<Tick>();
  for (int i = 0; i < 3; ++i) {
    rel.send(s, r, BodyRef::adopt(pool.create()), MessageMeta{});
  }
  WireWriter w;
  w.u32(wire::kArqAck);
  w.u64(~std::uint64_t{0});
  const std::vector<std::uint8_t> bytes = w.take();
  WireReader reader(bytes);
  sim.send(r, s, wire::decode_body(reader, sim.arena(r)), MessageMeta{});
  sim.run_until(TimePoint{millis(5).us});
  sim.network().heal(s, r);
  sim.run();
  EXPECT_EQ(b.got, 3u);
  EXPECT_EQ(rel.retransmissions(), 3u);  // one deadline resend per frame
  EXPECT_TRUE(rel.dead_channels().empty());
}

// A PRAM update is applied only from a member of C(x) other than the
// receiver: one claiming to come from a share-graph neighbour outside
// C(x), from an unrelated process or from the receiver itself is
// rejected, and the replica keeps what it had.
TEST(HostileFrames, PramUpdateFromOutsideTheCliqueIsRejected) {
  graph::Distribution dist;
  dist.var_count = 3;
  dist.per_process = {{0, 1}, {0}, {1}, {2}};  // C(0) = {0, 1}
  Simulator sim;
  mcs::HistoryRecorder recorder(dist.process_count(), dist.var_count);
  auto processes =
      mcs::make_processes(mcs::ProtocolKind::kPramPartial, dist, recorder);
  for (auto& proc : processes) {
    ASSERT_EQ(sim.add_endpoint(proc.get()), proc->id());
    proc->attach(sim);
  }
  mcs::McsProcess& receiver = *processes[0];
  const auto update_from = [&](ProcessId from, std::int64_t seq) {
    WireWriter w;
    w.u32(wire::kPramUpdate);
    w.i32(0);   // x
    w.i64(77);  // v
    wire::put_write_id(w, WriteId{from, seq});
    const std::vector<std::uint8_t> bytes = w.take();
    WireReader r(bytes);
    Message m;
    m.from = from;
    m.to = receiver.id();
    m.body = wire::decode_body(r, sim.arena(receiver.id()));
    m.meta.kind = "PRAM";
    m.meta.vars_mentioned = {0};
    return m;
  };

  for (const ProcessId from : {ProcessId{2}, ProcessId{3}, ProcessId{0}}) {
    SCOPED_TRACE("sender " + std::to_string(from));
    std::string error;
    try {
      receiver.on_message(update_from(from, 0));
    } catch (const std::logic_error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("update from a process outside C(x)"),
              std::string::npos)
        << error;
    EXPECT_EQ(receiver.store().get(0).value, kBottom);
    EXPECT_EQ(receiver.store().version(), 0u);
    EXPECT_EQ(receiver.stats().updates_applied, 0u);
  }

  // A member of C(x) is applied as before.
  receiver.on_message(update_from(1, 0));
  EXPECT_EQ(receiver.store().get(0).value, 77);
  EXPECT_EQ(receiver.stats().updates_applied, 1u);
}

// A handler reads a body only as its own type, in release builds too: a
// peer's frame carrying another registered body (a slow-memory update,
// decoded from the wire) must be rejected by a PRAM process, not read as
// a PRAM update and applied.
TEST(HostileFrames, ForeignBodyIsRejectedNotApplied) {
  graph::Distribution dist;
  dist.var_count = 1;
  dist.per_process = {{0}, {0}};
  Simulator sim;
  mcs::HistoryRecorder recorder(dist.process_count(), dist.var_count);
  auto processes =
      mcs::make_processes(mcs::ProtocolKind::kPramPartial, dist, recorder);
  for (auto& proc : processes) {
    ASSERT_EQ(sim.add_endpoint(proc.get()), proc->id());
    proc->attach(sim);
  }
  mcs::McsProcess& receiver = *processes[0];
  WireWriter w;
  w.u32(wire::kSlowUpdate);
  w.i32(0);   // x
  w.i64(77);  // v
  wire::put_write_id(w, WriteId{1, 0});
  w.i64(1);  // var_seq
  const std::vector<std::uint8_t> bytes = w.take();
  WireReader r(bytes);
  Message m;
  m.from = 1;
  m.to = receiver.id();
  m.body = wire::decode_body(r, sim.arena(receiver.id()));
  m.meta.kind = "PRAM";
  m.meta.vars_mentioned = {0};

  std::string error;
  try {
    receiver.on_message(m);
  } catch (const std::logic_error& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("pram: unexpected message body"), std::string::npos)
      << error;
  EXPECT_EQ(receiver.store().get(0).value, kBottom);
  EXPECT_EQ(receiver.store().version(), 0u);
  EXPECT_EQ(receiver.stats().updates_applied, 0u);
}

// ---------------------------------------------------------------------------
// The ad-hoc receiver walks a sender's snapshot through per-sender spans:
// the variables both track, merged where both layouts are contiguous.  A
// snapshot shared in process and its wire-decoded copy (packed: only the
// recipient's entries) must walk alike, and a decoded entry list other
// than the expected (y, |C(y)|) intersection must be rejected.

namespace adhoc_spans {

/// A transport that keeps every message its processes send, undelivered.
class CapturingTransport final : public Transport {
 public:
  explicit CapturingTransport(std::size_t n) : n_(n) {}
  void send(ProcessId from, ProcessId to, BodyRef body,
            MessageMeta meta) override {
    Message m;
    m.from = from;
    m.to = to;
    m.body = std::move(body);
    m.meta = std::move(meta);
    sent.push_back(std::move(m));
  }
  [[nodiscard]] TimePoint now() const override { return kTimeZero; }
  void set_timer(ProcessId, Duration, TimerTag) override {}
  [[nodiscard]] std::size_t process_count() const override { return n_; }

  std::vector<Message> sent;

 private:
  std::size_t n_;
};

/// n ad-hoc processes over one capturing transport.
struct System {
  explicit System(const graph::Distribution& d)
      : dist(d),
        recorder(dist.process_count(), dist.var_count),
        transport(dist.process_count()),
        procs(mcs::make_processes(mcs::ProtocolKind::kCausalPartialAdHoc,
                                  dist, recorder)) {
    for (auto& p : procs) p->attach(transport);
  }
  const graph::Distribution& dist;
  mcs::HistoryRecorder recorder;
  CapturingTransport transport;
  std::vector<std::unique_ptr<mcs::McsProcess>> procs;
};

/// Largest number of spans any (sender, receiver) pair needs: breaks in
/// the shared variables' contiguity on either side, counted from the
/// layouts directly.
std::size_t max_spans(const mcs::StaticRelevance& a) {
  const std::size_t n = a.layout.size();
  std::size_t most = 0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t w = 0; w < n; ++w) {
      if (w == r || a.control_bytes(static_cast<ProcessId>(w),
                                    static_cast<ProcessId>(r)) == 0) {
        continue;
      }
      std::size_t spans = 0;
      bool joined = false;  // the previous variable was shared
      for (std::size_t y = 0; y < a.tracks_mask[r].size(); ++y) {
        const bool in_w = a.tracks_mask[w][y] != 0;
        const bool in_r = a.tracks_mask[r][y] != 0;
        if (in_w && in_r) {
          spans += joined ? 0 : 1;
          joined = true;
        } else if (in_w || in_r) {
          joined = false;
        }
      }
      most = std::max(most, spans);
    }
  }
  return most;
}

/// Writes at random processes of `src`; after each, with probability one
/// half, every message sent so far reaches its recipient in send order
/// (which is causal), so later writes depend on earlier ones.  Returns
/// every message in send order; the snapshots point into `src`'s
/// analysis, so `src` must outlive them.
std::vector<Message> causal_traffic(System& src, std::uint64_t seed,
                                    int writes) {
  const graph::Distribution& dist = src.dist;
  Rng rng(seed);
  std::size_t delivered = 0;
  for (int i = 0; i < writes; ++i) {
    const auto p = static_cast<std::size_t>(rng.below(dist.process_count()));
    const auto& vars = dist.per_process[p];
    const VarId x = vars[rng.below(vars.size())];
    src.procs[p]->write(x, 1000 + i, [] {});
    if (rng.below(2) == 0) {
      for (; delivered < src.transport.sent.size(); ++delivered) {
        const Message& m = src.transport.sent[delivered];
        src.procs[static_cast<std::size_t>(m.to)]->on_message(m);
      }
    }
  }
  return std::move(src.transport.sent);
}

/// The recipient's state after one arrival: the checks that parked an
/// update, the updates applied, and every seen counter.
std::vector<std::int64_t> state_of(const mcs::McsProcess& proc,
                                   const graph::Distribution& dist) {
  const auto& adhoc =
      static_cast<const mcs::CausalPartialAdHocProcess&>(proc);
  std::vector<std::int64_t> out = {
      static_cast<std::int64_t>(proc.stats().updates_buffered),
      static_cast<std::int64_t>(proc.stats().updates_applied)};
  for (std::size_t y = 0; y < dist.var_count; ++y) {
    for (std::size_t k = 0; k < dist.process_count(); ++k) {
      out.push_back(
          adhoc.seen(static_cast<VarId>(y), static_cast<ProcessId>(k)));
    }
  }
  return out;
}

Message decoded_copy(const Message& m, BodyArena& arena) {
  WireWriter w;
  wire::encode_body(w, *m.body);
  WireReader r(w.bytes());
  Message out = m;
  out.body = wire::decode_body(r, arena);
  EXPECT_TRUE(r.done());
  return out;
}

}  // namespace adhoc_spans

// Random replication with r = 2 leaves hoops on some variables only, so
// processes track different sets and a sender's shared variables are
// scattered over both layouts (up to 4 and 5 spans per pair).  The same
// shuffled arrival sequence, once as the writers' shared bodies and once
// as wire-decoded copies, must park and deliver identically at every
// arrival.
TEST(AdHocSpans, DecodedSnapshotsWalkLikeSharedOnes) {
  using namespace adhoc_spans;
  for (const std::uint64_t topo_seed : {3u, 4u}) {
    const auto dist = graph::topo::random_replication(10, 14, 2, topo_seed);
    SCOPED_TRACE("topology seed " + std::to_string(topo_seed));
    ASSERT_GE(max_spans(*mcs::StaticRelevance::analyze(dist)), 4u);

    System src(dist);
    std::vector<Message> log = causal_traffic(src, 17 + topo_seed, 400);
    ASSERT_GT(log.size(), 400u);
    Rng rng(5);
    for (std::size_t i = log.size(); i > 1; --i) {
      std::swap(log[i - 1], log[rng.below(i)]);
    }

    BodyArena arena(/*concurrent=*/false);  // outlives both systems
    System shared(dist);
    System decoded(dist);
    std::size_t mismatches = 0;
    for (const Message& m : log) {
      const auto to = static_cast<std::size_t>(m.to);
      shared.procs[to]->on_message(m);
      decoded.procs[to]->on_message(decoded_copy(m, arena));
      if (state_of(*shared.procs[to], dist) !=
          state_of(*decoded.procs[to], dist)) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u);
    std::uint64_t buffered = 0;
    for (std::size_t p = 0; p < dist.process_count(); ++p) {
      const auto& a = *shared.procs[p];
      const auto& b = *decoded.procs[p];
      buffered += a.stats().updates_buffered;
      EXPECT_EQ(a.stats().updates_buffered, b.stats().updates_buffered);
      EXPECT_EQ(a.stats().updates_applied, b.stats().updates_applied);
      for (VarId x : dist.per_process[p]) {
        EXPECT_EQ(a.store().get(x).source, b.store().get(x).source);
      }
    }
    // The shuffle makes updates wait on each other's dependencies.
    EXPECT_GT(buffered, 0u);
  }
}

// A decoded snapshot is outside input: its entries must be exactly the
// variables sender and recipient both track, in order, each with |C(y)|
// counters.  A frame missing an entry, adding one, swapping two or
// miscounting one is rejected before any dependency walk; the unaltered
// frame is accepted.
TEST(HostileFrames, AdHocEntriesOtherThanTheSharedListAreRejected) {
  using namespace adhoc_spans;
  const auto dist = graph::topo::random_replication(10, 14, 2, 4);
  const auto analysis = mcs::StaticRelevance::analyze(dist);
  System src(dist);
  const std::vector<Message> log = causal_traffic(src, 21, 40);
  // The first message whose recipient shares at least two variables with
  // its sender, so entries can be swapped.
  struct Entry {
    std::int32_t y;
    std::vector<std::int64_t> counters;
  };
  const Message* base = nullptr;
  std::vector<Entry> entries;
  WireWriter head;  // everything up to the entry count
  for (const Message& m : log) {
    WireWriter w;
    wire::encode_body(w, *m.body);
    WireReader r(w.bytes());
    WireWriter h;
    h.u32(r.u32());       // tag
    h.i32(r.i32());       // x
    h.i64(r.i64());       // v
    h.boolean(r.boolean());
    wire::put_write_id(h, wire::get_write_id(r));
    h.i64(r.i64());  // var_seq
    std::vector<Entry> es(r.u32());
    for (Entry& e : es) {
      e.y = r.i32();
      e.counters.resize(r.u32());
      for (auto& c : e.counters) c = r.i64();
    }
    if (es.size() >= 2) {
      base = &m;
      entries = std::move(es);
      head = std::move(h);
      break;
    }
  }
  ASSERT_NE(base, nullptr);
  // A variable the recipient does not track.
  const auto& mask = analysis->tracks_mask[static_cast<std::size_t>(base->to)];
  std::int32_t untracked = -1;
  for (std::size_t y = 0; y < mask.size(); ++y) {
    if (mask[y] == 0) untracked = static_cast<std::int32_t>(y);
  }
  ASSERT_GE(untracked, 0);

  const auto frame = [&](const std::vector<Entry>& es) {
    WireWriter w;
    for (std::uint8_t b : head.bytes()) w.u8(b);
    w.u32(static_cast<std::uint32_t>(es.size()));
    for (const Entry& e : es) {
      w.i32(e.y);
      w.u32(static_cast<std::uint32_t>(e.counters.size()));
      for (std::int64_t c : e.counters) w.i64(c);
    }
    return w.take();
  };
  const auto deliver = [&](const std::vector<Entry>& es) {
    BodyArena arena(/*concurrent=*/false);
    System fresh(dist);
    const std::vector<std::uint8_t> bytes = frame(es);
    WireReader r(bytes);
    Message m = *base;
    m.body = wire::decode_body(r, arena);
    std::string error;
    try {
      fresh.procs[static_cast<std::size_t>(m.to)]->on_message(m);
    } catch (const std::logic_error& e) {
      error = e.what();
    }
    return error;
  };

  EXPECT_EQ(deliver(entries), "");
  std::vector<std::vector<Entry>> bad;
  bad.push_back(entries);
  bad.back().pop_back();  // an entry missing
  bad.push_back(entries);
  bad.back().push_back({untracked, {0, 0}});  // an untracked entry added
  bad.push_back(entries);
  std::swap(bad.back()[0], bad.back()[1]);  // out of order
  bad.push_back(entries);
  bad.back()[0].counters.push_back(0);  // |C(y)| + 1 counters
  bad.push_back(entries);
  bad.back()[1].counters.pop_back();  // |C(y)| - 1 counters
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    EXPECT_NE(deliver(bad[i]).find("dependency entries are not"),
              std::string::npos);
  }
}

// ----------------------------------------------------- allocation shapes
// Declaring a huge variable count reserves each process's exposure map
// for a bounded number of variables; nothing is sized by m.
TEST(AllocationShape, ExposureLedgerIsNotSizedByTheVariableCount) {
  NetworkStats stats(64);
  g_max_alloc.store(0);
  g_count_allocs.store(true);
  stats.set_var_hint(std::size_t{1} << 16);
  Message m;
  m.from = 0;
  m.to = 5;
  m.meta.vars_mentioned = {(1 << 16) - 1, 3};
  stats.on_deliver(m);
  g_count_allocs.store(false);
  EXPECT_EQ(stats.exposure(5, (1 << 16) - 1), 1u);
  EXPECT_EQ(stats.exposure(5, 3), 1u);
  EXPECT_LE(g_max_alloc.load(), std::size_t{4} << 10);
}

// A replica set holding one huge VarId allocates for one variable.
TEST(AllocationShape, ReplicaStoreIsNotSizedByTheLargestVarId) {
  constexpr VarId kHuge = (1 << 20) - 1;
  g_max_alloc.store(0);
  g_count_allocs.store(true);
  const mcs::ReplicaStore store({kHuge});
  g_count_allocs.store(false);
  EXPECT_LE(g_max_alloc.load(), std::size_t{256});
  EXPECT_TRUE(store.holds(kHuge));
  EXPECT_FALSE(store.holds(0));
  EXPECT_FALSE(store.holds(kHuge - 1));
  EXPECT_FALSE(store.holds(kHuge + 1));
  EXPECT_FALSE(store.holds(-1));
}

}  // namespace
}  // namespace pardsm
