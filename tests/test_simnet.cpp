// simnet substrate unit tests: RNG, event queue, latency models, channel
// semantics, stats, trace, simulator determinism.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "simnet/event_queue.h"
#include "simnet/latency.h"
#include "simnet/network.h"
#include "simnet/rng.h"
#include "simnet/simulator.h"
#include "simnet/stats.h"
#include "simnet/trace.h"

namespace pardsm {
namespace {

// ------------------------------------------------------------------- Rng
TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c;
  }
  Rng d(8);
  bool all_equal = true;
  Rng e(7);
  for (int i = 0; i < 10; ++i) {
    if (d() != e()) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(1);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(11);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  EXPECT_NE(c1(), c2());
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  auto sorted = w;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

// ------------------------------------------------------------ EventQueue
TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(TimePoint{20}, [&] { fired.push_back(2); });
  q.schedule(TimePoint{10}, [&] { fired.push_back(1); });
  q.schedule(TimePoint{20}, [&] { fired.push_back(3); });  // same time: FIFO
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NextTime) {
  EventQueue q;
  q.schedule(TimePoint{5}, [] {});
  EXPECT_EQ(q.next_time(), TimePoint{5});
  EXPECT_EQ(q.size(), 1u);
}

// ---------------------------------------------------------------- Latency
TEST(Latency, ConstantAlwaysSame) {
  ConstantLatency lat(millis(3));
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(lat.sample(0, 1, rng), millis(3));
  }
}

TEST(Latency, UniformWithinBounds) {
  UniformLatency lat(millis(2), millis(9));
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const auto d = lat.sample(0, 1, rng);
    EXPECT_GE(d, millis(2));
    EXPECT_LE(d, millis(9));
  }
}

TEST(Latency, ExponentialTailBaseAndCap) {
  ExponentialTailLatency lat(millis(1), millis(2), millis(10));
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const auto d = lat.sample(0, 1, rng);
    EXPECT_GE(d, millis(1));
    EXPECT_LE(d, millis(11));
  }
}

TEST(Latency, MatrixPerPair) {
  MatrixLatency lat({{millis(0), millis(5)}, {millis(7), millis(0)}});
  Rng rng(1);
  EXPECT_EQ(lat.sample(0, 1, rng), millis(5));
  EXPECT_EQ(lat.sample(1, 0, rng), millis(7));
}

// ---------------------------------------------------------------- Network
TEST(Network, FifoClampsDeliveryOrder) {
  ChannelOptions ch;
  ch.fifo = true;
  Network net(2, ch, std::make_unique<UniformLatency>(millis(1), millis(50)),
              Rng(5));
  TimePoint last{-1};
  for (int i = 0; i < 50; ++i) {
    const auto deliveries = net.plan_delivery(0, 1, TimePoint{i});
    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_GT(deliveries[0], last);
    last = deliveries[0];
  }
}

TEST(Network, NonFifoMayReorder) {
  ChannelOptions ch;
  ch.fifo = false;
  Network net(2, ch, std::make_unique<UniformLatency>(millis(1), millis(50)),
              Rng(5));
  bool reordered = false;
  TimePoint last{-1};
  for (int i = 0; i < 100; ++i) {
    const auto deliveries = net.plan_delivery(0, 1, TimePoint{i});
    if (deliveries[0] <= last) reordered = true;
    last = deliveries[0];
  }
  EXPECT_TRUE(reordered);
}

TEST(Network, DropProbabilityDropsSome) {
  ChannelOptions ch;
  ch.drop_probability = 0.5;
  Network net(2, ch, nullptr, Rng(6));
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    delivered += static_cast<int>(net.plan_delivery(0, 1, TimePoint{i}).size());
  }
  EXPECT_GT(delivered, 50);
  EXPECT_LT(delivered, 150);
  EXPECT_GT(net.drop_counters().total(), 0u);
}

TEST(Network, DuplicateProbabilityDuplicatesSome) {
  ChannelOptions ch;
  ch.duplicate_probability = 0.5;
  Network net(2, ch, nullptr, Rng(7));
  int copies = 0;
  for (int i = 0; i < 100; ++i) {
    copies += static_cast<int>(net.plan_delivery(0, 1, TimePoint{i}).size());
  }
  EXPECT_GT(copies, 100);
}

TEST(Network, SeverAndHeal) {
  Network net(2, {}, nullptr, Rng(8));
  net.sever(0, 1);
  EXPECT_TRUE(net.plan_delivery(0, 1, TimePoint{0}).empty());
  EXPECT_FALSE(net.plan_delivery(1, 0, TimePoint{0}).empty());  // one way
  net.heal(0, 1);
  EXPECT_FALSE(net.plan_delivery(0, 1, TimePoint{1}).empty());
}

// A third delivery would write past the fixed two-slot array — the check
// must fire, not corrupt the stack (a silent out-of-bounds write is
// exactly what a future second duplicate draw would have produced).
TEST(Network, DeliveryPlanOverflowIsLoud) {
  DeliveryPlan plan;
  plan.push(TimePoint{1});
  plan.push(TimePoint{2});
  EXPECT_EQ(plan.size(), 2u);
  EXPECT_THROW(plan.push(TimePoint{3}), std::logic_error);
}

// Channel state is O(active pairs): only pairs that carried a surviving
// message (FIFO clamp) or were explicitly configured have entries.
TEST(Network, ChannelStateTracksActivePairsOnly) {
  Network net(1000, {}, nullptr, Rng(9));
  EXPECT_EQ(net.fifo_pairs(), 0u);
  EXPECT_EQ(net.override_entries(), 0u);

  (void)net.plan_delivery(0, 1, TimePoint{0});
  (void)net.plan_delivery(0, 1, TimePoint{1});  // same pair: no new state
  (void)net.plan_delivery(7, 3, TimePoint{2});
  EXPECT_EQ(net.fifo_pairs(), 2u);

  net.set_loss(4, 5, 0.5);
  net.sever(8, 9);
  EXPECT_EQ(net.override_entries(), 2u);
  // Untouched pairs answer with the defaults.
  EXPECT_EQ(net.loss(1, 2), 0.0);
  EXPECT_EQ(net.duplicate(1, 2), 0.0);
  EXPECT_FALSE(net.severed(1, 2));
  EXPECT_EQ(net.loss(4, 5), 0.5);
  EXPECT_TRUE(net.severed(8, 9));
}

// set_*_all must answer for every pair, including previously overridden
// ones — exactly what overwriting the dense table did.
TEST(Network, SetAllReplacesPairOverrides) {
  ChannelOptions ch;
  ch.drop_probability = 0.05;
  Network net(4, ch, nullptr, Rng(10));
  EXPECT_EQ(net.loss(2, 3), 0.05);  // ChannelOptions seeds the default
  net.set_loss(0, 1, 0.9);
  net.set_duplicate(0, 1, 0.8);
  net.set_loss_all(0.2);
  net.set_duplicate_all(0.1);
  EXPECT_EQ(net.loss(0, 1), 0.2);
  EXPECT_EQ(net.loss(3, 2), 0.2);
  EXPECT_EQ(net.duplicate(0, 1), 0.1);
  EXPECT_EQ(net.duplicate(1, 0), 0.1);
  // Heal on a never-severed pair stays a no-op (no underflow entry).
  net.heal(1, 2);
  EXPECT_FALSE(net.severed(1, 2));
  net.sever(1, 2);
  EXPECT_TRUE(net.severed(1, 2));
}

// -------------------------------------------------------------- Simulator
namespace {
struct Echo final : Endpoint {
  std::vector<std::uint64_t> received;
  void on_message(const Message& m) override { received.push_back(m.id); }
};
struct Ping final : MessageBody {};
}  // namespace

TEST(Simulator, DeliversAndCounts) {
  Simulator sim;
  Echo a, b;
  const ProcessId pa = sim.add_endpoint(&a);
  const ProcessId pb = sim.add_endpoint(&b);
  sim.schedule_at(kTimeZero, [&] {
    MessageMeta meta;
    meta.kind = "PING";
    meta.control_bytes = 4;
    meta.vars_mentioned = {0};
    sim.send(pa, pb, make_body<Ping>(), meta);
  });
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(sim.stats().traffic(pa).msgs_sent, 1u);
  EXPECT_EQ(sim.stats().traffic(pb).msgs_received, 1u);
  EXPECT_EQ(sim.stats().exposure(pb, 0), 1u);
  EXPECT_TRUE(sim.stats().processes_exposed_to(0).count(pb));
}

TEST(Simulator, TimersFireInOrder) {
  struct T final : Endpoint {
    std::vector<TimerTag> tags;
    void on_message(const Message&) override {}
    void on_timer(TimerTag t) override { tags.push_back(t); }
  };
  Simulator sim;
  T t;
  const ProcessId p = sim.add_endpoint(&t);
  sim.set_timer(p, millis(5), 2);
  sim.set_timer(p, millis(1), 1);
  sim.run();
  EXPECT_EQ(t.tags, (std::vector<TimerTag>{1, 2}));
  EXPECT_EQ(sim.now(), kTimeZero + millis(5));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  Echo a;
  const ProcessId p = sim.add_endpoint(&a);
  sim.set_timer(p, millis(10), 1);
  EXPECT_FALSE(sim.run_until(kTimeZero + millis(5)));
  EXPECT_TRUE(sim.run_until(kTimeZero + millis(20)));
}

TEST(Simulator, TraceRecordsWhenEnabled) {
  Simulator sim;
  Echo a, b;
  const ProcessId pa = sim.add_endpoint(&a);
  const ProcessId pb = sim.add_endpoint(&b);
  sim.trace().set_enabled(true);
  sim.schedule_at(kTimeZero, [&] {
    sim.send(pa, pb, make_body<Ping>(), MessageMeta{"PING", 0, 0, {}});
  });
  sim.run();
  const auto entries = sim.trace().entries();
  ASSERT_EQ(entries.size(), 2u);  // SEND + DELV
  EXPECT_EQ(entries[0].type, TraceEntry::Type::kSend);
  EXPECT_EQ(entries[1].type, TraceEntry::Type::kDeliver);
  std::ostringstream os;
  sim.trace().dump(os);
  EXPECT_NE(os.str().find("SEND"), std::string::npos);
}

TEST(Simulator, MaxEventsGuardTrips) {
  SimOptions options;
  options.max_events = 10;
  Simulator sim(std::move(options));
  struct Loop final : Endpoint {
    Simulator* sim = nullptr;
    ProcessId self = 0;
    void on_message(const Message&) override {}
    void on_timer(TimerTag) override { sim->set_timer(self, millis(1), 0); }
  };
  Loop loop;
  loop.sim = &sim;
  loop.self = sim.add_endpoint(&loop);
  sim.set_timer(loop.self, millis(1), 0);
  EXPECT_THROW(sim.run(), std::logic_error);
}

// ------------------------------------------------------------ NetworkStats
namespace {
Message mention(ProcessId from, ProcessId to,
                std::initializer_list<VarId> vars) {
  Message m;
  m.from = from;
  m.to = to;
  m.meta.kind = "X";
  m.meta.control_bytes = 8;
  m.meta.vars_mentioned = vars;
  return m;
}
}  // namespace

// The exposure ledger is a pure function of the delivered set —
// independent of receipt order.
TEST(NetworkStats, ExposureIndependentOfReceiptOrder) {
  const std::size_t n = 3, m = 6;
  const std::vector<Message> msgs = {
      mention(0, 1, {5}),  // high VarId first on p1
      mention(0, 1, {0}),
      mention(1, 2, {2}),
      mention(0, 2, {4, 2}),
      mention(2, 0, {1}),
  };
  NetworkStats forward;
  forward.set_var_hint(m);
  forward.resize(n);
  NetworkStats backward;
  backward.set_var_hint(m);
  backward.resize(n);
  for (const Message& msg : msgs) forward.on_deliver(msg);
  for (auto it = msgs.rbegin(); it != msgs.rend(); ++it) {
    backward.on_deliver(*it);
  }
  EXPECT_EQ(forward.exposure_sets(m), backward.exposure_sets(m));
  for (std::size_t p = 0; p < n; ++p) {
    const auto pid = static_cast<ProcessId>(p);
    EXPECT_EQ(forward.variables_seen_by(pid), backward.variables_seen_by(pid));
    for (std::size_t x = 0; x < m; ++x) {
      EXPECT_EQ(forward.exposure(pid, static_cast<VarId>(x)),
                backward.exposure(pid, static_cast<VarId>(x)));
    }
  }
}

// Without a hint a process's map grows from empty on first receipt — and
// a late hint reserves existing maps in place, keeping their counts.
TEST(NetworkStats, LazyFallbackAndLateHint) {
  NetworkStats stats;
  stats.resize(2);
  stats.on_deliver(mention(0, 1, {9}));  // far past the (empty) row
  EXPECT_EQ(stats.exposure(1, 9), 1u);
  EXPECT_EQ(stats.exposure(1, 3), 0u);
  stats.set_var_hint(16);
  stats.on_deliver(mention(0, 1, {15}));
  EXPECT_EQ(stats.exposure(1, 15), 1u);
  EXPECT_EQ(stats.exposure(1, 9), 1u);
}

// A negative VarId is rejected before it reaches the ledger, with or
// without a var hint, and the slot keeps what it had.
TEST(NetworkStats, NegativeVarIdThrowsAndLeavesTheRowUnchanged) {
  for (const std::size_t hint : {std::size_t{0}, std::size_t{4}}) {
    SCOPED_TRACE("var hint " + std::to_string(hint));
    NetworkStats stats(2);
    stats.set_var_hint(hint);
    stats.on_deliver(mention(0, 1, {2}));
    EXPECT_THROW(stats.on_deliver(mention(0, 1, {-1})), std::logic_error);
    EXPECT_EQ(stats.variables_seen_by(1), std::set<VarId>{2});
    EXPECT_EQ(stats.exposure(1, 2), 1u);
    EXPECT_EQ(stats.traffic(1).msgs_received, 1u);
    EXPECT_EQ(stats.messages_delivered(), 1u);
  }
}

// Each process's slot is written only by its owner thread: eight threads
// recording for their own process at once lose no update, with no lock.
TEST(NetworkStats, OwnerThreadsWriteTheirOwnRowsWithoutALock) {
  constexpr std::size_t kProcs = 8;
  constexpr std::uint64_t kMsgs = 100'000;
  constexpr std::size_t kVars = 16;
  NetworkStats stats(kProcs);
  stats.set_var_hint(kVars);
  std::vector<std::thread> owners;
  for (std::size_t p = 0; p < kProcs; ++p) {
    owners.emplace_back([&stats, p] {
      const auto self = static_cast<ProcessId>(p);
      const Message m = mention(self, self, {static_cast<VarId>(p),
                                             static_cast<VarId>(p + kProcs)});
      for (std::uint64_t i = 0; i < kMsgs; ++i) {
        stats.on_send(m);
        stats.on_deliver(m);
      }
    });
  }
  for (std::thread& t : owners) t.join();

  for (std::size_t p = 0; p < kProcs; ++p) {
    const auto self = static_cast<ProcessId>(p);
    const ProcessTraffic t = stats.traffic(self);
    EXPECT_EQ(t.msgs_sent, kMsgs);
    EXPECT_EQ(t.msgs_received, kMsgs);
    EXPECT_EQ(t.control_bytes_sent, 8 * kMsgs);
    EXPECT_EQ(t.control_bytes_received, 8 * kMsgs);
    EXPECT_EQ(stats.variables_seen_by(self),
              (std::set<VarId>{static_cast<VarId>(p),
                               static_cast<VarId>(p + kProcs)}));
    EXPECT_EQ(stats.exposure(self, static_cast<VarId>(p)), kMsgs);
    EXPECT_EQ(stats.exposure(self, static_cast<VarId>(p + kProcs)), kMsgs);
  }
  const ProcessTraffic total = stats.total();
  EXPECT_EQ(total.msgs_sent, kProcs * kMsgs);
  EXPECT_EQ(total.msgs_received, kProcs * kMsgs);
  EXPECT_EQ(total.control_bytes_sent, 8 * kProcs * kMsgs);
  EXPECT_EQ(stats.messages_delivered(), kProcs * kMsgs);
  const auto sets = stats.exposure_sets(kVars);
  for (std::size_t x = 0; x < kVars; ++x) {
    EXPECT_EQ(sets[x], std::set<ProcessId>{static_cast<ProcessId>(x % kProcs)});
  }
}

// The sparse ledger against a std::map model over seeded random delivery
// sequences: maps reserved for 8 variables grow to hold up to 200,
// VarIds at or past the declared count are counted but left out of
// exposure_sets, and clear() keeps the maps usable for a second round.
TEST(NetworkStats, SparseLedgerMatchesAMapModel) {
  constexpr std::size_t kProcs = 5;
  constexpr std::size_t kDeclared = 8;
  constexpr std::uint64_t kVarSpan = 200;
  NetworkStats stats(kProcs);
  stats.set_var_hint(kDeclared);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::map<std::pair<ProcessId, VarId>, std::uint64_t> model;
    std::uint64_t delivered = 0;
    for (int i = 0; i < 2000; ++i) {
      const auto to = static_cast<ProcessId>(rng.below(kProcs));
      // Half the mentions fall inside the declared range, half anywhere,
      // so every map outgrows its reservation.
      const auto pick = [&] {
        return static_cast<VarId>(rng.below(2) == 0 ? rng.below(kDeclared)
                                                    : rng.below(kVarSpan));
      };
      Message m = mention(0, to, {});
      const std::uint64_t count = rng.below(3);
      for (std::uint64_t k = 0; k < count; ++k) {
        const VarId x = pick();
        m.meta.vars_mentioned.push_back(x);
        ++model[{to, x}];
      }
      stats.on_deliver(m);
      ++delivered;
    }

    EXPECT_EQ(stats.messages_delivered(), delivered);
    std::vector<std::set<ProcessId>> want_sets(kDeclared);
    std::vector<std::set<VarId>> want_seen(kProcs);
    for (const auto& [key, count] : model) {
      const auto [p, x] = key;
      want_seen[static_cast<std::size_t>(p)].insert(x);
      if (static_cast<std::size_t>(x) < kDeclared) {
        want_sets[static_cast<std::size_t>(x)].insert(p);
      }
    }
    EXPECT_EQ(stats.exposure_sets(kDeclared), want_sets);
    for (std::size_t p = 0; p < kProcs; ++p) {
      const auto pid = static_cast<ProcessId>(p);
      EXPECT_EQ(stats.variables_seen_by(pid), want_seen[p]);
      for (VarId x = -1; x <= static_cast<VarId>(kVarSpan); ++x) {
        const auto it = model.find({pid, x});
        EXPECT_EQ(stats.exposure(pid, x), it == model.end() ? 0 : it->second)
            << "p" << p << " x" << x;
      }
    }
    for (VarId x = 0; x < static_cast<VarId>(kVarSpan); ++x) {
      std::set<ProcessId> want;
      for (std::size_t p = 0; p < kProcs; ++p) {
        if (model.count({static_cast<ProcessId>(p), x}) != 0) {
          want.insert(static_cast<ProcessId>(p));
        }
      }
      EXPECT_EQ(stats.processes_exposed_to(x), want) << "x" << x;
    }

    // The next seed reuses the grown maps from an empty ledger.
    stats.clear();
    EXPECT_EQ(stats.messages_delivered(), 0u);
    EXPECT_EQ(stats.exposure_sets(kDeclared),
              std::vector<std::set<ProcessId>>(kDeclared));
    for (std::size_t p = 0; p < kProcs; ++p) {
      EXPECT_TRUE(stats.variables_seen_by(static_cast<ProcessId>(p)).empty());
    }
  }
}

}  // namespace
}  // namespace pardsm
