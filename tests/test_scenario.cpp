// Scenario engine: fault-RNG stream isolation, per-pair loss tables,
// partition group expansion, crash windows, and scenario runs through mcs::run.

#include <gtest/gtest.h>

#include "history/checkers.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"
#include "simnet/scenario.h"

namespace pardsm {
namespace {

// ------------------------------------------------- RNG stream isolation
//
// The regression the dedicated fault stream exists to prevent: enabling
// loss (anywhere) used to shift the latency RNG stream, silently changing
// the delivery times of every *surviving* message.

std::unique_ptr<LatencyModel> jittery() {
  return std::make_unique<UniformLatency>(millis(1), millis(50));
}

TEST(ScenarioRng, LossOnOnePairNeverPerturbsLatencySampling) {
  ChannelOptions ch;
  ch.fifo = false;  // no clamping: observe raw latency samples
  Network clean(4, ch, jittery(), Rng(11));
  Network faulty(4, ch, jittery(), Rng(11));
  faulty.set_loss(2, 3, 0.9);

  for (int i = 0; i < 200; ++i) {
    // Interleave two pairs; the lossy pair sits between every probe of the
    // observed pair, so any stream coupling would show immediately.
    const auto t = TimePoint{i * 100};
    const auto clean01 = clean.plan_delivery(0, 1, t);
    const auto clean23 = clean.plan_delivery(2, 3, t);
    const auto faulty01 = faulty.plan_delivery(0, 1, t);
    const auto faulty23 = faulty.plan_delivery(2, 3, t);

    // The observed pair is bit-identical under faults elsewhere.
    ASSERT_EQ(clean01.size(), 1u);
    ASSERT_EQ(faulty01.size(), 1u);
    EXPECT_EQ(clean01[0], faulty01[0]);

    // And a message that *survives* the lossy pair is delivered exactly
    // when the fault-free run would have delivered it.
    ASSERT_EQ(clean23.size(), 1u);
    if (!faulty23.empty()) {
      EXPECT_EQ(faulty23[0], clean23[0]);
    }
  }
  EXPECT_GT(faulty.drop_counters().loss, 0u);
  EXPECT_EQ(clean.drop_counters().total(), 0u);
}

TEST(ScenarioRng, ZeroLossArmedIsIdenticalToFaultsDisabled) {
  // The ISSUE-level statement: drop_probability = 0 with the fault
  // machinery armed is bit-identical to a run with faults disabled.
  const auto dist = graph::topo::ring(5);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 6;
  spec.seed = 9;
  const auto scripts = mcs::make_random_scripts(dist, spec);

  const auto plain = mcs::run({.protocol = mcs::ProtocolKind::kPramPartial,
                               .distribution = &dist,
                               .scripts = &scripts,
                               .sim_seed = 5,
                               .latency = jittery()});
  Scenario s("zero-loss");
  s.set_loss(0.0);  // arms the per-pair tables without any loss
  const auto armed = mcs::run({.protocol = mcs::ProtocolKind::kPramPartial,
                               .distribution = &dist,
                               .scripts = &scripts,
                               .scenario = &s,
                               .sim_seed = 5,
                               .latency = jittery()});

  EXPECT_FALSE(armed.used_reliable_transport);
  EXPECT_EQ(plain.history.to_string(), armed.history.to_string());
  EXPECT_EQ(plain.total_traffic.msgs_sent, armed.total_traffic.msgs_sent);
  EXPECT_EQ(plain.finished_at, armed.finished_at);
  EXPECT_EQ(plain.events, armed.events);
  EXPECT_EQ(plain.final_replicas, armed.final_replicas);
}

TEST(ScenarioRng, DuplicateCopyLatencyComesFromFaultStream) {
  ChannelOptions ch;
  ch.fifo = false;
  Network clean(2, ch, jittery(), Rng(21));
  Network duping(2, ch, jittery(), Rng(21));
  duping.set_duplicate(0, 1, 1.0);

  for (int i = 0; i < 100; ++i) {
    const auto t = TimePoint{i * 1000};
    const auto a = clean.plan_delivery(0, 1, t);
    const auto b = duping.plan_delivery(0, 1, t);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 2u);
    // First copy: identical to the fault-free delivery.
    EXPECT_EQ(a[0], b[0]);
  }
}

// ------------------------------------------------------------ partitions

TEST(Scenario, PartitionSeversExactlyCrossGroupPairsThenHeals) {
  SimOptions so;
  so.seed = 3;
  Simulator sim(std::move(so));
  struct Sink final : Endpoint {
    void on_message(const Message&) override {}
  };
  std::vector<Sink> sinks(5);
  for (auto& s : sinks) sim.add_endpoint(&s);

  Scenario s("split");
  // Process 4 is listed nowhere: it becomes a singleton group.
  s.partition({{0, 1}, {2, 3}}, after(millis(2)), after(millis(5)));

  std::vector<std::pair<ProcessId, ProcessId>> cross = {
      {0, 2}, {0, 3}, {1, 2}, {1, 3}, {0, 4}, {2, 4}, {4, 1}, {4, 3}};
  std::vector<std::pair<ProcessId, ProcessId>> intra = {{0, 1}, {1, 0},
                                                        {2, 3}, {3, 2}};

  bool probed_mid = false, probed_after = false;
  sim.schedule_at(TimePoint{} + millis(3), [&] {
    probed_mid = true;
    for (auto [a, b] : cross) {
      EXPECT_TRUE(sim.network().severed(a, b)) << a << "->" << b;
      EXPECT_TRUE(sim.network().severed(b, a)) << b << "->" << a;
    }
    for (auto [a, b] : intra) {
      EXPECT_FALSE(sim.network().severed(a, b)) << a << "->" << b;
    }
  });
  sim.schedule_at(TimePoint{} + millis(6), [&] {
    probed_after = true;
    for (auto [a, b] : cross) {
      EXPECT_FALSE(sim.network().severed(a, b)) << a << "->" << b;
    }
  });
  s.apply(sim);
  sim.run();
  EXPECT_TRUE(probed_mid);
  EXPECT_TRUE(probed_after);
}

TEST(Scenario, PairLossWindowRestoresTheEnclosingGlobalRate) {
  // A pair burst inside a global loss regime: when the burst window closes
  // the pair must return to the scenario's 5%, not to the channel default.
  SimOptions so;
  so.seed = 9;
  Simulator sim(std::move(so));
  struct Sink final : Endpoint {
    void on_message(const Message&) override {}
  };
  std::vector<Sink> sinks(4);
  for (auto& s : sinks) sim.add_endpoint(&s);

  Scenario s("burst-inside-regime");
  s.set_loss(0.05);
  s.set_loss(2, 3, 0.5, after(millis(1)), after(millis(3)));
  s.duplicate(0.02);
  s.duplicate(0, 1, 0.9, after(millis(1)), after(millis(3)));

  bool probed_mid = false, probed_after = false;
  sim.schedule_at(after(millis(2)), [&] {
    probed_mid = true;
    EXPECT_DOUBLE_EQ(sim.network().effective_loss(2, 3, sim.now()), 0.5);
    EXPECT_DOUBLE_EQ(sim.network().effective_loss(0, 1, sim.now()), 0.05);
    EXPECT_DOUBLE_EQ(sim.network().effective_duplicate(0, 1, sim.now()), 0.9);
  });
  sim.schedule_at(after(millis(4)), [&] {
    probed_after = true;
    EXPECT_DOUBLE_EQ(sim.network().effective_loss(2, 3, sim.now()), 0.05);  // regime, not 0
    EXPECT_DOUBLE_EQ(sim.network().effective_duplicate(0, 1, sim.now()), 0.02);
  });
  s.apply(sim);
  sim.run();
  EXPECT_TRUE(probed_mid);
  EXPECT_TRUE(probed_after);
}

TEST(Scenario, CrossedWindowsRecomputeToTheStillOpenRegime) {
  // Crossed (non-nested) windows: A = [0, 6ms) at 0.5 and B = [2ms, 10ms)
  // at 0.2.  When A closes, B's regime must be in force — and after B
  // closes the network returns to the base, not to a stale saved rate.
  SimOptions so;
  so.seed = 6;
  Simulator sim(std::move(so));
  struct Sink final : Endpoint {
    void on_message(const Message&) override {}
  };
  std::vector<Sink> sinks(2);
  for (auto& s : sinks) sim.add_endpoint(&s);

  Scenario s("crossed");
  s.set_loss(0.5, kTimeZero, after(millis(6)));
  s.set_loss(0.2, after(millis(2)), after(millis(10)));

  int probes = 0;
  const auto probe = [&](Duration at, double want) {
    sim.schedule_at(after(at), [&, want] {
      ++probes;
      EXPECT_DOUBLE_EQ(sim.network().effective_loss(0, 1, sim.now()), want);
    });
  };
  probe(millis(1), 0.5);   // only A open
  probe(millis(3), 0.2);   // B opened later: B wins
  probe(millis(7), 0.2);   // A closed: B's regime, not A's saved state
  probe(millis(11), 0.0);  // both closed: base, not 0.5
  s.apply(sim);
  sim.run();
  EXPECT_EQ(probes, 4);
}

TEST(Scenario, PermanentTotalLossIsRejectedAtBuildTime) {
  // The liveness contract covers probability windows too: total loss with
  // no end time can never drain the ARQ channel, so it must not build.
  Scenario s("blackout");
  EXPECT_THROW(s.set_loss(1.0), std::logic_error);
  // Bounded total loss is fine: the window ends, the backlog drains.
  s.set_loss(1.0, kTimeZero, after(millis(5)));
}

TEST(Scenario, OverlappingPartitionsComposeCutsAreCounted) {
  // An inner partition healing at 6ms must not reopen pairs an outer
  // partition keeps severed until 10ms.
  SimOptions so;
  so.seed = 4;
  Simulator sim(std::move(so));
  struct Sink final : Endpoint {
    void on_message(const Message&) override {}
  };
  std::vector<Sink> sinks(4);
  for (auto& s : sinks) sim.add_endpoint(&s);

  Scenario s("nested-split");
  s.partition({{0, 1}, {2, 3}}, after(millis(2)), after(millis(10)));
  s.partition({{0}, {1, 2, 3}}, after(millis(4)), after(millis(6)));

  bool probed = false;
  sim.schedule_at(after(millis(7)), [&] {
    probed = true;
    EXPECT_TRUE(sim.network().severed(0, 2));   // outer cut still open
    EXPECT_TRUE(sim.network().severed(1, 3));
    EXPECT_FALSE(sim.network().severed(0, 1));  // inner cut healed
  });
  sim.schedule_at(after(millis(11)), [&] {
    EXPECT_FALSE(sim.network().severed(0, 2));  // outer healed too
  });
  s.apply(sim);
  // apply() reserves the cut entry of every pair either partition will
  // cut (8 + 6 ordered pairs, 4 shared) before any event fires, so no
  // sever or heal inserts into the table while readers probe it.
  EXPECT_EQ(sim.network().override_entries(), 10u);
  EXPECT_FALSE(sim.network().severed(0, 1));
  sim.run();
  EXPECT_TRUE(probed);
  EXPECT_EQ(sim.network().override_entries(), 10u);
}

TEST(Scenario, SameTimeWindowEdgesCloseBeforeTheyOpen) {
  // Built out of chronological order: a burst starting exactly when a
  // global window ends must take effect (the global revert fires first).
  SimOptions so;
  so.seed = 5;
  Simulator sim(std::move(so));
  struct Sink final : Endpoint {
    void on_message(const Message&) override {}
  };
  std::vector<Sink> sinks(4);
  for (auto& s : sinks) sim.add_endpoint(&s);

  Scenario s("edge-race");
  s.set_loss(2, 3, 0.9, after(millis(5)), after(millis(9)));  // built first
  s.set_loss(0.1, kTimeZero, after(millis(5)));               // ends at 5ms

  bool probed = false;
  sim.schedule_at(after(millis(6)), [&] {
    probed = true;
    EXPECT_DOUBLE_EQ(sim.network().effective_loss(2, 3, sim.now()), 0.9);  // burst in effect
    EXPECT_DOUBLE_EQ(sim.network().effective_loss(0, 1, sim.now()), 0.0);  // global reverted
  });
  sim.schedule_at(after(millis(10)), [&] {
    EXPECT_DOUBLE_EQ(sim.network().effective_loss(2, 3, sim.now()), 0.0);  // burst reverted
  });
  s.apply(sim);
  sim.run();
  EXPECT_TRUE(probed);
}

// ---------------------------------------------------------------- crashes

TEST(Scenario, CrashDropsInFlightAndBlocksTrafficUntilRecovery) {
  struct Sink final : Endpoint {
    std::vector<TimePoint> got;
    Simulator* sim = nullptr;
    void on_message(const Message&) override { got.push_back(sim->now()); }
  };
  SimOptions so;
  so.seed = 7;
  Simulator sim(std::move(so));  // constant 1ms latency
  Sink a, b;
  a.sim = &sim;
  b.sim = &sim;
  sim.add_endpoint(&a);
  sim.add_endpoint(&b);

  const auto send = [&](TimePoint at) {
    sim.schedule_at(at, [&] {
      sim.send(0, 1, make_body<MessageBody>(),
               MessageMeta{"PING", 0, 0, {}});
    });
  };
  // In flight across the crash boundary: sent at 1.5ms, would arrive at
  // 2.5ms — inside the 2..4ms downtime — and is lost with the crash.
  send(TimePoint{} + micros(1500));
  // Sent during downtime: dropped at planning time.
  send(TimePoint{} + millis(3));
  // Sent after recovery: delivered normally.
  send(TimePoint{} + millis(5));

  Scenario s("one-crash");
  s.crash(1, after(millis(2)), after(millis(4)));
  s.apply(sim);
  sim.run();

  ASSERT_EQ(b.got.size(), 1u);
  EXPECT_EQ(b.got[0], TimePoint{} + millis(6));
  EXPECT_EQ(sim.network().drop_counters().in_flight, 1u);
  EXPECT_EQ(sim.network().drop_counters().down, 1u);
}

// ------------------------------------------------------- scenario runs

Scenario kitchen_sink() {
  Scenario s("loss+partition+crash");
  s.set_loss(0.1)
      .partition({{0, 1}, {2, 3}}, after(millis(2)), after(millis(10)))
      .crash(1, after(millis(4)), after(millis(12)));
  return s;
}

TEST(RunScenario, PramLiveConsistentAndDeterministicUnderKitchenSink) {
  const auto dist = graph::topo::random_replication(4, 3, 2, 17);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 8;
  spec.seed = 3;
  spec.think_time = millis(1);  // spread ops across the fault windows
  const auto scripts = mcs::make_random_scripts(dist, spec);

  const Scenario scenario = kitchen_sink();
  const auto run = [&] {
    return mcs::run({.protocol = mcs::ProtocolKind::kPramPartial,
                     .distribution = &dist,
                     .scripts = &scripts,
                     .scenario = &scenario,
                     .sim_seed = 17});
  };
  const auto r = run();

  EXPECT_TRUE(r.used_reliable_transport);
  EXPECT_GT(r.retransmissions, 0u);
  EXPECT_GT(r.drops.total(), 0u);
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_GT(r.resync_messages, 0u);
  EXPECT_GT(r.resync_bytes, 0u);
  EXPECT_GT(r.max_recovery_latency.us, 0);
  EXPECT_TRUE(
      hist::check_history(r.history, hist::Criterion::kPram).consistent)
      << r.history.to_string();

  // Deterministic replay, byte for byte.
  const auto again = run();
  EXPECT_EQ(r.history.to_string(), again.history.to_string());
  EXPECT_EQ(r.total_traffic.msgs_sent, again.total_traffic.msgs_sent);
}

TEST(RunScenario, ResyncBytesAreChargedToNetworkStats) {
  // A crash-only scenario on a lossless channel: the only extra traffic
  // beyond the baseline run is ARQ framing and the recovery re-sync, and
  // the re-sync bytes must be part of the NetworkStats ledger.
  const auto dist = graph::topo::ring(4);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 4;
  spec.seed = 2;
  spec.think_time = millis(1);
  const auto scripts = mcs::make_random_scripts(dist, spec);

  Scenario s("crash-only");
  s.crash(2, after(millis(1)), after(millis(3)));
  const auto r = mcs::run({.protocol = mcs::ProtocolKind::kPramPartial,
                           .distribution = &dist,
                           .scripts = &scripts,
                           .scenario = &s,
                           .sim_seed = 4});
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_GT(r.resync_bytes, 0u);
  // The total ledger contains at least the re-sync bytes the victim
  // charged (they travelled as ordinary messages).
  EXPECT_GT(r.total_traffic.control_bytes_sent, 0u);
  EXPECT_GE(r.total_traffic.wire_bytes_sent(), r.resync_bytes);
}

TEST(RunScenario, EveryProtocolSurvivesTheKitchenSink) {
  const auto dist = graph::topo::ring(4);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 4;
  spec.seed = 5;
  spec.think_time = millis(1);
  const auto scripts = mcs::make_random_scripts(dist, spec);
  const Scenario scenario = kitchen_sink();
  for (auto kind : mcs::all_protocols()) {
    const auto r = mcs::run({.protocol = kind,
                             .distribution = &dist,
                             .scripts = &scripts,
                             .scenario = &scenario,
                             .sim_seed = 23});
    EXPECT_TRUE(r.used_reliable_transport) << mcs::to_string(kind);
    EXPECT_EQ(r.crashes, 1u) << mcs::to_string(kind);
  }
}

}  // namespace
}  // namespace pardsm
