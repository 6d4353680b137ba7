// Remaining substrate units: replica store, recorder, scripted clients,
// ARQ give-up, efficiency-report rendering.

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "mcs/driver.h"
#include "mcs/recorder.h"
#include "mcs/replica_store.h"
#include "sharegraph/topologies.h"

namespace pardsm {
namespace {

// ------------------------------------------------------------ ReplicaStore
TEST(ReplicaStore, InitializesToBottom) {
  mcs::ReplicaStore store({0, 2});
  EXPECT_TRUE(store.holds(0));
  EXPECT_FALSE(store.holds(1));
  EXPECT_TRUE(store.holds(2));
  EXPECT_EQ(store.get(0).value, kBottom);
  EXPECT_EQ(store.get(0).source, kInitialWrite);
}

TEST(ReplicaStore, PutUpdatesValueAndProvenance) {
  mcs::ReplicaStore store({0});
  store.put(0, 42, WriteId{3, 7});
  EXPECT_EQ(store.get(0).value, 42);
  EXPECT_EQ(store.get(0).source, (WriteId{3, 7}));
  EXPECT_EQ(store.version(), 1u);
}

TEST(ReplicaStore, AccessOutsideReplicaSetThrows) {
  mcs::ReplicaStore store({0});
  EXPECT_THROW((void)store.get(1), std::logic_error);
  EXPECT_THROW(store.put(1, 5, WriteId{0, 0}), std::logic_error);
}

// Every replica set over a ten-variable universe: x is held exactly when
// it is in the set, and each held x keeps its own value.  Covers the
// prefix fast path (vars_[x] == x) and the search past it.
TEST(ReplicaStore, LookupMatchesMembershipForEverySubset) {
  constexpr VarId kUniverse = 10;
  for (unsigned mask = 0; mask < (1U << kUniverse); ++mask) {
    std::vector<VarId> vars;
    for (VarId x = 0; x < kUniverse; ++x) {
      if ((mask >> x) & 1U) vars.push_back(x);
    }
    mcs::ReplicaStore store(vars);
    for (const VarId x : vars) store.put(x, 100 + x, WriteId{0, x});
    for (VarId x = -1; x <= kUniverse; ++x) {
      const bool member = x >= 0 && x < kUniverse && ((mask >> x) & 1U);
      ASSERT_EQ(store.holds(x), member) << "mask " << mask << " x " << x;
      if (member) {
        ASSERT_EQ(store.get(x).value, 100 + x);
      }
    }
  }
}

TEST(ReplicaStore, VarsSorted) {
  mcs::ReplicaStore store({5, 1, 3});
  EXPECT_EQ(store.vars(), (std::vector<VarId>{1, 3, 5}));
}

// -------------------------------------------------------------- Recorder
TEST(Recorder, PreservesProgramOrderPerProcess) {
  mcs::HistoryRecorder rec(2, 2);
  rec.record_write(0, 0, 1, WriteId{0, 0}, TimePoint{1}, TimePoint{2});
  rec.record_read(1, 0, 1, WriteId{0, 0}, TimePoint{3}, TimePoint{4});
  rec.record_write(0, 1, 2, WriteId{0, 1}, TimePoint{5}, TimePoint{6});
  const auto h = rec.history();
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h.ops_of(0).size(), 2u);
  EXPECT_EQ(h.op(h.ops_of(0)[0]).var, 0);
  EXPECT_EQ(h.op(h.ops_of(0)[1]).var, 1);
  // Provenance and intervals survive.
  const auto src = h.resolve_read_from();
  EXPECT_EQ(src[1], 0);
  EXPECT_EQ(h.op(0).invoked, TimePoint{1});
  EXPECT_EQ(h.op(0).responded, TimePoint{2});
}

// ------------------------------------------------------------- Scripted
TEST(ScriptedClient, ThinkTimeDelaysOperations) {
  const auto dist = graph::topo::complete(2, 1);
  std::vector<mcs::Script> scripts(2);
  scripts[0] = {mcs::ScriptOp::write(0, 1, millis(10)),
                mcs::ScriptOp::write(0, 2, millis(10))};
  const auto run = mcs::run({.protocol = mcs::ProtocolKind::kPramPartial,
                             .distribution = &dist,
                             .scripts = &scripts});
  // Second write issued 10ms after the first completed.
  const auto& h = run.history;
  ASSERT_EQ(h.ops_of(0).size(), 2u);
  EXPECT_GE((h.op(h.ops_of(0)[1]).invoked - h.op(h.ops_of(0)[0]).invoked).us,
            millis(10).us);
}

TEST(ScriptedClient, ReadResultsCollected) {
  const auto dist = graph::topo::complete(2, 1);
  Simulator sim;
  mcs::HistoryRecorder rec(2, 1);
  auto procs = mcs::make_processes(mcs::ProtocolKind::kPramPartial, dist, rec);
  for (auto& p : procs) {
    sim.add_endpoint(p.get());
    p->attach(sim);
  }
  mcs::Client writer(*procs[0], sim,
                             {mcs::ScriptOp::write(0, 9)});
  mcs::Client reader(
      *procs[1], sim, {mcs::ScriptOp::read(0, millis(100))});
  writer.start(kTimeZero);
  reader.start(kTimeZero);
  sim.run();
  ASSERT_EQ(reader.read_results().size(), 1u);
  EXPECT_EQ(reader.read_results()[0], 9);
}

TEST(Workloads, RandomScriptsOnlyTouchOwnVariables) {
  const auto dist = graph::topo::random_replication(6, 5, 2, 3);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 20;
  spec.seed = 9;
  const auto scripts = mcs::make_random_scripts(dist, spec);
  for (std::size_t p = 0; p < scripts.size(); ++p) {
    for (const auto& op : scripts[p]) {
      EXPECT_TRUE(dist.holds(static_cast<ProcessId>(p), op.var))
          << "p" << p << " script touches foreign x" << op.var;
    }
  }
}

TEST(Workloads, WriteValuesGloballyUnique) {
  const auto dist = graph::topo::random_replication(5, 4, 3, 4);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 15;
  spec.read_fraction = 0.3;
  const auto scripts = mcs::make_random_scripts(dist, spec);
  std::set<Value> seen;
  for (const auto& script : scripts) {
    for (const auto& op : script) {
      if (op.kind == mcs::ScriptOp::Kind::kWrite) {
        EXPECT_TRUE(seen.insert(op.value).second) << op.value;
      }
    }
  }
}

// -------------------------------------------------------------- Analysis
TEST(AnalysisReport, TableMentionsLeaks) {
  const auto dist = graph::topo::chain_with_hoop(4);
  std::vector<std::set<ProcessId>> observed(dist.var_count);
  observed[0] = {0, 1, 2, 3};  // x leaked everywhere
  const auto report = core::analyze_run(dist, observed, {});
  EXPECT_FALSE(report.efficient());
  const auto table = report.to_table();
  EXPECT_NE(table.find("x0"), std::string::npos);
  EXPECT_NE(table.find("leaking past C(x): 1/"), std::string::npos);
}

TEST(AnalysisReport, WithinRelevantDistinguishedFromWithinClique) {
  const auto dist = graph::topo::chain_with_hoop(4);
  std::vector<std::set<ProcessId>> observed(dist.var_count);
  observed[0] = {0, 1, 2, 3};  // the whole hoop: inside R(x), outside C(x)
  const auto report = core::analyze_run(dist, observed, {});
  EXPECT_EQ(report.vars_leaking_past_clique, 1u);
  EXPECT_EQ(report.vars_leaking_past_relevant, 0u);
}

}  // namespace
}  // namespace pardsm
