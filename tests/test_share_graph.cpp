// Share graph construction (Section 3.1, Figure 1) and topologies.

#include <gtest/gtest.h>

#include "mcs/protocol.h"
#include "sharegraph/share_graph.h"
#include "sharegraph/topologies.h"

namespace pardsm::graph {
namespace {

TEST(ShareGraph, Fig1MatchesThePaper) {
  const ShareGraph sg(topo::fig1());
  // Cliques: C(x1) = {p_i, p_j} = {0, 1}; C(x2) = {p_i, p_k} = {0, 2}.
  EXPECT_EQ(sg.clique(0), (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(sg.clique(1), (std::vector<ProcessId>{0, 2}));
  // Edges: (i,j) labelled {x1}; (i,k) labelled {x2}; no (j,k) edge.
  EXPECT_TRUE(sg.has_edge(0, 1));
  EXPECT_TRUE(sg.has_edge(0, 2));
  EXPECT_FALSE(sg.has_edge(1, 2));
  EXPECT_EQ(sg.label(0, 1), (std::vector<VarId>{0}));
  EXPECT_EQ(sg.label(0, 2), (std::vector<VarId>{1}));
  EXPECT_EQ(sg.edge_count(), 2u);
}

TEST(ShareGraph, CliqueIsAClique) {
  const ShareGraph sg(topo::random_replication(12, 8, 4, /*seed=*/7));
  for (std::size_t x = 0; x < sg.var_count(); ++x) {
    const auto& clique = sg.clique(static_cast<VarId>(x));
    for (ProcessId a : clique) {
      for (ProcessId b : clique) {
        if (a != b) {
          EXPECT_TRUE(sg.has_edge(a, b))
              << "C(x" << x << ") members " << a << "," << b;
        }
      }
    }
  }
}

TEST(ShareGraph, EdgeIffSharedVariable) {
  const ShareGraph sg(topo::random_replication(10, 12, 3, /*seed=*/3));
  const auto& dist = sg.distribution();
  for (ProcessId i = 0; i < 10; ++i) {
    for (ProcessId j = 0; j < 10; ++j) {
      if (i == j) continue;
      bool share = false;
      for (VarId x = 0; x < 12; ++x) {
        if (dist.holds(i, x) && dist.holds(j, x)) share = true;
      }
      EXPECT_EQ(sg.has_edge(i, j), share) << i << "," << j;
    }
  }
}

TEST(ShareGraph, LabelSymmetricAndCorrect) {
  const ShareGraph sg(topo::bellman_ford_fig8());
  for (ProcessId i = 0; i < 5; ++i) {
    for (ProcessId j = 0; j < 5; ++j) {
      EXPECT_EQ(sg.label(i, j), sg.label(j, i));
    }
  }
  // p1 (index 0) and p2 (index 1) share {x1, k1} = ids {0, 5}.
  EXPECT_EQ(sg.label(0, 1), (std::vector<VarId>{0, 5}));
}

TEST(ShareGraph, ComponentsOfDisconnectedGraph) {
  Distribution d;
  d.name = "two-islands";
  d.var_count = 2;
  d.per_process = {{0}, {0}, {1}, {1}};
  const ShareGraph sg(d);
  const auto comps = sg.components();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<ProcessId>{2, 3}));
}

TEST(ShareGraph, CompleteReplicationIsOneClique) {
  const ShareGraph sg(topo::complete(6, 3));
  EXPECT_EQ(sg.edge_count(), 15u);  // K6
  for (VarId x = 0; x < 3; ++x) {
    EXPECT_EQ(sg.clique(x).size(), 6u);
  }
}

TEST(ShareGraph, DotExportMentionsEveryEdge) {
  const ShareGraph sg(topo::fig1());
  const std::string dot = sg.to_dot();
  EXPECT_NE(dot.find("p0 -- p1"), std::string::npos);
  EXPECT_NE(dot.find("p0 -- p2"), std::string::npos);
  EXPECT_EQ(dot.find("p1 -- p2"), std::string::npos);
}

/// neighbours() and clique() against the definitions: an edge iff
/// Distribution::holds finds a shared variable, C(x) = replicas_of(x).
/// The mcs layer's CliqueTable must give the same cliques.
void expect_matches_definition(const Distribution& dist) {
  const ShareGraph sg(dist);
  const mcs::CliqueTable table(dist);
  const std::size_t n = dist.process_count();
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    const auto xv = static_cast<VarId>(x);
    EXPECT_EQ(sg.clique(xv), dist.replicas_of(xv)) << dist.name << " x" << x;
    EXPECT_EQ(table.clique(xv), dist.replicas_of(xv))
        << dist.name << " x" << x;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<ProcessId> expected;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      for (std::size_t x = 0; x < dist.var_count; ++x) {
        const auto xv = static_cast<VarId>(x);
        if (dist.holds(static_cast<ProcessId>(i), xv) &&
            dist.holds(static_cast<ProcessId>(j), xv)) {
          expected.push_back(static_cast<ProcessId>(j));
          break;
        }
      }
    }
    EXPECT_EQ(sg.neighbours(static_cast<ProcessId>(i)), expected)
        << dist.name << " p" << i;
  }
}

TEST(ShareGraph, NeighboursAndCliquesMatchTheDefinition) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_matches_definition(topo::random_replication(40, 60, 3, seed));
    expect_matches_definition(topo::zipf_replication(40, 60, 4, 1.2, seed));
  }
  expect_matches_definition(topo::hierarchical(3, 4));
  expect_matches_definition(topo::preferential_attachment(30, 2, 5));
}

TEST(ShareGraph, VariableListedTwiceOnAProcessCountsOnce) {
  Distribution d;
  d.name = "duplicate-listing";
  d.var_count = 3;
  d.per_process = {{1, 0, 1}, {1}, {2, 0}, {2, 2}};
  expect_matches_definition(d);
  const ShareGraph sg(d);
  EXPECT_EQ(sg.clique(1), (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(sg.clique(2), (std::vector<ProcessId>{2, 3}));
  EXPECT_EQ(sg.label(0, 1), (std::vector<VarId>{1}));
  EXPECT_EQ(sg.edge_count(), 3u);  // 0-1, 0-2, 2-3
}

TEST(ShareGraph, VariableIdOutOfRangeIsRejected) {
  Distribution d;
  d.var_count = 2;
  d.per_process = {{0}, {2}};
  EXPECT_THROW(ShareGraph{d}, std::logic_error);
  EXPECT_THROW(mcs::CliqueTable{d}, std::logic_error);
  d.per_process = {{0}, {-1}};
  EXPECT_THROW(ShareGraph{d}, std::logic_error);
  EXPECT_THROW(mcs::CliqueTable{d}, std::logic_error);
}

TEST(Topologies, AverageReplication) {
  const auto d = topo::complete(8, 4);
  EXPECT_DOUBLE_EQ(d.average_replication(), 8.0);
  const auto r = topo::random_replication(10, 20, 3, 1);
  EXPECT_DOUBLE_EQ(r.average_replication(), 3.0);
}

TEST(Topologies, GridEdgeCount) {
  const auto d = topo::grid(3, 4);
  // Horizontal: 3 rows * 3 = 9; vertical: 2 * 4 = 8.
  EXPECT_EQ(d.var_count, 17u);
  const ShareGraph sg(d);
  EXPECT_EQ(sg.edge_count(), 17u);
}

TEST(Topologies, RandomReplicationExactDegree) {
  const auto d = topo::random_replication(9, 30, 4, 42);
  const ShareGraph sg(d);
  for (VarId x = 0; x < 30; ++x) {
    EXPECT_EQ(sg.clique(x).size(), 4u) << "x" << x;
  }
}

TEST(Topologies, DeterministicInSeed) {
  const auto a = topo::random_replication(9, 30, 4, 42);
  const auto b = topo::random_replication(9, 30, 4, 42);
  const auto c = topo::random_replication(9, 30, 4, 43);
  EXPECT_EQ(a.per_process, b.per_process);
  EXPECT_NE(a.per_process, c.per_process);
}

TEST(Topologies, Fig8DistributionMatchesPaper) {
  const auto d = topo::bellman_ford_fig8();
  ASSERT_EQ(d.process_count(), 5u);
  // X_2 = {x1, x2, x3, k1, k2, k3} = ids {0,1,2,5,6,7}.
  EXPECT_EQ(d.per_process[1], (std::vector<VarId>{0, 1, 2, 5, 6, 7}));
  // X_5 = {x3, x4, x5, k3, k4, k5} = ids {2,3,4,7,8,9}.
  EXPECT_EQ(d.per_process[4], (std::vector<VarId>{2, 3, 4, 7, 8, 9}));
}

}  // namespace
}  // namespace pardsm::graph
