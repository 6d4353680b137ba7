// Hoops (Definition 3), hoop existence / enumeration, and the Theorem 1
// x-relevant characterization.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "mcs/causal_partial_adhoc.h"
#include "sharegraph/hoops.h"
#include "sharegraph/topologies.h"

namespace pardsm::graph {
namespace {

TEST(Hoops, Fig1HasNoHoops) {
  const ShareGraph sg(topo::fig1());
  EXPECT_FALSE(hoop_exists(sg, 0));
  EXPECT_FALSE(hoop_exists(sg, 1));
  EXPECT_TRUE(enumerate_hoops(sg, 0).hoops.empty());
  EXPECT_TRUE(hoop_members(sg, 0).empty());
}

TEST(Hoops, ChainIsOneHoop) {
  const std::size_t n = 6;
  const ShareGraph sg(topo::chain_with_hoop(n));
  ASSERT_TRUE(hoop_exists(sg, 0));
  const auto e = enumerate_hoops(sg, 0);
  ASSERT_EQ(e.hoops.size(), 1u);
  // The unique x-hoop is the whole chain [0, 1, ..., n-1].
  Hoop expected;
  for (std::size_t i = 0; i < n; ++i) {
    expected.push_back(static_cast<ProcessId>(i));
  }
  EXPECT_EQ(e.hoops.front(), expected);
  // Every interior process is a hoop member.
  const auto members = hoop_members(sg, 0);
  EXPECT_EQ(members.size(), n - 2);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    EXPECT_TRUE(members.count(static_cast<ProcessId>(i))) << i;
  }
}

TEST(Hoops, ChainRelevantSetIsEveryone) {
  const ShareGraph sg(topo::chain_with_hoop(5));
  const auto rel = x_relevant(sg, 0);
  EXPECT_EQ(rel.size(), 5u);  // C(x) = {0,4} plus the interior
}

TEST(Hoops, OpenChainHasNoHoopsAtAll) {
  // In the open chain, C(l_i) = {i, i+1}; removing them disconnects the
  // two sides, so no alternative path exists.
  const ShareGraph sg(topo::open_chain(6));
  for (VarId link = 0; link < 5; ++link) {
    EXPECT_FALSE(hoop_exists(sg, link)) << "link " << link;
    EXPECT_TRUE(hoop_members(sg, link).empty());
  }
}

TEST(Hoops, ClosedChainLinkVariablesHoopAroundTheCycle) {
  // The closing variable x turns the chain into a cycle: every link
  // variable now has a hoop through the far side.
  const ShareGraph sg(topo::chain_with_hoop(6));
  for (VarId link = 1; link < 6; ++link) {
    EXPECT_TRUE(hoop_exists(sg, link)) << "link " << link;
    EXPECT_EQ(hoop_members(sg, link).size(), 4u) << "link " << link;
  }
}

TEST(Hoops, RingEveryVariableHasAHoop) {
  const std::size_t n = 7;
  const ShareGraph sg(topo::ring(n));
  for (VarId x = 0; x < static_cast<VarId>(n); ++x) {
    EXPECT_TRUE(hoop_exists(sg, x)) << "x" << x;
    // The hoop is the rest of the ring: all n-2 other processes.
    EXPECT_EQ(hoop_members(sg, x).size(), n - 2) << "x" << x;
    EXPECT_EQ(x_relevant(sg, x).size(), n) << "x" << x;
  }
}

TEST(Hoops, StarLeafVariableHoopThroughHub) {
  const ShareGraph sg(topo::star(4));
  // The leaf-leaf variable is the last id; C = {p1, p2}; hoop through hub.
  const auto x = static_cast<VarId>(sg.var_count() - 1);
  ASSERT_TRUE(hoop_exists(sg, x));
  const auto members = hoop_members(sg, x);
  EXPECT_EQ(members, (std::set<ProcessId>{0}));  // only the hub
  const auto e = enumerate_hoops(sg, x);
  ASSERT_EQ(e.hoops.size(), 1u);
  EXPECT_EQ(e.hoops.front(), (Hoop{1, 0, 2}));
}

TEST(Hoops, HubSpokeVariablesHaveNoHoops) {
  const ShareGraph sg(topo::star(4));
  // Spoke variable s_3 (hub-leaf3): C = {0, 3}.  Any alternative path from
  // p3 leads only through the hub — but the hub is in C, so no hoop.
  EXPECT_FALSE(hoop_exists(sg, 2));
  EXPECT_TRUE(hoop_members(sg, 2).empty());
}

TEST(Hoops, CompleteReplicationHasNoHoops) {
  const ShareGraph sg(topo::complete(6, 4));
  for (VarId x = 0; x < 4; ++x) {
    EXPECT_FALSE(hoop_exists(sg, x));
    EXPECT_EQ(x_relevant(sg, x).size(), 6u);  // C(x) is everyone already
  }
}

TEST(Hoops, CyclicClustersBridgeVariablesHaveHoops) {
  const ShareGraph sg(topo::clusters(3, 3, /*cyclic=*/true));
  const auto summary = summarize_relevance(sg);
  EXPECT_GT(summary.vars_with_hoops, 0u);
  EXPECT_GT(summary.overhead_ratio(), 1.0);
}

TEST(Hoops, AcyclicClustersBridgesHaveNoHoops) {
  const ShareGraph sg(topo::clusters(3, 3, /*cyclic=*/false));
  // Bridge variables: ids 3, 4.  Cutting C(bridge) separates the clusters.
  EXPECT_FALSE(hoop_exists(sg, 3));
  EXPECT_FALSE(hoop_exists(sg, 4));
}

TEST(Hoops, EnumerationAgreesWithFlowMembership) {
  // Property: union of intermediate vertices over all enumerated hoops ==
  // hoop_members (on graphs small enough to enumerate exhaustively).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ShareGraph sg(topo::random_replication(8, 6, 2, seed));
    for (VarId x = 0; x < 6; ++x) {
      const auto e = enumerate_hoops(sg, x, /*limit=*/1u << 18);
      ASSERT_FALSE(e.truncated);
      std::set<ProcessId> from_enum;
      for (const auto& hoop : e.hoops) {
        for (std::size_t i = 1; i + 1 < hoop.size(); ++i) {
          from_enum.insert(hoop[i]);
        }
      }
      EXPECT_EQ(from_enum, hoop_members(sg, x))
          << "seed " << seed << " x" << x;
      EXPECT_EQ(!e.hoops.empty(), hoop_exists(sg, x))
          << "seed " << seed << " x" << x;
    }
  }
}

TEST(Hoops, HoopEndpointsAreCliqueMembersAndInteriorIsNot) {
  const ShareGraph sg(topo::random_replication(9, 7, 3, 11));
  for (VarId x = 0; x < 7; ++x) {
    const auto& clique = sg.clique(x);
    const std::set<ProcessId> cset(clique.begin(), clique.end());
    for (const auto& hoop : enumerate_hoops(sg, x, 1u << 16).hoops) {
      ASSERT_GE(hoop.size(), 3u);
      EXPECT_TRUE(cset.count(hoop.front()));
      EXPECT_TRUE(cset.count(hoop.back()));
      EXPECT_NE(hoop.front(), hoop.back());
      for (std::size_t i = 1; i + 1 < hoop.size(); ++i) {
        EXPECT_FALSE(cset.count(hoop[i]));
      }
      // Consecutive pairs share a variable other than x.
      for (std::size_t i = 0; i + 1 < hoop.size(); ++i) {
        const auto label = sg.label(hoop[i], hoop[i + 1]);
        EXPECT_TRUE(std::any_of(label.begin(), label.end(),
                                [&](VarId v) { return v != x; }));
      }
    }
  }
}

TEST(Hoops, EnumerationTruncates) {
  // A dense random graph has combinatorially many hoops; the limit must
  // engage rather than hang.
  const ShareGraph sg(topo::random_replication(12, 24, 3, 5));
  const auto e = enumerate_hoops(sg, 0, /*limit=*/16);
  EXPECT_TRUE(e.truncated);
  EXPECT_LE(e.hoops.size(), 16u);
}

TEST(Hoops, RelevanceSummaryCountsPramObligations) {
  // Closed chain of 5 processes: the share graph is a 5-cycle, every
  // variable (x and the 4 links) has a hoop around the far side, so every
  // process is relevant to every variable under causal consistency.
  const ShareGraph sg(topo::chain_with_hoop(5));
  const auto s = summarize_relevance(sg);
  // PRAM obligations: Σ|C(x)| = 2 per variable × 5 variables.
  EXPECT_EQ(s.total_replicas, 10u);
  // Causal obligations: all 5 processes for each of the 5 variables.
  EXPECT_EQ(s.total_relevant, 25u);
  EXPECT_EQ(s.vars_with_hoops, 5u);
  EXPECT_DOUBLE_EQ(s.overhead_ratio(), 2.5);

  // Open chain: no hoops anywhere — causal needs nothing beyond C(x).
  const ShareGraph open(topo::open_chain(5));
  const auto so = summarize_relevance(open);
  EXPECT_EQ(so.total_relevant, so.total_replicas);
  EXPECT_EQ(so.vars_with_hoops, 0u);
  EXPECT_DOUBLE_EQ(so.overhead_ratio(), 1.0);
}


// ---------------------------------------------------------------------------
// The block pass against the exact oracle: the intermediate vertices of an
// exhaustive (untruncated) enumerate_hoops.
// ---------------------------------------------------------------------------

std::set<ProcessId> enumerated_members(const ShareGraph& sg, VarId x) {
  const auto e = enumerate_hoops(sg, x, /*limit=*/1u << 20);
  EXPECT_FALSE(e.truncated) << sg.distribution().name << " x" << x;
  std::set<ProcessId> out;
  for (const auto& hoop : e.hoops) out.insert(hoop.begin() + 1, hoop.end() - 1);
  return out;
}

/// Every variable of `sg`: hoop_members and hoop_exists match the oracle.
void expect_matches_enumeration(const ShareGraph& sg) {
  for (std::size_t xi = 0; xi < sg.var_count(); ++xi) {
    const auto x = static_cast<VarId>(xi);
    const auto oracle = enumerated_members(sg, x);
    EXPECT_EQ(hoop_members(sg, x), oracle)
        << sg.distribution().name << " x" << x;
    EXPECT_EQ(hoop_exists(sg, x), !oracle.empty())
        << sg.distribution().name << " x" << x;
  }
}

TEST(HoopBlocks, MatchEnumerationOnSeededSmallGraphs) {
  std::size_t graphs = 0;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    expect_matches_enumeration(ShareGraph(topo::random_replication(
        8, 4 + seed % 7, 2 + seed % 2, seed)));
    ++graphs;
  }
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    expect_matches_enumeration(ShareGraph(
        topo::zipf_replication(9, 6 + seed % 5, 2 + seed % 2, 1.0, seed)));
    ++graphs;
  }
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    expect_matches_enumeration(ShareGraph(
        topo::preferential_attachment(9 + seed % 3, 1 + seed % 2, seed)));
    ++graphs;
  }
  for (const auto& [rows, cols] :
       {std::pair{3, 3}, std::pair{3, 4}, std::pair{4, 3}}) {
    expect_matches_enumeration(ShareGraph(topo::torus(rows, cols)));
    ++graphs;
  }
  EXPECT_GE(graphs, 200u);
}

/// A hand-built distribution: per_process[p] = X_p.
Distribution shape(std::string name, std::size_t vars,
                   std::vector<std::vector<VarId>> per_process) {
  Distribution d;
  d.name = std::move(name);
  d.var_count = vars;
  d.per_process = std::move(per_process);
  return d;
}

// Variable 0 is x throughout; the other ids are the links of the shape.

TEST(HoopBlocks, TwoHoopsShareAMember) {
  // C(x) = {0, 1, 2}; hoops 0-3-1 and 1-4-2 both end at member 1.
  const ShareGraph sg(shape("shared-member", 5,
                            {{0, 1}, {0, 2, 3}, {0, 4}, {1, 2}, {3, 4}}));
  EXPECT_EQ(hoop_members(sg, 0), (std::set<ProcessId>{3, 4}));
  expect_matches_enumeration(sg);
}

TEST(HoopBlocks, TwoHoopCyclesJoinedAtACutVertex) {
  // A figure eight: ring 0-1-2-3 (links 0-3) and ring 3-4-5-6 (links
  // 4-7) share only process 3, a cut vertex of SG.  Each link's hoop runs
  // around its own ring; the other ring hangs off the cut vertex.
  const ShareGraph sg(shape("figure-eight", 8,
                            {{0, 3},
                             {0, 1},
                             {1, 2},
                             {2, 3, 4, 7},
                             {4, 5},
                             {5, 6},
                             {6, 7}}));
  EXPECT_EQ(hoop_members(sg, 0), (std::set<ProcessId>{2, 3}));  // C = {0,1}
  EXPECT_EQ(hoop_members(sg, 2), (std::set<ProcessId>{0, 1}));  // C = {2,3}
  EXPECT_EQ(hoop_members(sg, 4), (std::set<ProcessId>{5, 6}));  // C = {3,4}
  expect_matches_enumeration(sg);
}

TEST(HoopBlocks, CycleHangingOffAHoopVertexIsNotOnAHoop) {
  // C(x) = {0, 1}; hoop 0-2-1.  The triangle 2-3-4 shares only cut vertex
  // 2 with it: every path from 3 or 4 to C(x) passes 2 twice.
  const ShareGraph sg(shape("hanging-cycle", 6,
                            {{0, 1}, {0, 2}, {1, 2, 3, 5}, {3, 4}, {4, 5}}));
  EXPECT_EQ(hoop_members(sg, 0), (std::set<ProcessId>{2}));
  expect_matches_enumeration(sg);
}

TEST(HoopBlocks, PendantPathOffAHoopVertexIsNotOnAHoop) {
  // C(x) = {0, 1}; hoop 0-2-1; path 2-3-4 dangles from 2.
  const ShareGraph sg(
      shape("pendant", 5, {{0, 1}, {0, 2}, {1, 2, 3}, {3, 4}, {4}}));
  EXPECT_EQ(hoop_members(sg, 0), (std::set<ProcessId>{2}));
  expect_matches_enumeration(sg);
}

TEST(HoopBlocks, VertexAdjacentToTwoMembersIsOnAHoop) {
  // Vertex 2 shares y with member 0 and z with member 1: hoop 0-2-1.
  // Vertex 3 shares two variables with member 0 only: no hoop.
  const ShareGraph sg(
      shape("two-neighbours", 5, {{0, 1, 3, 4}, {0, 2}, {1, 2}, {3, 4}}));
  EXPECT_EQ(hoop_members(sg, 0), (std::set<ProcessId>{2}));
  expect_matches_enumeration(sg);
}

TEST(HoopBlocks, CliquesOfAtMostOneHaveNoHoops) {
  // x on p0 only and variable 5 on nobody, inside the ring 0-1-2-3 of
  // link variables 1-4 (which do have hoops).
  const ShareGraph sg(shape("tiny-cliques", 6,
                            {{0, 1, 4}, {1, 2}, {2, 3}, {3, 4}, {}}));
  EXPECT_TRUE(hoop_members(sg, 0).empty());
  EXPECT_TRUE(hoop_members(sg, 5).empty());
  EXPECT_EQ(hoop_members(sg, 1), (std::set<ProcessId>{2, 3}));
  expect_matches_enumeration(sg);
}

TEST(HoopBlocks, DisconnectedShareGraph) {
  // C(x) = {0, 1} with hoop 0-4-1; the island {2, 3} shares y only.
  const ShareGraph sg(
      shape("islands", 4, {{0, 2}, {0, 3}, {1}, {1}, {2, 3}}));
  EXPECT_EQ(hoop_members(sg, 0), (std::set<ProcessId>{4}));
  EXPECT_TRUE(hoop_members(sg, 1).empty());
  expect_matches_enumeration(sg);
}

TEST(HoopBlocks, MembersJoinedOnlyByXEdgesHaveNoHoop) {
  // C(x) = {0, 1, 2}; 0 and 1 also share y, so their edge label is
  // {x, y} — still no intermediate, so no hoop.  Vertex 3 hangs off 2.
  const ShareGraph sg(
      shape("x-edges", 3, {{0, 1}, {0, 1}, {0, 2}, {2}}));
  EXPECT_TRUE(hoop_members(sg, 0).empty());
  EXPECT_FALSE(hoop_exists(sg, 0));
  expect_matches_enumeration(sg);
}

// ---------------------------------------------------------------------------
// Theorem 1 at scale: sizes the per-vertex max-flow never reached.
// ---------------------------------------------------------------------------

TEST(HoopBlocks, HierarchicalRelevanceIsTheCliqueAtScale) {
  // A tree of cells has no cycle outside a cell: R(x) = C(x) everywhere.
  const auto dist = topo::hierarchical(4, 6);
  ASSERT_EQ(dist.process_count(), 1365u);
  const auto analysis = mcs::StaticRelevance::analyze(dist);
  const ShareGraph sg(dist);
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    const auto& clique = sg.clique(static_cast<VarId>(x));
    EXPECT_EQ(analysis->relevant[x],
              std::set<ProcessId>(clique.begin(), clique.end()))
        << "x" << x;
  }
}

TEST(HoopBlocks, TorusRelevanceIsEveryoneAtScale) {
  // Every torus edge closes around the rest of the torus.
  const ShareGraph sg(topo::torus(32, 32));
  ASSERT_EQ(sg.process_count(), 1024u);
  for (std::size_t x = 0; x < sg.var_count(); ++x) {
    ASSERT_EQ(x_relevant(sg, static_cast<VarId>(x)).size(), 1024u) << "x" << x;
  }
}

}  // namespace
}  // namespace pardsm::graph
