// Unit tests for st::graph — SocialGraph invariants, BFS distances/paths
// against brute force, interaction accounting, and the random generators'
// structural properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "graph/generators.hpp"
#include "graph/social_graph.hpp"
#include "stats/rng.hpp"

namespace st::graph {
namespace {

TEST(SocialGraph, StartsEmpty) {
  SocialGraph g(5);
  EXPECT_EQ(g.size(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(g.degree(v), 0u);
    EXPECT_TRUE(g.neighbors(v).empty());
  }
}

TEST(SocialGraph, AddRelationshipIsUndirected) {
  SocialGraph g(4);
  EXPECT_TRUE(g.add_relationship(0, 1, Relationship::kFriendship));
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(1, 0));
  EXPECT_EQ(g.relationship_count(0, 1), 1u);
  EXPECT_EQ(g.relationship_count(1, 0), 1u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(SocialGraph, DuplicateRelationshipIsNoOp) {
  SocialGraph g(3);
  EXPECT_TRUE(g.add_relationship(0, 1, Relationship::kKinship));
  EXPECT_FALSE(g.add_relationship(0, 1, Relationship::kKinship));
  EXPECT_EQ(g.relationship_count(0, 1), 1u);
}

TEST(SocialGraph, ParallelRelationshipTypesAccumulate) {
  SocialGraph g(3);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.add_relationship(0, 1, Relationship::kColleague);
  g.add_relationship(0, 1, Relationship::kKinship);
  EXPECT_EQ(g.relationship_count(0, 1), 3u);
  auto rels = g.relationships(0, 1);
  std::set<Relationship> expected{Relationship::kFriendship,
                                  Relationship::kColleague,
                                  Relationship::kKinship};
  EXPECT_EQ(std::set<Relationship>(rels.begin(), rels.end()), expected);
  EXPECT_EQ(g.edge_count(), 1u);  // still one edge
}

TEST(SocialGraph, SelfRelationshipRejected) {
  SocialGraph g(3);
  EXPECT_FALSE(g.add_relationship(1, 1, Relationship::kFriendship));
  EXPECT_FALSE(g.adjacent(1, 1));
}

TEST(SocialGraph, OutOfRangeThrows) {
  // A rejected call leaves no trace: every mutator validates both ids
  // before it writes, so a throw moves neither the structure epoch nor
  // the edge count nor any adjacency or interaction row.
  SocialGraph g(3);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.add_relationship(1, 2, Relationship::kColleague);
  g.record_interaction(0, 1, 2.0);
  g.record_interaction(2, 0, 3.0);
  auto snapshot = [&g] {
    std::vector<double> out{static_cast<double>(g.structure_epoch()),
                            static_cast<double>(g.edge_count())};
    for (NodeId v = 0; v < 3; ++v) {
      const auto adj = g.adjacency(v);
      out.push_back(static_cast<double>(adj.targets.size()));
      out.insert(out.end(), adj.targets.begin(), adj.targets.end());
      out.insert(out.end(), adj.masks.begin(), adj.masks.end());
      const auto row = g.interactions(v);
      out.push_back(g.total_interactions(v));
      out.push_back(static_cast<double>(row.targets.size()));
      out.insert(out.end(), row.targets.begin(), row.targets.end());
      out.insert(out.end(), row.counts.begin(), row.counts.end());
    }
    return out;
  };
  const auto before = snapshot();
  constexpr NodeId kBad = 7;
  const auto rel = Relationship::kKinship;
  EXPECT_THROW(g.add_relationship(0, kBad, rel), std::out_of_range);
  EXPECT_EQ(snapshot(), before) << "add_relationship(0, bad)";
  EXPECT_THROW(g.add_relationship(kBad, 0, rel), std::out_of_range);
  EXPECT_EQ(snapshot(), before) << "add_relationship(bad, 0)";
  EXPECT_THROW(g.remove_relationship(1, kBad, rel), std::out_of_range);
  EXPECT_EQ(snapshot(), before) << "remove_relationship(1, bad)";
  EXPECT_THROW(g.remove_relationship(kBad, 1, rel), std::out_of_range);
  EXPECT_EQ(snapshot(), before) << "remove_relationship(bad, 1)";
  EXPECT_THROW(g.record_interaction(0, kBad), std::out_of_range);
  EXPECT_EQ(snapshot(), before) << "record_interaction(0, bad)";
  EXPECT_THROW(g.record_interaction(kBad, 0), std::out_of_range);
  EXPECT_EQ(snapshot(), before) << "record_interaction(bad, 0)";
  EXPECT_THROW(g.clear_node(kBad), std::out_of_range);
  EXPECT_EQ(snapshot(), before) << "clear_node(bad)";
  EXPECT_THROW(g.distance(0, 9), std::out_of_range);
}

TEST(SocialGraph, RemoveRelationship) {
  SocialGraph g(3);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.add_relationship(0, 1, Relationship::kColleague);
  EXPECT_TRUE(g.remove_relationship(0, 1, Relationship::kFriendship));
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_EQ(g.relationship_count(0, 1), 1u);
  // Removing the last relationship removes the edge itself.
  EXPECT_TRUE(g.remove_relationship(1, 0, Relationship::kColleague));
  EXPECT_FALSE(g.adjacent(0, 1));
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.remove_relationship(0, 1, Relationship::kColleague));
}

TEST(SocialGraph, NeighborsSortedAndConsistent) {
  SocialGraph g(6);
  g.add_relationship(3, 5, Relationship::kFriendship);
  g.add_relationship(3, 0, Relationship::kFriendship);
  g.add_relationship(3, 4, Relationship::kFriendship);
  auto n = g.neighbors(3);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
  EXPECT_EQ(g.degree(3), 3u);
}

TEST(SocialGraph, InteractionAccounting) {
  SocialGraph g(4);
  g.record_interaction(0, 1);
  g.record_interaction(0, 1, 2.0);
  g.record_interaction(0, 2, 5.0);
  EXPECT_DOUBLE_EQ(g.interaction(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(g.interaction(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(g.interaction(1, 0), 0.0);  // directed
  EXPECT_DOUBLE_EQ(g.total_interactions(0), 8.0);
  EXPECT_DOUBLE_EQ(g.total_interactions(1), 0.0);
}

TEST(SocialGraph, InteractionIgnoresSelfAndNonPositive) {
  SocialGraph g(3);
  g.record_interaction(0, 0, 5.0);
  g.record_interaction(0, 1, 0.0);
  g.record_interaction(0, 1, -3.0);
  EXPECT_DOUBLE_EQ(g.total_interactions(0), 0.0);
}

TEST(SocialGraph, InteractionRejectsNonFiniteAndNonPositiveCounts) {
  // A NaN count would make the rater's Eq. (2) total NaN, and +Inf would
  // drive every other term of its closeness row to 0.
  SocialGraph g(3);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.record_interaction(0, 1, 2.0);
  g.record_interaction(0, 2, 3.0);
  auto snapshot = [&g] {
    std::vector<double> out;
    for (NodeId v = 0; v < 3; ++v) {
      out.push_back(g.total_interactions(v));
      const auto row = g.interactions(v);
      out.push_back(static_cast<double>(row.targets.size()));
      out.insert(out.end(), row.targets.begin(), row.targets.end());
      out.insert(out.end(), row.counts.begin(), row.counts.end());
    }
    return out;
  };
  const auto before = snapshot();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), 0.0, -1.0}) {
    g.record_interaction(0, 1, bad);  // an existing row entry
    g.record_interaction(1, 2, bad);  // a rater with no row yet
    EXPECT_EQ(snapshot(), before) << "count " << bad;
  }
  // A finite count that would overflow a total near DBL_MAX is dropped
  // whole. Kept, it would make the total +Inf, Omega_c(0, 1) NaN and
  // Omega_c(0, 2) zero.
  g.record_interaction(0, 1, 1e308);
  const auto near_max = snapshot();
  ASSERT_GE(g.total_interactions(0), 1e308);
  g.record_interaction(0, 1, 1e308);  // an existing row entry
  g.record_interaction(0, 2, std::numeric_limits<double>::max());
  EXPECT_EQ(snapshot(), near_max);
}

TEST(SocialGraph, InteractionsDoNotRequireAdjacency) {
  SocialGraph g(3);
  g.record_interaction(0, 2, 4.0);
  EXPECT_FALSE(g.adjacent(0, 2));
  EXPECT_DOUBLE_EQ(g.interaction(0, 2), 4.0);
}

TEST(SocialGraph, CommonFriends) {
  SocialGraph g(6);
  // 0-2, 1-2, 0-3, 1-3, 0-1 (triangle edge should not list endpoints)
  g.add_relationship(0, 2, Relationship::kFriendship);
  g.add_relationship(1, 2, Relationship::kFriendship);
  g.add_relationship(0, 3, Relationship::kFriendship);
  g.add_relationship(1, 3, Relationship::kFriendship);
  g.add_relationship(0, 1, Relationship::kFriendship);
  auto common = g.common_friends(0, 1);
  EXPECT_EQ(common, (std::vector<NodeId>{2, 3}));
  EXPECT_TRUE(g.common_friends(2, 3).size() == 2);  // {0, 1}
}

TEST(SocialGraph, DistanceChain) {
  SocialGraph g(5);
  for (NodeId v = 0; v + 1 < 5; ++v)
    g.add_relationship(v, v + 1, Relationship::kFriendship);
  EXPECT_EQ(g.distance(0, 0).value(), 0u);
  EXPECT_EQ(g.distance(0, 1).value(), 1u);
  EXPECT_EQ(g.distance(0, 4).value(), 4u);
  EXPECT_EQ(g.distance(4, 0).value(), 4u);
}

TEST(SocialGraph, DistanceRespectsHopCap) {
  SocialGraph g(5);
  for (NodeId v = 0; v + 1 < 5; ++v)
    g.add_relationship(v, v + 1, Relationship::kFriendship);
  EXPECT_FALSE(g.distance(0, 4, 3).has_value());
  EXPECT_TRUE(g.distance(0, 3, 3).has_value());
}

TEST(SocialGraph, DistanceUnreachable) {
  SocialGraph g(4);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.add_relationship(2, 3, Relationship::kFriendship);
  EXPECT_FALSE(g.distance(0, 3).has_value());
}

TEST(SocialGraph, ShortestPathEndpointsAndAdjacency) {
  SocialGraph g(6);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.add_relationship(1, 2, Relationship::kFriendship);
  g.add_relationship(2, 5, Relationship::kFriendship);
  g.add_relationship(0, 3, Relationship::kFriendship);
  g.add_relationship(3, 5, Relationship::kFriendship);
  auto path = g.shortest_path(0, 5);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->front(), 0u);
  EXPECT_EQ(path->back(), 5u);
  EXPECT_EQ(path->size(), 3u);  // 0-3-5 is the 2-hop route
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    EXPECT_TRUE(g.adjacent((*path)[i], (*path)[i + 1]));
  }
}

TEST(SocialGraph, ShortestPathSelf) {
  SocialGraph g(2);
  auto path = g.shortest_path(1, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, std::vector<NodeId>{1});
}

/// Brute-force BFS oracle for the randomized distance comparison.
std::optional<std::size_t> bfs_oracle(const SocialGraph& g, NodeId a,
                                      NodeId b, std::size_t cap) {
  if (a == b) return 0;
  std::vector<int> dist(g.size(), -1);
  std::queue<NodeId> q;
  q.push(a);
  dist[a] = 0;
  while (!q.empty()) {
    NodeId v = q.front();
    q.pop();
    if (static_cast<std::size_t>(dist[v]) >= cap) continue;
    for (NodeId n : g.neighbors(v)) {
      if (dist[n] != -1) continue;
      dist[n] = dist[v] + 1;
      if (n == b) return static_cast<std::size_t>(dist[n]);
      q.push(n);
    }
  }
  return std::nullopt;
}

TEST(SocialGraph, DistanceMatchesOracleOnRandomGraphs) {
  stats::Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    SocialGraph g = erdos_renyi(40, 0.08, rng);
    for (NodeId a = 0; a < 40; a += 3) {
      for (NodeId b = 0; b < 40; b += 5) {
        auto got = g.distance(a, b, 4);
        auto want = bfs_oracle(g, a, b, 4);
        EXPECT_EQ(got, want) << "a=" << a << " b=" << b;
      }
    }
  }
}

TEST(RelationshipWeights, KinshipStrongest) {
  EXPECT_GT(default_relationship_weight(Relationship::kKinship),
            default_relationship_weight(Relationship::kFriendship));
  EXPECT_GT(default_relationship_weight(Relationship::kFriendship),
            default_relationship_weight(Relationship::kBusiness));
}

// --- generators --------------------------------------------------------------

TEST(Generators, ErdosRenyiEdgeCountNearExpectation) {
  stats::Rng rng(1);
  const std::size_t n = 100;
  const double p = 0.1;
  SocialGraph g = erdos_renyi(n, p, rng);
  double expected = p * static_cast<double>(n * (n - 1) / 2);
  EXPECT_NEAR(static_cast<double>(g.edge_count()), expected,
              4.0 * std::sqrt(expected));
}

TEST(Generators, ErdosRenyiZeroProbabilityIsEmpty) {
  stats::Rng rng(2);
  SocialGraph g = erdos_renyi(50, 0.0, rng);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Generators, WattsStrogatzDegreePreservedAtBetaZero) {
  stats::Rng rng(3);
  SocialGraph g = watts_strogatz(30, 4, 0.0, rng);
  for (NodeId v = 0; v < 30; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_EQ(g.edge_count(), 60u);
}

TEST(Generators, WattsStrogatzRewiredKeepsEdgeCount) {
  stats::Rng rng(4);
  SocialGraph g = watts_strogatz(60, 6, 0.3, rng);
  // Rewiring moves endpoints but never creates or destroys edges (modulo
  // rare rejection exhaustion, which keeps the original edge).
  EXPECT_EQ(g.edge_count(), 180u);
}

TEST(Generators, WattsStrogatzValidation) {
  stats::Rng rng(5);
  EXPECT_THROW(watts_strogatz(10, 3, 0.1, rng), std::invalid_argument);
  EXPECT_THROW(watts_strogatz(4, 4, 0.1, rng), std::invalid_argument);
}

TEST(Generators, BarabasiAlbertDegreeSumAndConnectivity) {
  stats::Rng rng(6);
  const std::size_t n = 200, m = 3;
  SocialGraph g = barabasi_albert(n, m, rng);
  // Every non-seed node attaches m edges.
  std::size_t expected_min = (n - m - 1) * m;  // plus the seed clique
  EXPECT_GE(g.edge_count(), expected_min);
  // Preferential attachment yields a connected graph.
  std::size_t reachable = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (g.distance(0, v, n).has_value()) ++reachable;
  }
  EXPECT_EQ(reachable, n);
}

TEST(Generators, BarabasiAlbertHubsExist) {
  stats::Rng rng(7);
  SocialGraph g = barabasi_albert(500, 2, rng);
  std::size_t max_degree = 0;
  for (NodeId v = 0; v < 500; ++v)
    max_degree = std::max(max_degree, g.degree(v));
  // Power-law degree: the biggest hub far exceeds the mean degree (4).
  EXPECT_GT(max_degree, 20u);
}

TEST(Generators, BarabasiAlbertValidation) {
  stats::Rng rng(8);
  EXPECT_THROW(barabasi_albert(3, 3, rng), std::invalid_argument);
  EXPECT_THROW(barabasi_albert(5, 0, rng), std::invalid_argument);
}

class GeneratorSeedProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(GeneratorSeedProperty, GraphsAreDeterministicPerSeed) {
  stats::Rng rng1(GetParam()), rng2(GetParam());
  SocialGraph a = barabasi_albert(80, 2, rng1);
  SocialGraph b = barabasi_albert(80, 2, rng2);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId v = 0; v < 80; ++v) {
    auto na = a.neighbors(v);
    auto nb = b.neighbors(v);
    ASSERT_EQ(std::vector<NodeId>(na.begin(), na.end()),
              std::vector<NodeId>(nb.begin(), nb.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedProperty,
                         ::testing::Values(1u, 7u, 42u, 31337u));

// The structure epoch is the one witness of the SocialStateCache's path
// rows (DESIGN.md §13): it must move on every relationship change that
// changes something, and on nothing else. Interaction edits, no-op
// mutator calls and CSR compactions carry no epoch. Each move stamps
// node_epoch() on exactly the nodes whose adjacency row it changed,
// which is how the cache finds the rows a change can reach.

/// Snapshot of every node's stamp and the structure epoch they were
/// taken at.
struct Stamps {
  SocialGraph::Revision epoch = 0;
  std::vector<SocialGraph::Revision> nodes;
};
Stamps stamps_of(const SocialGraph& g) {
  Stamps out{g.structure_epoch(), {}};
  for (NodeId v = 0; v < g.size(); ++v) out.nodes.push_back(g.node_epoch(v));
  return out;
}

/// Exactly the nodes in `stamped` were stamped since `before`: each with
/// an epoch the graph moved to since then, and every other node keeps
/// its stamp.
::testing::AssertionResult stamped_exactly(const SocialGraph& g,
                                           const Stamps& before,
                                           const std::set<NodeId>& stamped) {
  for (NodeId v = 0; v < g.size(); ++v) {
    const SocialGraph::Revision got = g.node_epoch(v);
    const bool ok = stamped.count(v) != 0
                        ? got > before.epoch && got <= g.structure_epoch()
                        : got == before.nodes[v];
    if (!ok) {
      return ::testing::AssertionFailure()
             << "node " << v << ": node_epoch " << got << " ("
             << (stamped.count(v) != 0 ? "stamped" : "not stamped") << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SocialGraphStructureEpoch, EveryEffectiveRelationshipChangeMovesIt) {
  SocialGraph g(4);
  EXPECT_EQ(g.structure_epoch(), 0U);
  auto before = stamps_of(g);
  EXPECT_EQ(before.nodes, std::vector<SocialGraph::Revision>(4, 0));

  EXPECT_TRUE(g.add_relationship(0, 1, Relationship::kFriendship));
  EXPECT_EQ(g.structure_epoch(), 1U);  // a brand-new edge
  EXPECT_TRUE(stamped_exactly(g, before, {0, 1}));
  before = stamps_of(g);

  // Re-adding a type the edge has changes nothing, from either end.
  EXPECT_FALSE(g.add_relationship(1, 0, Relationship::kFriendship));
  EXPECT_EQ(g.structure_epoch(), 1U);
  EXPECT_TRUE(stamped_exactly(g, before, {}));

  // A second type on the edge adds no adjacency but still moves it, and
  // stamps both ends: their rows hold the edge's mask.
  EXPECT_TRUE(g.add_relationship(0, 1, Relationship::kColleague));
  EXPECT_EQ(g.structure_epoch(), 2U);
  EXPECT_TRUE(stamped_exactly(g, before, {0, 1}));

  EXPECT_TRUE(g.remove_relationship(0, 1, Relationship::kFriendship));
  EXPECT_EQ(g.structure_epoch(), 3U);  // one type off, the edge survives
  EXPECT_TRUE(stamped_exactly(g, before, {0, 1}));
  EXPECT_TRUE(g.remove_relationship(1, 0, Relationship::kColleague));
  EXPECT_EQ(g.structure_epoch(), 4U);  // the last type: the edge is gone
  EXPECT_TRUE(stamped_exactly(g, before, {0, 1}));
  EXPECT_FALSE(g.adjacent(0, 1));
  before = stamps_of(g);

  // Removing a type from a non-edge, a missing type from an edge, and a
  // self-relationship are all no-ops.
  EXPECT_FALSE(g.remove_relationship(0, 2, Relationship::kFriendship));
  EXPECT_TRUE(stamped_exactly(g, before, {}));
  EXPECT_TRUE(g.add_relationship(2, 3, Relationship::kKinship));
  EXPECT_EQ(g.structure_epoch(), 5U);
  EXPECT_TRUE(stamped_exactly(g, before, {2, 3}));
  before = stamps_of(g);
  EXPECT_FALSE(g.remove_relationship(2, 3, Relationship::kFriendship));
  EXPECT_FALSE(g.add_relationship(3, 3, Relationship::kFriendship));
  EXPECT_EQ(g.structure_epoch(), 5U);
  EXPECT_TRUE(stamped_exactly(g, before, {}));
  EXPECT_EQ(g.node_epoch(4), 0U);  // out of range
}

TEST(SocialGraphStructureEpoch, InteractionsAndCompactionLeaveItAlone) {
  SocialGraph g(3);
  g.add_relationship(0, 1, Relationship::kFriendship);
  const SocialGraph::Revision before = g.structure_epoch();
  const auto stamps = stamps_of(g);

  g.record_interaction(0, 1, 2.0);  // along an edge
  g.record_interaction(0, 2, 1.0);  // to a non-neighbour
  g.record_interaction(2, 1, 1.0);  // from a node with no edges
  g.record_interaction(0, 1, 1.0);  // onto an existing row entry
  g.record_interaction(1, 1, 1.0);  // a self-interaction: dropped
  g.begin_interval();
  EXPECT_DOUBLE_EQ(g.total_interactions(0), 4.0);
  EXPECT_DOUBLE_EQ(g.total_interactions(2), 1.0);
  EXPECT_EQ(g.structure_epoch(), before);
  EXPECT_TRUE(stamped_exactly(g, stamps, {}));
}

TEST(SocialGraphStructureEpoch, ClearNodeMovesItOnlyIfTheNodeHadARelationship) {
  SocialGraph g(6);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.add_relationship(1, 5, Relationship::kColleague);
  g.add_relationship(1, 5, Relationship::kKinship);
  g.add_relationship(3, 4, Relationship::kFriendship);
  g.record_interaction(0, 1, 2.0);
  g.record_interaction(0, 2, 1.0);  // 0's row mentions 2
  g.record_interaction(2, 1, 1.0);  // 2's own row
  g.record_interaction(3, 2, 1.0);  // 3's row mentions 2
  const SocialGraph::Revision before = g.structure_epoch();
  const auto stamps = stamps_of(g);

  // Node 2 has no relationship, so clearing it only trims interaction
  // rows: it lies on no path, and no path can move.
  g.clear_node(2);
  EXPECT_DOUBLE_EQ(g.total_interactions(0), 2.0);
  EXPECT_DOUBLE_EQ(g.total_interactions(3), 0.0);
  EXPECT_EQ(g.structure_epoch(), before);
  EXPECT_TRUE(stamped_exactly(g, stamps, {}));

  // Clearing a node with relationships removes them, which moves the
  // epoch and stamps the node and every former friend; clearing it again
  // is a no-op.
  g.clear_node(1);
  const SocialGraph::Revision after = g.structure_epoch();
  EXPECT_GT(after, before);
  EXPECT_TRUE(stamped_exactly(g, stamps, {0, 1, 5}));
  g.clear_node(1);
  EXPECT_EQ(g.structure_epoch(), after);
  EXPECT_TRUE(stamped_exactly(g, stamps, {0, 1, 5}));
}

TEST(SocialGraphStructureEpoch, MovesByOneExactlyWhenAMutatorReportsAChange) {
  // Over a mixed workload the epoch never decreases and moves by one
  // exactly when add/remove_relationship report a change, stamping both
  // endpoints of that change and no other node.
  stats::Rng rng(99);
  SocialGraph g = barabasi_albert(30, 2, rng);
  std::size_t moves = 0;
  for (int step = 0; step < 200; ++step) {
    const auto a = static_cast<NodeId>(rng.index(30));
    auto b = static_cast<NodeId>(rng.index(30));
    if (b == a) b = (b + 1) % 30;
    const auto r = static_cast<Relationship>(rng.index(kRelationshipCount));
    const SocialGraph::Revision last = g.structure_epoch();
    const auto stamps = stamps_of(g);
    const double roll = rng.uniform(0.0, 1.0);
    bool changed = false;
    if (roll < 0.3) {
      changed = g.add_relationship(a, b, r);
    } else if (roll < 0.6) {
      changed = g.remove_relationship(a, b, r);
    } else if (roll < 0.9) {
      g.record_interaction(a, b);
    } else {
      g.begin_interval();
    }
    EXPECT_EQ(g.structure_epoch(), last + (changed ? 1 : 0)) << step;
    EXPECT_TRUE(stamped_exactly(g, stamps,
                                changed ? std::set<NodeId>{a, b}
                                        : std::set<NodeId>{}))
        << step;
    moves += changed ? 1 : 0;
  }
  EXPECT_GT(moves, 0U);
}

}  // namespace
}  // namespace st::graph
