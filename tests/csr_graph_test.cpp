// CSR equivalence suite (DESIGN.md §15). The CSR refactor's contract is
// that representation is unobservable: every public accessor and every
// revision/epoch counter of the CSR-backed SocialGraph/InterestProfiles
// must match a faithful port of the pre-CSR vector-of-vectors layout on
// ANY mutation sequence, and compaction timing (threshold-triggered or
// explicit begin_interval()) must be invisible. The suites here replay
// randomized mutation mixes — relationship add/remove, interactions,
// clear_node, whitewashing re-entry — against both representations and
// compare exhaustively, then check rebuild determinism, memory
// accounting, and the end-to-end plugin differential at threads {1,2,4}.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/similarity.hpp"
#include "core/socialtrust.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/reference_graph.hpp"
#include "graph/social_graph.hpp"
#include "reputation/paper_eigentrust.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace st {
namespace {

using graph::NodeId;
using graph::ReferenceSocialGraph;
using graph::Relationship;
using graph::SocialGraph;

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bit patterns differ)";
}

// ---------------------------------------------------------------------------
// SocialGraph vs ReferenceSocialGraph

/// Hop caps the path queries are compared at: none, adjacent only, the
/// friend-of-friend reach, one beyond it, and the default.
constexpr std::size_t kHopCaps[] = {0, 1, 2, 3, 6};

/// Compares every public accessor over every node/pair. O(n^2) — keep n
/// small; the point is exhaustiveness, not scale.
void expect_graphs_identical(const SocialGraph& csr,
                             const ReferenceSocialGraph& ref,
                             const std::string& label) {
  SCOPED_TRACE(label);
  const auto n = static_cast<NodeId>(csr.size());
  ASSERT_EQ(csr.size(), ref.size());
  EXPECT_EQ(csr.edge_count(), ref.edge_count());

  EXPECT_EQ(csr.epoch(), ref.epoch());
  EXPECT_EQ(csr.structure_epoch(), ref.structure_epoch());
  EXPECT_EQ(csr.edge_addition_epoch(), ref.edge_addition_epoch());

  for (NodeId a = 0; a < n; ++a) {
    EXPECT_EQ(csr.degree(a), ref.degree(a)) << "node " << a;
    EXPECT_EQ(csr.revision(a), ref.revision(a)) << "node " << a;
    EXPECT_EQ(csr.structure_revision(a), ref.structure_revision(a))
        << "node " << a;
    EXPECT_TRUE(bits_equal(csr.total_interactions(a),
                           ref.total_interactions(a)))
        << "node " << a;

    const auto nc = csr.neighbors(a);
    const auto nr = ref.neighbors(a);
    ASSERT_EQ(nc.size(), nr.size()) << "node " << a;
    EXPECT_TRUE(std::equal(nc.begin(), nc.end(), nr.begin()))
        << "node " << a;

    for (NodeId b = 0; b < n; ++b) {
      EXPECT_EQ(csr.adjacent(a, b), ref.adjacent(a, b))
          << "pair " << a << "," << b;
      EXPECT_EQ(csr.relationship_mask(a, b), ref.relationship_mask(a, b))
          << "pair " << a << "," << b;
      EXPECT_EQ(csr.relationship_count(a, b), ref.relationship_count(a, b))
          << "pair " << a << "," << b;
      EXPECT_EQ(csr.relationships(a, b), ref.relationships(a, b))
          << "pair " << a << "," << b;
      EXPECT_TRUE(bits_equal(csr.interaction(a, b), ref.interaction(a, b)))
          << "pair " << a << "," << b;
      EXPECT_EQ(csr.common_friends(a, b), ref.common_friends(a, b))
          << "pair " << a << "," << b;
      for (std::size_t cap : kHopCaps) {
        EXPECT_EQ(csr.distance(a, b, cap), ref.distance(a, b, cap))
            << "pair " << a << "," << b << " cap " << cap;
        EXPECT_EQ(csr.shortest_path(a, b, cap), ref.shortest_path(a, b, cap))
            << "pair " << a << "," << b << " cap " << cap;
      }
    }
  }
}

/// One random mutation applied to both representations; op mix weighted
/// toward growth so structure accumulates, with clear_node (whitewash)
/// plus immediate re-entry edges sprinkled in.
void random_op(SocialGraph& csr, ReferenceSocialGraph& ref, NodeId n,
               stats::Rng& rng) {
  const auto a = static_cast<NodeId>(rng.index(n));
  const auto b = static_cast<NodeId>(rng.index(n));
  const auto rel = static_cast<Relationship>(rng.index(graph::kRelationshipCount));
  switch (rng.index(10)) {
    case 0:
    case 1:
    case 2:
    case 3: {
      const bool rc = csr.add_relationship(a, b, rel);
      EXPECT_EQ(rc, ref.add_relationship(a, b, rel));
      break;
    }
    case 4: {
      const bool rc = csr.remove_relationship(a, b, rel);
      EXPECT_EQ(rc, ref.remove_relationship(a, b, rel));
      break;
    }
    case 5:
    case 6:
    case 7: {
      const double count = 1.0 + rng.index(5);
      csr.record_interaction(a, b, count);
      ref.record_interaction(a, b, count);
      break;
    }
    case 8: {  // duplicate adds / zero-count no-ops must agree too
      const bool rc = csr.add_relationship(a, a, rel);
      EXPECT_EQ(rc, ref.add_relationship(a, a, rel));
      csr.record_interaction(a, b, 0.0);
      ref.record_interaction(a, b, 0.0);
      break;
    }
    default: {  // whitewash, then re-enter with a fresh edge + interaction
      csr.clear_node(a);
      ref.clear_node(a);
      if (b != a) {
        csr.add_relationship(a, b, rel);
        ref.add_relationship(a, b, rel);
        csr.record_interaction(b, a, 2.0);
        ref.record_interaction(b, a, 2.0);
      }
      break;
    }
  }
}

TEST(CsrEquivalence, RandomizedMutationSequencesMatchReference) {
  constexpr NodeId kNodes = 24;
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    SocialGraph csr(kNodes);
    ReferenceSocialGraph ref(kNodes);
    stats::Rng rng(seed);
    for (int step = 0; step < 600; ++step) {
      random_op(csr, ref, kNodes, rng);
      if (step % 150 == 149) {
        expect_graphs_identical(
            csr, ref, "seed " + std::to_string(seed) + " step " +
                          std::to_string(step));
      }
    }
    // Explicit compaction must be invisible through every accessor.
    csr.begin_interval();
    expect_graphs_identical(csr, ref,
                            "seed " + std::to_string(seed) + " post-compact");
  }
}

TEST(CsrEquivalence, CompactionTimingIsUnobservable) {
  // Same mutation sequence on two CSR graphs, one compacted every 37 ops
  // and one never explicitly compacted: all accessors and counters must
  // agree — rebuild timing is representation-only.
  constexpr NodeId kNodes = 20;
  SocialGraph eager(kNodes);
  SocialGraph lazy(kNodes);
  ReferenceSocialGraph ref_a(kNodes);
  ReferenceSocialGraph ref_b(kNodes);  // absorbs random_op's mirror calls
  stats::Rng rng_a(7);
  stats::Rng rng_b(7);
  for (int step = 0; step < 500; ++step) {
    random_op(eager, ref_a, kNodes, rng_a);
    random_op(lazy, ref_b, kNodes, rng_b);
    if (step % 37 == 36) eager.begin_interval();
  }
  EXPECT_GT(eager.rebuild_count(), lazy.rebuild_count());
  expect_graphs_identical(eager, ref_a, "eager vs reference");
  expect_graphs_identical(lazy, ref_b, "lazy vs reference");
  // And directly against each other, revisions included.
  for (NodeId v = 0; v < kNodes; ++v) {
    EXPECT_EQ(eager.revision(v), lazy.revision(v));
    EXPECT_EQ(eager.structure_revision(v), lazy.structure_revision(v));
  }
  EXPECT_EQ(eager.epoch(), lazy.epoch());
}

TEST(CsrEquivalence, RebuildTimingIsDeterministic) {
  // Rebuild scheduling is a pure function of the mutation sequence: two
  // graphs fed the identical op stream compact at identical points.
  auto run = [](std::uint64_t seed) {
    SocialGraph g(40);
    stats::Rng rng(seed);
    std::vector<std::uint64_t> trace;
    for (int step = 0; step < 4000; ++step) {
      const auto a = static_cast<NodeId>(rng.index(40));
      const auto b = static_cast<NodeId>(rng.index(40));
      if (rng.bernoulli(0.7)) {
        g.add_relationship(a, b, Relationship::kFriendship);
      } else {
        g.remove_relationship(a, b, Relationship::kFriendship);
      }
      trace.push_back(g.rebuild_count());
    }
    return trace;
  };
  const auto first = run(99);
  const auto second = run(99);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.back(), 0u) << "sequence never hit the rebuild threshold";
}

TEST(CsrEquivalence, ExplicitCompactionDrainsDeltaAndKeepsCounters) {
  SocialGraph g(8);
  g.add_relationship(0, 1, Relationship::kKinship);
  g.record_interaction(0, 1, 3.0);
  g.clear_node(2);  // no-op clear: no tombstones, no bumps
  const auto rev0 = g.revision(0);
  const auto epoch = g.epoch();
  EXPECT_GT(g.delta_mass(), 0u);
  g.begin_interval();
  EXPECT_EQ(g.delta_mass(), 0u);
  EXPECT_EQ(g.rebuild_count(), 1u);
  EXPECT_EQ(g.revision(0), rev0);
  EXPECT_EQ(g.epoch(), epoch);
  g.begin_interval();  // nothing pending: not even a rebuild
  EXPECT_EQ(g.rebuild_count(), 1u);
}

TEST(CsrEquivalence, ClearNodeTombstonesAreInvisibleAndReclaimed) {
  SocialGraph g(6);
  g.record_interaction(0, 1, 2.0);
  g.record_interaction(0, 2, 5.0);
  g.record_interaction(3, 0, 1.0);
  g.begin_interval();
  g.clear_node(0);  // zeroes rows in place (tombstones), no row resize
  EXPECT_TRUE(bits_equal(g.interaction(0, 1), 0.0));
  EXPECT_TRUE(bits_equal(g.interaction(3, 0), 0.0));
  EXPECT_TRUE(bits_equal(g.total_interactions(0), 0.0));
  EXPECT_TRUE(bits_equal(g.total_interactions(3), 0.0));
  // Tombstone revival: a fresh interaction on a cleared target reuses the
  // slot in place.
  g.record_interaction(0, 1, 4.0);
  EXPECT_TRUE(bits_equal(g.interaction(0, 1), 4.0));
  // Serialisation skips tombstones — no "i x y 0" lines.
  std::ostringstream out;
  graph::write_edge_list(out, g);
  EXPECT_EQ(out.str().find(" 0\ni"), std::string::npos);
  g.begin_interval();  // reclaim
  EXPECT_TRUE(bits_equal(g.interaction(0, 2), 0.0));
  EXPECT_TRUE(bits_equal(g.interaction(0, 1), 4.0));
}

/// A reference graph with `g`'s adjacency, every edge a friendship (the
/// generators only make friendships, and paths ignore types anyway).
ReferenceSocialGraph copy_to_reference(const SocialGraph& g) {
  ReferenceSocialGraph ref(g.size());
  for (NodeId a = 0; a < g.size(); ++a) {
    for (NodeId b : g.neighbors(a)) {
      if (b > a) ref.add_relationship(a, b, Relationship::kFriendship);
    }
  }
  return ref;
}

TEST(CsrEquivalence, CsrFootprintBeatsReferenceOnGeneratedGraph) {
  stats::Rng rng(5);
  SocialGraph csr = graph::watts_strogatz(2000, 8, 0.1, rng);
  const ReferenceSocialGraph ref = copy_to_reference(csr);
  const auto after = csr.memory_footprint();
  const auto before = ref.memory_footprint();
  EXPECT_EQ(csr.edge_count(), ref.edge_count());
  EXPECT_LT(after.adjacency_bytes, before.adjacency_bytes);
  EXPECT_LT(after.total(), before.total());
}

// ---------------------------------------------------------------------------
// Meet-in-the-middle shortest path vs the reference's forward FIFO BFS
// (DESIGN.md §13/§15): the same lexicographically smallest shortest path,
// at every hop cap, on graphs large enough for the search to matter.

/// What a batch of sampled path queries exercised.
struct PathCoverage {
  std::size_t found = 0;        ///< a path within the cap
  std::size_t at_cap = 0;       ///< found, exactly `cap` hops long
  std::size_t past_cap = 0;     ///< none within the cap, one at cap + 1
  std::size_t unreachable = 0;  ///< none at any cap
};

/// Compares distance() and shortest_path() on every pair, each at a hop
/// cap drawn from 0..8.
PathCoverage expect_paths_match(
    const SocialGraph& csr, const ReferenceSocialGraph& ref,
    const std::vector<std::pair<NodeId, NodeId>>& pairs, stats::Rng& rng) {
  PathCoverage cov;
  for (const auto& [a, b] : pairs) {
    const std::size_t cap = rng.index(9);
    const auto path = csr.shortest_path(a, b, cap);
    EXPECT_EQ(path, ref.shortest_path(a, b, cap))
        << "pair " << a << "," << b << " cap " << cap;
    EXPECT_EQ(csr.distance(a, b, cap), ref.distance(a, b, cap))
        << "pair " << a << "," << b << " cap " << cap;
    if (path) {
      ++cov.found;
      if (path->size() == cap + 1) ++cov.at_cap;
    } else if (ref.distance(a, b, cap + 1)) {
      ++cov.past_cap;
    } else if (!ref.distance(a, b, ref.size())) {
      ++cov.unreachable;
    }
  }
  return cov;
}

/// Runs the sampled comparison twice: on the compacted graph, then after
/// a handful of mirrored edge additions and removals that leave overlay
/// rows live (the search's non-CSR row path). Returns both coverages
/// summed.
template <typename PairFn>
PathCoverage check_generated_graph(SocialGraph g, std::uint64_t seed,
                                   PairFn draw_pair) {
  ReferenceSocialGraph ref = copy_to_reference(g);
  const auto n = static_cast<NodeId>(g.size());
  stats::Rng rng(seed);
  auto sample = [&] {
    std::vector<std::pair<NodeId, NodeId>> pairs(400);
    for (auto& pair : pairs) pair = draw_pair(rng);
    return pairs;
  };
  EXPECT_EQ(g.delta_mass(), 0u) << "generators hand out compacted graphs";
  PathCoverage cov;
  {
    SCOPED_TRACE("compacted");
    cov = expect_paths_match(g, ref, sample(), rng);
  }
  const std::uint64_t rebuilds = g.rebuild_count();
  for (int k = 0; k < 30; ++k) {
    const auto a = static_cast<NodeId>(rng.index(n));
    const auto b = static_cast<NodeId>(rng.index(n));
    EXPECT_EQ(g.add_relationship(a, b, Relationship::kFriendship),
              ref.add_relationship(a, b, Relationship::kFriendship));
    const auto c = static_cast<NodeId>(rng.index(n));
    const auto friends = g.neighbors(c);
    if (friends.empty()) continue;
    const NodeId d = friends[rng.index(friends.size())];
    EXPECT_TRUE(g.remove_relationship(c, d, Relationship::kFriendship));
    EXPECT_TRUE(ref.remove_relationship(c, d, Relationship::kFriendship));
  }
  EXPECT_GT(g.delta_mass(), 0u);
  EXPECT_EQ(g.rebuild_count(), rebuilds) << "overlay rows were compacted";
  {
    SCOPED_TRACE("overlay live");
    const PathCoverage live = expect_paths_match(g, ref, sample(), rng);
    cov.found += live.found;
    cov.at_cap += live.at_cap;
    cov.past_cap += live.past_cap;
    cov.unreachable += live.unreachable;
  }
  return cov;
}

TEST(CsrEquivalence, ShortestPathMatchesReferenceOnHubGraph) {
  // Preferential attachment: hub rows make the two frontiers lopsided,
  // so the search keeps switching the side it expands.
  constexpr std::size_t kNodes = 3000;
  stats::Rng gen(61);
  const PathCoverage cov = check_generated_graph(
      graph::barabasi_albert(kNodes, 2, gen), 62, [](stats::Rng& rng) {
        return std::pair{static_cast<NodeId>(rng.index(kNodes)),
                         static_cast<NodeId>(rng.index(kNodes))};
      });
  EXPECT_GT(cov.found, 0u);
  EXPECT_GT(cov.past_cap, 0u);
}

TEST(CsrEquivalence, ShortestPathMatchesReferenceOnSmallWorldNearCap) {
  // A barely rewired ring lattice has long paths; pairs a short way round
  // the ring put their distance at, or just past, the hop cap.
  constexpr std::size_t kNodes = 1000;
  stats::Rng gen(71);
  const PathCoverage cov = check_generated_graph(
      graph::watts_strogatz(kNodes, 4, 0.02, gen), 72, [](stats::Rng& rng) {
        const std::size_t a = rng.index(kNodes);
        return std::pair{static_cast<NodeId>(a),
                         static_cast<NodeId>((a + 1 + rng.index(24)) % kNodes)};
      });
  EXPECT_GT(cov.at_cap, 0u);
  EXPECT_GT(cov.past_cap, 0u);
}

TEST(CsrEquivalence, ShortestPathMatchesReferenceOnSparseRandomGraph) {
  // Mean degree ~1.2: many small components, so frontiers run dry and
  // pairs are unreachable at every cap.
  constexpr std::size_t kNodes = 2000;
  stats::Rng gen(81);
  const PathCoverage cov = check_generated_graph(
      graph::erdos_renyi(kNodes, 1.2 / kNodes, gen), 82, [](stats::Rng& rng) {
        return std::pair{static_cast<NodeId>(rng.index(kNodes)),
                         static_cast<NodeId>(rng.index(kNodes))};
      });
  EXPECT_GT(cov.found, 0u);
  EXPECT_GT(cov.unreachable, 0u);
}

/// The lexicographically smallest of all shortest a-b paths, by
/// exhaustive enumeration: every walk of exactly dist(a, b) hops that
/// ends at b is a shortest path.
std::vector<NodeId> brute_force_lex_min_path(const ReferenceSocialGraph& g,
                                             NodeId a, NodeId b) {
  const std::size_t hops = *g.distance(a, b, g.size());
  std::vector<NodeId> walk{a};
  std::vector<NodeId> best;
  auto extend = [&](auto&& self) -> void {
    if (walk.size() == hops + 1) {
      if (walk.back() == b && (best.empty() || walk < best)) best = walk;
      return;
    }
    for (NodeId next : g.neighbors(walk.back())) {
      walk.push_back(next);
      self(self);
      walk.pop_back();
    }
  };
  extend(extend);
  return best;
}

TEST(CsrEquivalence, ShortestPathIsLexMinAmongEqualLengthPaths) {
  // 0 -> 1 has three 3-hop paths: 0-5-8-1, 0-5-9-1 and 0-6-7-1. The
  // lex-min is 0-5-8-1, but the lex-min read from 1's end is 1-7-6-0, a
  // different path, so the path is not symmetric. 2, 0's smallest
  // neighbour, is a dead end (2-3), and 0-4-10-11-1 is a 4-hop detour.
  SocialGraph g(12);
  const std::pair<NodeId, NodeId> edges[] = {
      {0, 2}, {2, 3},  {0, 4},  {4, 10}, {10, 11}, {11, 1}, {0, 5},
      {0, 6}, {5, 8},  {5, 9},  {6, 7},  {8, 1},   {9, 1},  {7, 1}};
  for (const auto& [a, b] : edges) {
    g.add_relationship(a, b, Relationship::kFriendship);
  }
  EXPECT_EQ(g.shortest_path(0, 1), (std::vector<NodeId>{0, 5, 8, 1}));
  EXPECT_EQ(g.shortest_path(1, 0), (std::vector<NodeId>{1, 7, 6, 0}));
  EXPECT_EQ(g.shortest_path(0, 1, 3), (std::vector<NodeId>{0, 5, 8, 1}));
  EXPECT_EQ(g.shortest_path(0, 1, 2), std::nullopt);
  EXPECT_EQ(g.distance(0, 1), std::optional<std::size_t>{3});
  EXPECT_EQ(g.shortest_path(3, 1), (std::vector<NodeId>{3, 2, 0, 5, 8, 1}));

  // 4x4 grid, 20 shortest corner-to-corner paths, with ids scrambled by
  // id = (5 * (4 * row + col) + 3) mod 16 so the lex-min path is no plain
  // row-major walk. Every ordered pair of both graphs is checked against
  // exhaustive enumeration, with overlay rows live and after compaction.
  SocialGraph grid(16);
  auto id = [](int row, int col) {
    return static_cast<NodeId>((5 * (4 * row + col) + 3) % 16);
  };
  for (int row = 0; row < 4; ++row) {
    for (int col = 0; col < 4; ++col) {
      if (col + 1 < 4) {
        grid.add_relationship(id(row, col), id(row, col + 1),
                              Relationship::kFriendship);
      }
      if (row + 1 < 4) {
        grid.add_relationship(id(row, col), id(row + 1, col),
                              Relationship::kFriendship);
      }
    }
  }
  for (SocialGraph* graph : {&g, &grid}) {
    const ReferenceSocialGraph ref = copy_to_reference(*graph);
    for (bool compacted : {false, true}) {
      SCOPED_TRACE(compacted ? "compacted" : "overlay live");
      if (compacted) graph->begin_interval();
      EXPECT_EQ(graph->delta_mass() == 0, compacted);
      const auto n = static_cast<NodeId>(graph->size());
      for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = 0; b < n; ++b) {
          if (!ref.distance(a, b, n)) continue;
          EXPECT_EQ(graph->shortest_path(a, b, n),
                    brute_force_lex_min_path(ref, a, b))
              << "pair " << a << "," << b;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// InterestProfiles vs a reference port of its pre-CSR layout

/// Pre-CSR InterestProfiles: per-node sorted vectors + per-node dense
/// request vectors, exactly as the seed implemented them.
class ReferenceInterestProfiles {
 public:
  using InterestId = core::InterestId;
  using Revision = std::uint64_t;

  ReferenceInterestProfiles(std::size_t node_count, std::size_t categories)
      : categories_(categories),
        declared_(node_count),
        request_counts_(node_count, std::vector<double>(categories, 0.0)),
        request_totals_(node_count, 0.0),
        revisions_(node_count, 0) {}

  void set_interests(NodeId node, std::span<const InterestId> interests) {
    std::vector<InterestId> next;
    for (InterestId id : interests) {
      if (id < categories_) next.push_back(id);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    if (next != declared_[node]) {
      declared_[node] = std::move(next);
      bump(node);
    }
  }
  void add_interest(NodeId node, InterestId interest) {
    if (interest >= categories_) return;
    auto& set = declared_[node];
    auto it = std::lower_bound(set.begin(), set.end(), interest);
    if (it == set.end() || *it != interest) {
      set.insert(it, interest);
      bump(node);
    }
  }
  void remove_interest(NodeId node, InterestId interest) {
    auto& set = declared_[node];
    auto it = std::lower_bound(set.begin(), set.end(), interest);
    if (it != set.end() && *it == interest) {
      set.erase(it);
      bump(node);
    }
  }
  void record_request(NodeId node, InterestId category, double count) {
    if (category >= categories_ || count <= 0.0) return;
    request_counts_[node][category] += count;
    request_totals_[node] += count;
    bump(node);
  }
  void clear_requests(NodeId node) {
    if (request_totals_[node] == 0.0) return;
    std::fill(request_counts_[node].begin(), request_counts_[node].end(),
              0.0);
    request_totals_[node] = 0.0;
    bump(node);
  }

  std::span<const InterestId> declared(NodeId node) const {
    return declared_[node];
  }
  double request_weight(NodeId node, InterestId category) const {
    if (request_totals_[node] <= 0.0) return 0.0;
    return request_counts_[node][category] / request_totals_[node];
  }
  double total_requests(NodeId node) const { return request_totals_[node]; }
  Revision revision(NodeId node) const { return revisions_[node]; }
  Revision epoch() const { return epoch_; }

 private:
  void bump(NodeId node) {
    ++revisions_[node];
    ++epoch_;
  }
  std::size_t categories_;
  std::vector<std::vector<InterestId>> declared_;
  std::vector<std::vector<double>> request_counts_;
  std::vector<double> request_totals_;
  std::vector<Revision> revisions_;
  Revision epoch_ = 0;
};

TEST(CsrEquivalence, InterestProfilesMatchesReferenceUnderRandomOps) {
  constexpr std::size_t kNodes = 16;
  constexpr std::size_t kCats = 12;
  for (std::uint64_t seed : {3u, 31u}) {
    core::InterestProfiles csr(kNodes, kCats);
    ReferenceInterestProfiles ref(kNodes, kCats);
    stats::Rng rng(seed);
    for (int step = 0; step < 800; ++step) {
      const auto node = static_cast<NodeId>(rng.index(kNodes));
      const auto cat = static_cast<core::InterestId>(rng.index(kCats + 2));
      switch (rng.index(6)) {
        case 0:
        case 1:
          csr.add_interest(node, cat);
          ref.add_interest(node, cat);
          break;
        case 2:
          csr.remove_interest(node, cat);
          ref.remove_interest(node, cat);
          break;
        case 3: {
          std::vector<core::InterestId> set;
          for (std::size_t k = rng.index(5); k > 0; --k) {
            set.push_back(static_cast<core::InterestId>(rng.index(kCats)));
          }
          csr.set_interests(node, set);
          ref.set_interests(node, set);
          break;
        }
        case 4: {
          const double count = 1.0 + rng.index(4);
          csr.record_request(node, cat, count);
          ref.record_request(node, cat, count);
          break;
        }
        default:
          csr.clear_requests(node);
          ref.clear_requests(node);
          break;
      }
      if (step == 400) csr.begin_interval();
    }
    csr.begin_interval();
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(csr.epoch(), ref.epoch());
    for (NodeId v = 0; v < kNodes; ++v) {
      EXPECT_EQ(csr.revision(v), ref.revision(v)) << "node " << v;
      EXPECT_TRUE(bits_equal(csr.total_requests(v), ref.total_requests(v)));
      const auto dc = csr.declared(v);
      const auto dr = ref.declared(v);
      ASSERT_EQ(dc.size(), dr.size()) << "node " << v;
      EXPECT_TRUE(std::equal(dc.begin(), dc.end(), dr.begin()))
          << "node " << v;
      for (std::size_t c = 0; c < kCats; ++c) {
        EXPECT_TRUE(bits_equal(
            csr.request_weight(v, static_cast<core::InterestId>(c)),
            ref.request_weight(v, static_cast<core::InterestId>(c))))
            << "node " << v << " cat " << c;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end differential over the CSR core at threads {1, 2, 4}

struct PluginCapture {
  core::SocialTrustPlugin* plugin = nullptr;
};

sim::SystemFactory capture_factory(core::SocialTrustConfig cfg,
                                   PluginCapture& capture) {
  return [cfg, &capture](const graph::SocialGraph& g,
                         const core::InterestProfiles& profiles,
                         const std::vector<sim::NodeId>& pretrusted,
                         std::size_t n) {
    auto inner = std::make_unique<reputation::PaperEigenTrust>(
        n, pretrusted, reputation::PaperEigenTrustConfig{});
    auto plugin = std::make_unique<core::SocialTrustPlugin>(
        std::move(inner), g, profiles, cfg);
    capture.plugin = plugin.get();
    return plugin;
  };
}

std::vector<double> run_reputations(std::size_t threads) {
  sim::SimConfig sim_cfg;
  sim_cfg.node_count = 64;
  sim_cfg.pretrusted_count = 4;
  sim_cfg.colluder_count = 8;
  sim_cfg.query_cycles_per_cycle = 6;
  sim_cfg.simulation_cycles = 3;
  core::SocialTrustConfig cfg;
  cfg.threads = threads;
  PluginCapture capture;
  sim::Simulator simulator(sim_cfg, capture_factory(cfg, capture), nullptr,
                           /*seed=*/1234);
  simulator.run();
  auto reps = capture.plugin->reputations();
  return {reps.begin(), reps.end()};
}

TEST(CsrEquivalence, PluginOverCsrCoreBitIdenticalAcrossThreadCounts) {
  // The Simulator compacts both CSR cores at the top of every update
  // interval, so this exercises rebuild + parallel read paths together.
  const auto serial = run_reputations(1);
  for (std::size_t threads : {2UL, 4UL}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto parallel = run_reputations(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t v = 0; v < serial.size(); ++v) {
      EXPECT_TRUE(bits_equal(serial[v], parallel[v])) << "node " << v;
    }
  }
}

}  // namespace
}  // namespace st
