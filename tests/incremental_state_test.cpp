// Incremental social-state correctness suite (DESIGN.md §13).
//
// The SocialStateCache persists lex-min shortest paths across update
// intervals, one sorted row per source, and evaluates Omega_c through a
// per-rater row context (SocialStateCache::Row). Its witness is checked
// at the interval boundary: an open_interval() that finds the graph's
// structure epoch moved releases the rows of the sources within
// kMaxPathHops - 1 hops of a node stamped since the previous boundary,
// keeps the rest, and the interval stores as usual. The contract is that
// a warm cache is a pure performance optimisation. Four layers of
// evidence:
//   1. unit tests on the cache itself — every lookup bit-equals a direct
//      ClosenessModel::closeness(), and so does every ordered pair of
//      seeded BA and WS graphs through the walk's rows, on every branch,
//      cold, warm, after batches of random relationship churn and after
//      a change across the graph, each change checked source by source
//      against the reach rule; adjacent and friend-of-friend pairs store
//      nothing; a path (or an unreachable record) is served across
//      interaction churn, no-op mutations and changes out of its
//      source's reach, and re-derived after a change within it; on a
//      chain, a change exactly 5 hops from a source releases its row and
//      one 6 hops away does not; a change made mid-interval is never
//      served; path keys are directional; lookups with distinct sources
//      run concurrently on pool workers, with no lock, and leave what a
//      serial walk leaves;
//   2. a cold-vs-warm differential gate — full simulations where one
//      plugin keeps its cache across intervals and a second has it wiped
//      before every update() must produce bit-identical adjusted ratings,
//      reports, flagged pairs, and downstream reputations at EVERY
//      interval, over 4 collusion models × 3 seeds × threads {1, 2, 4} ×
//      20 intervals; simulator runs of the same shape also pin the work
//      report perfbench reads (every active pair recomputed, nothing
//      carried);
//   3. a whitewashing regression — forget_node alone leaves the cache
//      untouched and every path valid, and a warm plugin driven across a
//      whitewash (forget_node, clear_node, a new tie) releases every row
//      within reach at the next update(), stores again in that interval,
//      is served in the one after it, and stays bit-identical to a cold
//      one throughout;
//   4. a from-scratch oracle — one interval recomputed without the cache
//      or the rater walk, straight from the graph, the profiles and each
//      rater's cumulative rated set, for every baseline source and
//      thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "collusion/models.hpp"
#include "core/detector.hpp"
#include "core/gaussian_filter.hpp"
#include "core/social_state_cache.hpp"
#include "core/socialtrust.hpp"
#include "graph/generators.hpp"
#include "reputation/paper_eigentrust.hpp"
#include "reputation/rating.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "util/thread_pool.hpp"

namespace st {
namespace {

using core::ClosenessModel;
using core::InterestProfiles;
using core::SocialStateCache;
using core::SocialTrustPlugin;
using graph::Relationship;
using graph::SocialGraph;
using reputation::Rating;

/// Bit-level double equality: distinguishes +0/-0 and catches last-ulp
/// drift that EXPECT_DOUBLE_EQ's 4-ulp tolerance would wave through.
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bit patterns differ)";
}

/// Delta of the cache's cumulative stats around one operation.
struct StatsDelta {
  std::uint64_t invalidations = 0;
  std::uint64_t structure_hits = 0;
  std::uint64_t structure_misses = 0;
};

template <typename Fn>
StatsDelta stats_delta(SocialStateCache& cache, Fn&& fn) {
  const auto before = cache.stats();
  fn();
  const auto after = cache.stats();
  return StatsDelta{after.invalidations - before.invalidations,
                    after.structure_hits - before.structure_hits,
                    after.structure_misses - before.structure_misses};
}

/// One cache lookup of Omega_c(i,j), checked bit for bit against the
/// direct ClosenessModel::closeness(); returns the lookup's stats delta.
StatsDelta checked_lookup(SocialStateCache& cache, const ClosenessModel& model,
                          const SocialGraph& g, graph::NodeId i,
                          graph::NodeId j) {
  double got = 0.0;
  const StatsDelta d =
      stats_delta(cache, [&] { got = cache.closeness(model, g, i, j); });
  EXPECT_TRUE(bits_equal(got, model.closeness(g, i, j)))
      << "Omega_c(" << i << "," << j << ")";
  return d;
}

/// Adds a friendship for every listed pair.
void befriend(SocialGraph& g,
              std::initializer_list<std::pair<graph::NodeId, graph::NodeId>>
                  edges) {
  for (const auto& [a, b] : edges) {
    g.add_relationship(a, b, Relationship::kFriendship);
  }
}

// --- 1. cache unit tests ----------------------------------------------------

TEST(SocialStateCacheTest, AdjacentPairsReadTheGraphDirectly) {
  SocialGraph g(4);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.record_interaction(0, 1, 3.0);
  g.record_interaction(0, 2, 1.0);
  g.record_interaction(1, 0, 2.0);
  ClosenessModel model;
  SocialStateCache cache;
  cache.open_interval(g);  // an interval that stores

  // Eq. 2 reads only the edge and the rater's interaction row: no
  // structure lookup, nothing stored.
  auto d = checked_lookup(cache, model, g, 0, 1);
  EXPECT_EQ(d.structure_hits + d.structure_misses, 0U);
  EXPECT_EQ(cache.size(), 0U);

  // Churn on the rater's row moves the Eq. 2 denominator, and the very
  // next lookup sees it.
  const double before = cache.closeness(model, g, 0, 1);
  g.record_interaction(0, 3, 1.0);
  checked_lookup(cache, model, g, 0, 1);
  EXPECT_FALSE(bits_equal(cache.closeness(model, g, 0, 1), before));
}

TEST(SocialStateCacheTest, FofPairsReadTheGraphDirectly) {
  // 0 and 1 are not adjacent and share the common friend 2; 5 is a friend
  // of 1 only.
  SocialGraph g(6);
  g.add_relationship(0, 2, Relationship::kFriendship);
  g.add_relationship(1, 2, Relationship::kColleague);
  g.add_relationship(1, 5, Relationship::kFriendship);
  g.record_interaction(0, 2, 2.0);
  g.record_interaction(2, 1, 4.0);
  g.record_interaction(2, 0, 1.0);
  g.record_interaction(0, 5, 1.0);
  g.record_interaction(5, 1, 3.0);
  ClosenessModel model;
  SocialStateCache cache;
  cache.open_interval(g);  // an interval that stores

  // Eq. 3 is one merge of two short rows: no structure lookup, nothing
  // stored, in either orientation.
  auto d = checked_lookup(cache, model, g, 0, 1);
  EXPECT_EQ(d.structure_hits + d.structure_misses, 0U);
  d = checked_lookup(cache, model, g, 1, 0);
  EXPECT_EQ(d.structure_hits + d.structure_misses, 0U);
  EXPECT_EQ(cache.size(), 0U);

  // Interaction churn on the rater, the ratee and the common friend moves
  // Omega_c, and the very next lookup sees it.
  const double before = cache.closeness(model, g, 0, 1);
  g.record_interaction(0, 3, 7.0);
  g.record_interaction(1, 4, 1.0);
  g.record_interaction(2, 4, 1.0);
  checked_lookup(cache, model, g, 0, 1);
  EXPECT_FALSE(bits_equal(cache.closeness(model, g, 0, 1), before));

  // 0 befriends 5, 1's friend, so 5 joins the common set; the next
  // lookup reads the new set off the graph.
  g.add_relationship(0, 5, Relationship::kFriendship);
  cache.open_interval(g);
  d = checked_lookup(cache, model, g, 0, 1);
  EXPECT_EQ(d.structure_hits + d.structure_misses, 0U);
  EXPECT_EQ(cache.size(), 0U);
}

TEST(SocialStateCacheTest, PathEntriesSurviveInteractionChurnAndNoOps) {
  // 0 -> 3 has no common friend. Two shortest paths: 0-1-2-3 (lex-min)
  // and 0-4-5-3. 3-6 is an extra edge on the sink; 7 has no relationship
  // but trades interactions with the source and an interior node.
  SocialGraph g(8);
  befriend(g, {{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 3}, {3, 6}});
  g.record_interaction(0, 1, 1.0);
  g.record_interaction(1, 2, 2.0);
  g.record_interaction(2, 3, 3.0);
  g.record_interaction(0, 4, 2.0);
  g.record_interaction(4, 5, 1.0);
  g.record_interaction(5, 3, 2.0);
  g.record_interaction(7, 0, 1.0);
  g.record_interaction(1, 7, 5.0);
  ClosenessModel model;
  SocialStateCache cache;
  cache.open_interval(g);

  auto d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_misses, 1U);  // the path, and nothing else
  EXPECT_EQ(cache.size(), 1U);
  d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_hits, 1U);

  // Interaction churn on the source, an interior node and the sink
  // changes the Eq. 4 terms, never the path: the next interval serves
  // the path and recomputes the value.
  const double before_churn = cache.closeness(model, g, 0, 3);
  g.record_interaction(0, 6, 1.0);
  g.record_interaction(1, 0, 1.0);
  g.record_interaction(3, 0, 9.0);
  d = stats_delta(cache, [&] { cache.open_interval(g); });
  EXPECT_EQ(d.invalidations, 0U);
  d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_hits, 1U);
  EXPECT_EQ(d.structure_misses, 0U);
  EXPECT_FALSE(bits_equal(cache.closeness(model, g, 0, 3), before_churn));

  // No-op mutations leave the structure epoch, and with it the entry,
  // alone: a type the edge already has, a non-edge, an isolated node
  // (whose clear trims 1's interaction row, and so the value), and a
  // compaction.
  const SocialGraph::Revision epoch = g.structure_epoch();
  EXPECT_FALSE(g.add_relationship(1, 0, Relationship::kFriendship));
  EXPECT_FALSE(g.remove_relationship(0, 2, Relationship::kFriendship));
  g.clear_node(7);
  g.begin_interval();
  EXPECT_EQ(g.structure_epoch(), epoch);
  d = stats_delta(cache, [&] {
    cache.open_interval(g);
    checked_lookup(cache, model, g, 0, 3);
  });
  EXPECT_EQ(d.structure_hits, 1U);
  EXPECT_EQ(d.structure_misses, 0U);
  EXPECT_EQ(d.invalidations, 0U);
  EXPECT_EQ(cache.size(), 1U);
}

TEST(SocialStateCacheTest, RelationshipChangesRederiveThePathsTheyReach) {
  // 0 -> 4 has two shortest paths, 0-1-2-3-4 (lex-min; its bottleneck is
  // the thin edge 1-2, which carries 1/21 of 1's interactions) and
  // 0-5-6-7-4 (bottleneck 3/4 at 0-5); 8-9 is a component of its own.
  SocialGraph g(10);
  befriend(g, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}, {5, 6}, {6, 7},
               {7, 4}, {8, 9}});
  g.record_interaction(0, 1, 1.0);
  g.record_interaction(0, 5, 3.0);
  g.record_interaction(1, 2, 0.1);
  g.record_interaction(1, 3, 2.0);
  g.record_interaction(2, 3, 3.0);
  g.record_interaction(3, 4, 4.0);
  g.record_interaction(5, 6, 1.0);
  g.record_interaction(6, 7, 1.0);
  g.record_interaction(7, 4, 1.0);
  ClosenessModel model;
  SocialStateCache cache;
  cache.open_interval(g);
  checked_lookup(cache, model, g, 0, 4);
  ASSERT_EQ(cache.size(), 1U);
  // The boundary after a change keeps the stored path when no changed
  // row lies within kMaxPathHops - 1 hops of source 0, and serves it.
  const auto keep = [&] {
    auto d = stats_delta(cache, [&] { cache.open_interval(g); });
    EXPECT_EQ(d.invalidations, 0U);
    d = checked_lookup(cache, model, g, 0, 4);
    EXPECT_EQ(d.structure_hits, 1U);
    EXPECT_EQ(d.structure_misses, 0U);
  };
  // Otherwise it releases the path, and the lookup re-derives and stores
  // it: this interval stores like any other.
  const auto rederive = [&] {
    auto d = stats_delta(cache, [&] { cache.open_interval(g); });
    EXPECT_EQ(d.invalidations, 1U);
    d = checked_lookup(cache, model, g, 0, 4);
    EXPECT_EQ(d.structure_misses, 1U);
    EXPECT_EQ(cache.size(), 1U);
  };

  // A type change in another component moves the epoch but reaches no
  // row 0's search reads.
  const double via_1234 = cache.closeness(model, g, 0, 4);
  g.add_relationship(8, 9, Relationship::kColleague);
  keep();
  EXPECT_TRUE(bits_equal(cache.closeness(model, g, 0, 4), via_1234));

  // A new type on the path's bottleneck edge changes no node of the
  // path, only a mask the entry stores: served stale, the fold would
  // read the old, thinner edge.
  ASSERT_TRUE(g.add_relationship(1, 2, Relationship::kKinship));
  rederive();
  EXPECT_FALSE(bits_equal(cache.closeness(model, g, 0, 4), via_1234));

  // Removing an interior edge: the stale path would read the missing
  // edge 2-3 as closeness 0.
  ASSERT_TRUE(g.remove_relationship(2, 3, Relationship::kFriendship));
  rederive();
  EXPECT_GT(cache.closeness(model, g, 0, 4), 0.0);  // now via 0-5-6-7-4

  // A brand-new edge touching no node of the cached path 0-5-6-7-4 opens
  // the shorter 0-1-3-4 (bottleneck 1/4 at 0-1).
  const double via_5674 = cache.closeness(model, g, 0, 4);
  g.add_relationship(1, 3, Relationship::kFriendship);
  rederive();
  EXPECT_FALSE(bits_equal(cache.closeness(model, g, 0, 4), via_5674));
  keep();  // the next interval, the epoch held, serves the new path
}

TEST(SocialStateCacheTest, UnreachableEntriesSurviveInteractionChurn) {
  // Node 3 (with its friend 4) is unreachable from 0 (with its friend 1).
  SocialGraph g(5);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.add_relationship(3, 4, Relationship::kFriendship);
  g.record_interaction(0, 1, 1.0);
  g.record_interaction(1, 4, 2.0);
  g.record_interaction(4, 3, 1.0);
  g.record_interaction(2, 0, 1.0);
  ClosenessModel model;
  SocialStateCache cache;
  cache.open_interval(g);

  auto d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_misses, 1U);
  EXPECT_EQ(cache.size(), 1U);
  EXPECT_TRUE(bits_equal(cache.closeness(model, g, 0, 3), 0.0));

  // Interaction churn and no-op mutations cannot create reachability,
  // and leave the epoch alone: the next interval serves the unreachable
  // record.
  g.record_interaction(0, 1, 5.0);
  g.record_interaction(3, 4, 1.0);
  EXPECT_FALSE(g.add_relationship(0, 1, Relationship::kFriendship));
  EXPECT_FALSE(g.remove_relationship(1, 3, Relationship::kFriendship));
  g.clear_node(2);
  g.begin_interval();
  cache.open_interval(g);
  d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_hits, 1U);
  EXPECT_EQ(d.structure_misses, 0U);

  // Neither can a change inside the other component: it moves the epoch,
  // but no changed row is within reach of 0, so the record is served.
  ASSERT_TRUE(g.add_relationship(3, 4, Relationship::kColleague));
  d = stats_delta(cache, [&] {
    cache.open_interval(g);
    checked_lookup(cache, model, g, 0, 3);
  });
  EXPECT_EQ(d.invalidations, 0U);
  EXPECT_EQ(d.structure_hits, 1U);

  // A new edge can. 1-4 touches neither endpoint, but 1 is 0's friend:
  // the next boundary releases the record, and the lookup finds and
  // stores the new path 0-1-4-3.
  g.add_relationship(1, 4, Relationship::kFriendship);
  d = stats_delta(cache, [&] { cache.open_interval(g); });
  EXPECT_EQ(d.invalidations, 1U);
  d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_misses, 1U);
  EXPECT_EQ(cache.size(), 1U);
  EXPECT_GT(cache.closeness(model, g, 0, 3), 0.0);
}

TEST(SocialStateCacheTest, ClosenessKeysAreDirectional) {
  // Chain 0-1-2-3. Omega_c is not symmetric (Eq. 2 normalises by the
  // rater's totals): Omega_c(0,3) = 1/4 and Omega_c(3,0) = 1/2 of the
  // friendship mass. Served the other direction's path, Eq. 4 would walk
  // it the wrong way.
  SocialGraph g(4);
  befriend(g, {{0, 1}, {1, 2}, {2, 3}});
  g.record_interaction(0, 1, 1.0);
  g.record_interaction(1, 2, 1.0);
  g.record_interaction(1, 0, 1.0);
  g.record_interaction(2, 3, 1.0);
  g.record_interaction(2, 1, 3.0);
  g.record_interaction(3, 2, 1.0);
  ClosenessModel model;
  SocialStateCache cache;
  cache.open_interval(g);

  checked_lookup(cache, model, g, 0, 3);
  auto d = checked_lookup(cache, model, g, 3, 0);
  EXPECT_EQ(d.structure_hits, 0U);
  EXPECT_EQ(d.structure_misses, 1U);  // its own path
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_FALSE(bits_equal(cache.closeness(model, g, 0, 3),
                          cache.closeness(model, g, 3, 0)));

  cache.clear();
  EXPECT_EQ(cache.size(), 0U);
}

/// The reach rule on a chain, where hop distances are plain: a boundary
/// releases a source's row exactly when a node whose adjacency row
/// changed lies within kMaxPathHops - 1 = 5 hops of the source, and every
/// interval, the one right after a change included, stores and serves.
TEST(SocialStateCacheTest, OpenIntervalReleasesOnlyTheRowsAChangeCanReach) {
  // Chain 0-1-...-9; 10 and 11 have no relationship yet.
  static_assert(graph::kMaxPathHops == 6, "the distances below assume it");
  SocialGraph g(12);
  for (graph::NodeId k = 0; k + 1 < 10; ++k) {
    g.add_relationship(k, k + 1, Relationship::kFriendship);
    g.record_interaction(k, k + 1, 1.0 + k);
    g.record_interaction(k + 1, k, 1.0);
  }
  g.record_interaction(5, 10, 2.0);
  g.record_interaction(6, 11, 2.0);
  ClosenessModel model;
  SocialStateCache cache;
  // What the last boundary changed and released, and the entries it
  // released.
  SocialStateCache::Boundary boundary;
  std::uint64_t released = 0;
  const auto open = [&] {
    released = stats_delta(cache, [&] {
                 boundary = cache.open_interval(g);
               }).invalidations;
  };
  // Source 0's Eq. 4 pairs: a path, a path at the hop cap, and three
  // records of "unreachable within the cap"; source 9's one path. Returns
  // the lookups' stats delta.
  const auto look_up_all = [&] {
    return stats_delta(cache, [&] {
      for (const graph::NodeId j : {3U, 6U, 7U, 10U, 11U}) {
        checked_lookup(cache, model, g, 0, j);
      }
      checked_lookup(cache, model, g, 9, 6);
    });
  };

  // Before any boundary a lookup searches and stores nothing.
  auto d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_misses, 1U);
  EXPECT_EQ(cache.size(), 0U);

  // The first boundary changes and releases nothing, and its interval
  // stores every path; the next, with the epoch held, serves them.
  open();
  EXPECT_EQ(boundary.changed_nodes, 0U);
  EXPECT_EQ(boundary.released_rows, 0U);
  d = look_up_all();
  EXPECT_EQ(d.structure_misses, 6U);
  EXPECT_EQ(cache.size(), 6U);
  open();
  EXPECT_EQ(boundary.changed_nodes, 0U);
  EXPECT_EQ(released, 0U);
  d = look_up_all();
  EXPECT_EQ(d.structure_hits, 6U);
  EXPECT_EQ(d.structure_misses, 0U);

  // A new edge 6 hops from source 0: 6-11 stamps 6 and 11. The sources
  // within 5 hops of them, 1..9 and 11, are released (9's path with
  // them); 0's BFS to depth 6 reads no changed row, so its row is kept,
  // 11 still being 7 hops from 0 and out of reach.
  ASSERT_TRUE(g.add_relationship(11, 6, Relationship::kFriendship));
  open();
  EXPECT_EQ(boundary.changed_nodes, 2U);
  EXPECT_EQ(boundary.released_rows, 10U);
  EXPECT_EQ(released, 1U);
  d = look_up_all();
  EXPECT_EQ(d.structure_hits, 5U);
  EXPECT_EQ(d.structure_misses, 1U);
  EXPECT_TRUE(bits_equal(cache.closeness(model, g, 0, 11), 0.0));

  // A new edge exactly 5 hops from source 0: 10-5 stamps 10 and 5, and
  // 0's row goes. Served, its record would call 10 unreachable, though
  // 0-1-2-3-4-5-10 is now 6 hops long.
  ASSERT_TRUE(g.add_relationship(10, 5, Relationship::kFriendship));
  open();
  EXPECT_EQ(boundary.changed_nodes, 2U);
  EXPECT_EQ(released, 6U);
  d = look_up_all();
  EXPECT_EQ(d.structure_hits, 0U);
  EXPECT_EQ(d.structure_misses, 6U);
  EXPECT_EQ(cache.size(), 6U);
  EXPECT_GT(cache.closeness(model, g, 0, 10), 0.0);

  // clear() forgets the adopted epoch too: the next boundary releases
  // nothing even after a relationship change, as on a freshly
  // constructed cache, and its interval stores.
  cache.clear();
  EXPECT_EQ(cache.size(), 0U);
  g.remove_relationship(10, 5, Relationship::kFriendship);
  open();
  EXPECT_EQ(boundary.changed_nodes, 0U);
  EXPECT_EQ(boundary.released_rows, 0U);
  look_up_all();
  EXPECT_EQ(cache.size(), 6U);
}

/// A relationship change with no boundary after it: the lookup compares
/// the graph's epoch with the adopted one, re-derives the path and stores
/// nothing, so the entry stored before the change is never served.
TEST(SocialStateCacheTest, MidIntervalRelationshipChangeIsNeverServed) {
  // 0 -> 4 has two shortest paths, 0-1-2-3-4 (lex-min) and 0-5-6-7-4.
  SocialGraph g(8);
  befriend(g, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}, {5, 6}, {6, 7},
               {7, 4}});
  g.record_interaction(0, 1, 1.0);
  g.record_interaction(0, 5, 3.0);
  g.record_interaction(1, 2, 2.0);
  g.record_interaction(2, 3, 3.0);
  g.record_interaction(3, 4, 4.0);
  g.record_interaction(5, 6, 1.0);
  g.record_interaction(6, 7, 1.0);
  g.record_interaction(7, 4, 1.0);
  ClosenessModel model;
  SocialStateCache cache;
  cache.open_interval(g);
  checked_lookup(cache, model, g, 0, 4);
  ASSERT_EQ(cache.size(), 1U);
  const double via_1234 = cache.closeness(model, g, 0, 4);

  // Mid-interval, the stored path loses its interior edge 2-3; served, it
  // would score that edge's closeness 0.
  ASSERT_TRUE(g.remove_relationship(2, 3, Relationship::kFriendship));
  for (int k = 0; k < 2; ++k) {
    const auto d = checked_lookup(cache, model, g, 0, 4);
    EXPECT_EQ(d.structure_hits, 0U);
    EXPECT_EQ(d.structure_misses, 1U);
  }
  // A pair never looked up before is not stored either.
  checked_lookup(cache, model, g, 4, 0);
  EXPECT_EQ(cache.size(), 1U);  // only the entry stored before the change
  EXPECT_GT(cache.closeness(model, g, 0, 4), 0.0);  // now via 0-5-6-7-4
  EXPECT_FALSE(bits_equal(cache.closeness(model, g, 0, 4), via_1234));

  // The next boundary drops the stale entry.
  const auto d = stats_delta(cache, [&] { cache.open_interval(g); });
  EXPECT_EQ(d.invalidations, 1U);
  EXPECT_EQ(cache.size(), 0U);
}

/// Zero absorbs Eq. 4's bottleneck: a rater that has interacted with no
/// friend has Eq. 2 value +0.0 on every edge it can leave by, so each of
/// its Eq. 4 pairs is +0.0 whatever the path, and needs none. Once it
/// interacts with a friend, the same pairs search and store their paths,
/// and the fold runs until the bottleneck is +0.0, not merely small.
TEST(SocialStateCacheTest, ZeroSideRaterSettlesEq4WithoutALookup) {
  // Chain 0-1-2-3-4-5; 6 has no relationship. Rater 0 interacts only with
  // 4, which is not its friend. Edge 1-2 carries about 1e-4 of 1's
  // interactions and 2-3 about 1e-7 of 2's, so along 0-1-2-3 the
  // bottleneck is already below 1e-3 at the second edge and falls again
  // at the third.
  SocialGraph g(7);
  befriend(g, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  g.record_interaction(0, 4, 2.0);
  g.record_interaction(1, 0, 1.0);
  g.record_interaction(1, 2, 1e-4);
  g.record_interaction(2, 1, 1.0);
  g.record_interaction(2, 3, 1e-7);
  g.record_interaction(3, 4, 1.0);
  g.record_interaction(4, 5, 1.0);
  g.begin_interval();
  const ClosenessModel model;
  SocialStateCache cache;
  cache.open_interval(g);

  // 3, 4 and 5 are 3 to 5 hops from 0 and 6 is unreachable: every pair
  // takes Eq. 4 and is +0.0, and none is looked up or stored.
  const std::array<graph::NodeId, 4> far = {3, 4, 5, 6};
  {
    SocialStateCache::Row row(cache, model, g, 0);
    const StatsDelta d = stats_delta(cache, [&] {
      for (const graph::NodeId j : far) {
        EXPECT_TRUE(bits_equal(row.closeness(j), 0.0)) << "Omega_c(0," << j
                                                       << ")";
        EXPECT_TRUE(bits_equal(model.closeness(g, 0, j), 0.0));
      }
    });
    EXPECT_EQ(row.zero_side(), far.size());
    EXPECT_EQ(d.structure_hits + d.structure_misses, 0U);
    EXPECT_EQ(cache.size(), 0U);
  }

  // 0 interacts with its friend 1. The next interval searches and stores
  // every one of those paths (6's unreachable record included), and each
  // value matches the model.
  g.record_interaction(0, 1, 1.0);
  g.begin_interval();
  cache.open_interval(g);
  {
    SocialStateCache::Row row(cache, model, g, 0);
    const StatsDelta d = stats_delta(cache, [&] {
      for (const graph::NodeId j : far) {
        EXPECT_TRUE(bits_equal(row.closeness(j), model.closeness(g, 0, j)))
            << "Omega_c(0," << j << ")";
      }
    });
    EXPECT_EQ(row.zero_side(), 0U);
    EXPECT_EQ(d.structure_hits, 0U);
    EXPECT_EQ(d.structure_misses, far.size());
    EXPECT_EQ(cache.size(), far.size());
  }
  // Each reachable pair's bottleneck is edge 2-3, past the edge 1-2 at
  // which it first fell below 1e-3.
  const double thin = model.adjacent_closeness(g, 2, 3);
  EXPECT_GT(thin, 0.0);
  EXPECT_LT(model.adjacent_closeness(g, 1, 2), 1e-3);
  EXPECT_LT(thin, model.adjacent_closeness(g, 1, 2));
  for (const graph::NodeId j : {3, 4, 5}) {
    EXPECT_TRUE(bits_equal(cache.closeness(model, g, 0, j), thin))
        << "Omega_c(0," << j << ")";
  }
}

void expect_stats_equal(const SocialStateCache::StatsSnapshot& a,
                        const SocialStateCache::StatsSnapshot& b) {
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.structure_hits, b.structure_hits);
  EXPECT_EQ(a.structure_misses, b.structure_misses);
}

/// A seeded test graph that reaches every branch of Omega_c and its edge
/// cases. On top of a BA or WS graph over nodes [0, kMain): extra
/// relationship types (Eq. 10 masks), fractional interaction counts on
/// and off the edges (so sums and mins differ in their last bits), node
/// `kIsolated` with no relationship, node `kSilent` with relationships but
/// no interaction of its own, node `kOutward`, which interacts only with
/// nodes it has no relationship with, node `kUnderflow`, whose one
/// interaction with a friend (5e-324, its lowest-id friend, beside 1e300
/// with a non-friend) gives that edge Eq. 2 value +0.0, and a chain
/// kChain .. kChain + 7 hanging off node 0 whose far end lies beyond the
/// hop cap from most of the graph. Every edge out of the four special
/// nodes has Eq. 2 value +0.0, so their Eq. 4 pairs need no path lookup.
struct BranchGraph {
  static constexpr graph::NodeId kMain = 40;
  static constexpr graph::NodeId kIsolated = 5;
  static constexpr graph::NodeId kSilent = 7;
  static constexpr graph::NodeId kOutward = 9;
  static constexpr graph::NodeId kUnderflow = 11;
  static constexpr graph::NodeId kChain = kMain;
  static constexpr graph::NodeId kChainLength = 8;
  static constexpr std::size_t kNodes = kMain + kChainLength;

  static SocialGraph make(bool small_world, std::uint64_t seed) {
    stats::Rng rng(seed);
    const SocialGraph base = small_world
                                 ? graph::watts_strogatz(kMain, 4, 0.2, rng)
                                 : graph::barabasi_albert(kMain, 2, rng);
    SocialGraph g(kNodes);
    for (graph::NodeId a = 0; a < kMain; ++a) {
      for (const graph::NodeId b : base.neighbors(a)) {
        if (a < b) g.add_relationship(a, b, Relationship::kFriendship);
      }
    }
    g.clear_node(kIsolated);
    g.add_relationship(0, kChain, Relationship::kFriendship);
    for (graph::NodeId c = kChain; c + 1 < kNodes; ++c) {
      g.add_relationship(c, c + 1, Relationship::kFriendship);
    }
    // Mutators may compact the graph and move its rows, so each loop
    // walks a copy of the neighbour list.
    const auto friends_of = [&g](graph::NodeId a) {
      return std::vector<graph::NodeId>(g.neighbors(a).begin(),
                                        g.neighbors(a).end());
    };
    for (graph::NodeId a = 0; a < kNodes; ++a) {
      for (const graph::NodeId b : friends_of(a)) {
        if (a < b && rng.bernoulli(0.3)) {
          g.add_relationship(a, b,
                             static_cast<Relationship>(1 + rng.index(5)));
        }
      }
    }
    for (graph::NodeId a = 0; a < kNodes; ++a) {
      if (a == kIsolated || a == kSilent || a == kOutward ||
          a == kUnderflow) {
        continue;
      }
      for (const graph::NodeId b : friends_of(a)) {
        if (rng.bernoulli(0.8)) {
          g.record_interaction(a, b, rng.uniform(0.1, 5.0));
        }
      }
      g.record_interaction(a, static_cast<graph::NodeId>(rng.index(kNodes)),
                           rng.uniform(0.1, 5.0));
    }
    // Past its first node, the chain is adjacent to no main node.
    g.record_interaction(kOutward, kChain + 2, rng.uniform(0.1, 5.0));
    g.record_interaction(kOutward, kChain + 5, rng.uniform(0.1, 5.0));
    g.record_interaction(kUnderflow, g.neighbors(kUnderflow).front(),
                         5e-324);
    g.record_interaction(kUnderflow, kChain + 6, 1e300);
    g.begin_interval();
    return g;
  }
};

/// Branch tallies of rows over ordered pairs (i != j): Eq. 2, Eq. 3, the
/// Eq. 4 pairs settled at +0.0 with no path lookup, and the path lookups
/// (the structure hits plus misses added to stats()), one for each other
/// Eq. 4 pair. The four add up to the pairs evaluated.
struct BranchTally {
  std::uint64_t adjacent = 0;
  std::uint64_t fof = 0;
  std::uint64_t zero_side = 0;
  std::uint64_t lookups = 0;
};

/// Opens source i's Row, as the walk does, and checks every (i, j), i == j
/// included, bit for bit against model.closeness(); returns the row's
/// tallies. Its Eq. 4 pairs are all settled with no lookup when every
/// edge out of i has Eq. 2 value +0.0 by the model, and otherwise all
/// looked up.
BranchTally check_source(SocialStateCache& cache, const ClosenessModel& model,
                         const SocialGraph& g, graph::NodeId i) {
  SocialStateCache::Row row(cache, model, g, i);
  const StatsDelta d = stats_delta(cache, [&] {
    for (graph::NodeId j = 0; j < g.size(); ++j) {
      EXPECT_TRUE(bits_equal(row.closeness(j), model.closeness(g, i, j)))
          << "Omega_c(" << i << "," << j << ")";
    }
  });
  const BranchTally tally{row.adjacent(), row.fof(), row.zero_side(),
                          d.structure_hits + d.structure_misses};
  EXPECT_EQ(tally.adjacent + tally.fof + tally.zero_side + tally.lookups,
            g.size() - 1)
      << "source " << i;
  const auto friends = g.neighbors(i);
  const bool zero_side =
      std::all_of(friends.begin(), friends.end(), [&](graph::NodeId k) {
        return model.adjacent_closeness(g, i, k) == 0.0;
      });
  EXPECT_EQ(zero_side ? tally.lookups : tally.zero_side, 0U)
      << "source " << i << (zero_side ? " has" : " has no")
      << " Eq. 2 value +0.0 on every edge";
  return tally;
}

/// check_source() over every rater.
BranchTally check_every_pair(SocialStateCache& cache,
                             const ClosenessModel& model,
                             const SocialGraph& g) {
  BranchTally tally;
  for (graph::NodeId i = 0; i < g.size(); ++i) {
    const BranchTally row = check_source(cache, model, g, i);
    tally.adjacent += row.adjacent;
    tally.fof += row.fof;
    tally.zero_side += row.zero_side;
    tally.lookups += row.lookups;
  }
  return tally;
}

/// check_every_pair() in the interval opened right after relationship
/// changes made since epoch `since`, pinning the reach rule source by
/// source: a source within kMaxPathHops - 1 hops of a node stamped after
/// `since` had its row released and searches every path again, and any
/// other source is served every path. The interval before must have
/// looked up every pair. Returns the interval's stats delta.
StatsDelta check_every_pair_after_change(SocialStateCache& cache,
                                         const ClosenessModel& model,
                                         const SocialGraph& g,
                                         SocialGraph::Revision since) {
  std::vector<graph::NodeId> changed;
  for (graph::NodeId c = 0; c < g.size(); ++c) {
    if (g.node_epoch(c) > since) changed.push_back(c);
  }
  StatsDelta total;
  for (graph::NodeId i = 0; i < g.size(); ++i) {
    const bool in_reach =
        std::any_of(changed.begin(), changed.end(), [&](graph::NodeId c) {
          return g.distance(i, c, graph::kMaxPathHops - 1).has_value();
        });
    const StatsDelta d =
        stats_delta(cache, [&] { check_source(cache, model, g, i); });
    EXPECT_EQ(in_reach ? d.structure_hits : d.structure_misses, 0U)
        << "source " << i << (in_reach ? " in" : " out of") << " reach";
    total.structure_hits += d.structure_hits;
    total.structure_misses += d.structure_misses;
  }
  return total;
}

/// One batch of random relationship churn on BranchGraph's main graph.
/// Even batches apply one mutation of each kind below, counted in
/// `used`; odd ones toggle a type on the chain's last edge, out of reach
/// of every main-graph source. The chain stays a dead end off node 0 (or
/// is cut off), since no mutation adds an edge to it.
void churn(SocialGraph& g, stats::Rng& rng, int batch,
           std::array<int, 6>& used) {
  using B = BranchGraph;
  const auto type_of = [](std::size_t t) { return static_cast<Relationship>(t); };
  const auto main_node = [&] {
    return static_cast<graph::NodeId>(rng.index(B::kMain));
  };
  if (batch % 2 == 1) {
    const graph::NodeId a = B::kChain + B::kChainLength - 2;
    if (!g.remove_relationship(a, a + 1, Relationship::kColleague)) {
      g.add_relationship(a, a + 1, Relationship::kColleague);
    }
    return;
  }
  // A random edge (a, b) of the main graph.
  const auto some_edge = [&](graph::NodeId& a, graph::NodeId& b) {
    for (int tries = 0; tries < 100; ++tries) {
      a = main_node();
      const auto friends = g.neighbors(a);
      if (friends.empty()) continue;
      b = friends[rng.index(friends.size())];
      if (b < B::kMain) return true;
    }
    return false;
  };
  graph::NodeId a = 0;
  graph::NodeId b = 0;
  // A new edge.
  a = main_node();
  b = main_node();
  if (a != b && !g.adjacent(a, b) &&
      g.add_relationship(a, b, Relationship::kFriendship)) {
    g.record_interaction(a, b, rng.uniform(0.1, 5.0));
    ++used[0];
  }
  // A new type on an existing edge.
  if (some_edge(a, b)) {
    const std::size_t t = rng.index(graph::kRelationshipCount);
    if (g.add_relationship(a, b, type_of(t))) ++used[1];
  }
  // A type removal that leaves the edge in place.
  if (some_edge(a, b) && std::popcount(g.relationship_mask(a, b)) > 1) {
    const auto mask = g.relationship_mask(a, b);
    const auto t = static_cast<std::size_t>(std::countr_zero(mask));
    if (g.remove_relationship(a, b, type_of(t))) ++used[2];
  }
  // An edge removal.
  if (some_edge(a, b)) {
    for (std::size_t t = 0; t < graph::kRelationshipCount; ++t) {
      g.remove_relationship(a, b, type_of(t));
    }
    ++used[3];
  }
  // clear_node, then the new identity re-wires.
  a = main_node();
  b = main_node();
  g.clear_node(a);
  if (a != b && g.add_relationship(a, b, Relationship::kKinship)) {
    g.record_interaction(b, a, 1.5);
    ++used[4];
  }
  // A far edge: on a stored path i -> j of at least 4 hops, one that
  // touches neither end joins the nodes 3 and 1 hops short of j, so the
  // path loses a hop.
  for (int tries = 0; tries < 200; ++tries) {
    const auto path = g.shortest_path(main_node(), main_node());
    if (!path || path->size() < 5) continue;
    const std::size_t hops = path->size() - 1;
    ASSERT_TRUE(g.add_relationship((*path)[hops - 3], (*path)[hops - 1],
                                   Relationship::kNeighbor));
    EXPECT_EQ(g.distance(path->front(), path->back()), hops - 1);
    ++used[5];
    break;
  }
}

/// The walk's row context against the reference model on every branch, in
/// a storing interval that starts cold, the next one served warm, after
/// batches of random relationship churn, and after one change across the
/// graph; each interval after a change releases exactly the rows the
/// change can reach.
TEST(SocialStateCacheTest, RowsMatchTheModelOnEveryBranch) {
  using B = BranchGraph;
  std::array<int, 6> used{};
  std::uint64_t released = 0;
  std::uint64_t hits_after_change = 0;
  for (const bool small_world : {false, true}) {
    for (const std::uint64_t seed : {11U, 12U}) {
      SocialGraph g = B::make(small_world, seed);
      ASSERT_EQ(g.degree(B::kIsolated), 0U);
      ASSERT_GT(g.degree(B::kSilent), 0U);
      ASSERT_EQ(g.total_interactions(B::kSilent), 0.0);
      for (const graph::NodeId v : {B::kOutward, B::kUnderflow}) {
        ASSERT_GT(g.degree(v), 0U);
        ASSERT_GT(g.total_interactions(v), 0.0);
      }
      for (const graph::NodeId k : g.neighbors(B::kOutward)) {
        ASSERT_EQ(g.interaction(B::kOutward, k), 0.0);
      }
      // kUnderflow's friend interaction is positive, but its Eq. 2 value
      // is +0.0 under either model.
      const graph::NodeId thin = g.neighbors(B::kUnderflow).front();
      ASSERT_GT(g.interaction(B::kUnderflow, thin), 0.0);
      ASSERT_TRUE(bits_equal(
          ClosenessModel(true).adjacent_closeness(g, B::kUnderflow, thin),
          0.0));
      ASSERT_TRUE(bits_equal(
          ClosenessModel(false).adjacent_closeness(g, B::kUnderflow, thin),
          0.0));
      // The chain's far end is 8 hops from node 0: connected, but beyond
      // the hop cap, so the pair takes Eq. 4 and finds no path.
      const graph::NodeId far_end = B::kChain + B::kChainLength - 1;
      ASSERT_FALSE(g.shortest_path(far_end, 0).has_value());
      ASSERT_TRUE(g.shortest_path(far_end, 0, 2 * graph::kMaxPathHops));
      for (const ClosenessModel& model :
           {ClosenessModel(true, 0.7), ClosenessModel(false)}) {
        SCOPED_TRACE(::testing::Message()
                     << (small_world ? "WS" : "BA") << " seed " << seed
                     << (model.weighted() ? " weighted" : " unweighted"));
        SocialGraph h = g;
        SocialStateCache cache;

        // A storing interval that starts cold: every path is searched.
        cache.open_interval(h);
        BranchTally cold;
        auto d = stats_delta(cache,
                             [&] { cold = check_every_pair(cache, model, h); });
        const std::uint64_t cold_paths = d.structure_misses;
        const std::uint64_t pairs = h.size() * (h.size() - 1);
        EXPECT_GT(cold.adjacent, 0U);
        EXPECT_GT(cold.fof, 0U);
        EXPECT_GT(cold.zero_side, 0U);
        EXPECT_GT(cold_paths, 0U);
        EXPECT_EQ(d.structure_hits, 0U);
        EXPECT_EQ(cold.lookups, cold_paths);
        EXPECT_EQ(cold.adjacent + cold.fof + cold.zero_side + cold.lookups,
                  pairs);
        EXPECT_EQ(cache.size(), cold_paths);

        // The next interval, the epoch held: every path is served.
        cache.open_interval(h);
        BranchTally warm;
        d = stats_delta(cache,
                        [&] { warm = check_every_pair(cache, model, h); });
        EXPECT_EQ(d.structure_hits, cold_paths);
        EXPECT_EQ(d.structure_misses, 0U);
        EXPECT_EQ(warm.adjacent, cold.adjacent);
        EXPECT_EQ(warm.fof, cold.fof);
        EXPECT_EQ(warm.zero_side, cold.zero_side);
        EXPECT_EQ(warm.lookups, cold_paths);

        // Random churn, each batch followed by a boundary (compacting the
        // graph after every other one, as the simulator does) and the
        // all-pairs check.
        stats::Rng rng(seed * 2 + (model.weighted() ? 1 : 0));
        for (int batch = 0; batch < 8; ++batch) {
          const SocialGraph::Revision since = h.structure_epoch();
          churn(h, rng, batch, used);
          ASSERT_GT(h.structure_epoch(), since);
          if (batch % 4 == 0) h.begin_interval();
          released += stats_delta(cache, [&] {
                        cache.open_interval(h);
                      }).invalidations;
          hits_after_change +=
              check_every_pair_after_change(cache, model, h, since)
                  .structure_hits;
        }

        // A relationship change across the graph, joining the chain's
        // middle to the main graph.
        const SocialGraph::Revision since = h.structure_epoch();
        ASSERT_TRUE(h.add_relationship(B::kSilent, B::kChain + 4,
                                       Relationship::kKinship));
        h.record_interaction(B::kChain + 4, B::kSilent, 2.5);
        released += stats_delta(cache, [&] {
                      cache.open_interval(h);
                    }).invalidations;
        d = check_every_pair_after_change(cache, model, h, since);
        EXPECT_GT(d.structure_misses, 0U);
      }
    }
  }
  // Every kind of mutation ran, rows were released, and intervals right
  // after a change served the paths it could not reach.
  for (const int count : used) EXPECT_GT(count, 0);
  EXPECT_GT(released, 0U);
  EXPECT_GT(hits_after_change, 0U);

  // Out-of-range ids throw as the reference does, before any stamp is
  // read; i == j is 0 first, in range or not.
  const SocialGraph g = B::make(false, 11);
  const ClosenessModel model;
  SocialStateCache cache;
  cache.open_interval(g);
  const auto n = static_cast<graph::NodeId>(g.size());
  EXPECT_THROW(model.closeness(g, 0, n), std::out_of_range);
  EXPECT_THROW(cache.closeness(model, g, 0, n), std::out_of_range);
  EXPECT_THROW(cache.closeness(model, g, n, 0), std::out_of_range);
  EXPECT_TRUE(bits_equal(cache.closeness(model, g, n, n),
                         model.closeness(g, n, n)));
}

/// The cache's lock-free contract: lookups with distinct sources run
/// concurrently. Pool workers each walk their own sources' rows, first in
/// a storing interval and then in a served one, and must leave exactly
/// what a serial walk leaves: every value, size() and stats().
TEST(SocialStateCacheTest, DistinctSourcesLookUpConcurrently) {
  const SocialGraph g = BranchGraph::make(false, 21);
  const ClosenessModel model;
  const std::size_t n = g.size();
  const auto walk = [&](SocialStateCache& cache, util::ThreadPool* pool) {
    std::vector<double> values(n * n);
    const auto rows = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        SocialStateCache::Row row(cache, model, g,
                                  static_cast<graph::NodeId>(i));
        for (std::size_t j = 0; j < n; ++j) {
          values[i * n + j] = row.closeness(static_cast<graph::NodeId>(j));
        }
      }
    };
    if (pool != nullptr) {
      pool->parallel_for(n, 3, rows);
    } else {
      rows(0, n);
    }
    return values;
  };
  SocialStateCache serial;
  SocialStateCache parallel;
  util::ThreadPool pool(4);
  for (int interval = 0; interval < 2; ++interval) {
    serial.open_interval(g);
    parallel.open_interval(g);
    const std::vector<double> expected = walk(serial, nullptr);
    const std::vector<double> got = walk(parallel, &pool);
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_TRUE(bits_equal(got[k], expected[k]))
          << "Omega_c(" << k / n << "," << k % n << ")";
    }
    EXPECT_EQ(parallel.size(), serial.size());
    expect_stats_equal(parallel.stats(), serial.stats());
  }
  // The first interval stored paths and the second served them.
  EXPECT_GT(serial.size(), 0U);
  EXPECT_EQ(serial.stats().structure_hits, serial.size());
}

// --- 2. cold-vs-warm differential gate ---------------------------------------

/// One update interval's complete observable output, plus the cache's
/// cumulative totals and the plugin's work report after it.
struct IntervalRecord {
  std::vector<Rating> adjusted;
  core::AdjustmentReport report;
  std::vector<double> reputations;
  SocialStateCache::StatsSnapshot cache_stats;
  SocialTrustPlugin::DirtyStats dirty;
};

/// Forwarding wrapper that snapshots the plugin's outputs after every
/// update() so a simulator run yields a per-interval trace instead of
/// only its final state. A cold wrapper wipes the plugin's persistent
/// cache before every interval — the old per-interval-memo behaviour.
/// Cold-vs-warm equality is exactly the claim that the cache is a pure
/// optimisation.
class RecordingSystem final : public reputation::ReputationSystem {
 public:
  RecordingSystem(std::unique_ptr<SocialTrustPlugin> plugin, bool cold,
                  std::vector<IntervalRecord>& trace)
      : plugin_(std::move(plugin)), cold_(cold), trace_(trace) {}
  std::string_view name() const noexcept override { return plugin_->name(); }
  std::size_t size() const noexcept override { return plugin_->size(); }
  void update(std::span<const Rating> cycle_ratings) override {
    if (cold_) plugin_->social_cache().clear();
    plugin_->update(cycle_ratings);
    IntervalRecord rec;
    auto adjusted = plugin_->last_adjusted();
    rec.adjusted.assign(adjusted.begin(), adjusted.end());
    rec.report = plugin_->last_report();
    auto reps = plugin_->reputations();
    rec.reputations.assign(reps.begin(), reps.end());
    rec.cache_stats = plugin_->social_cache().stats();
    rec.dirty = plugin_->last_dirty_stats();
    trace_.push_back(std::move(rec));
  }
  double reputation(reputation::NodeId node) const override {
    return plugin_->reputation(node);
  }
  std::span<const double> reputations() const noexcept override {
    return plugin_->reputations();
  }
  void reset() override { plugin_->reset(); }
  void forget_node(reputation::NodeId node) override {
    plugin_->forget_node(node);
  }

 private:
  std::unique_ptr<SocialTrustPlugin> plugin_;
  bool cold_;
  std::vector<IntervalRecord>& trace_;
};

void expect_record_identical(const IntervalRecord& cold,
                             const IntervalRecord& warm,
                             const std::string& label) {
  SCOPED_TRACE(label);

  ASSERT_EQ(cold.adjusted.size(), warm.adjusted.size());
  for (std::size_t i = 0; i < cold.adjusted.size(); ++i) {
    EXPECT_EQ(cold.adjusted[i].rater, warm.adjusted[i].rater) << i;
    EXPECT_EQ(cold.adjusted[i].ratee, warm.adjusted[i].ratee) << i;
    EXPECT_TRUE(bits_equal(cold.adjusted[i].value, warm.adjusted[i].value))
        << "rating " << i;
  }

  const core::AdjustmentReport& a = cold.report;
  const core::AdjustmentReport& b = warm.report;
  EXPECT_EQ(a.pairs_total, b.pairs_total);
  EXPECT_EQ(a.pairs_flagged, b.pairs_flagged);
  EXPECT_EQ(a.ratings_adjusted, b.ratings_adjusted);
  EXPECT_EQ(a.b1, b.b1);
  EXPECT_EQ(a.b2, b.b2);
  EXPECT_EQ(a.b3, b.b3);
  EXPECT_EQ(a.b4, b.b4);
  EXPECT_TRUE(bits_equal(a.mean_weight, b.mean_weight)) << "mean_weight";
  ASSERT_EQ(a.flagged.size(), b.flagged.size());
  for (std::size_t i = 0; i < a.flagged.size(); ++i) {
    EXPECT_EQ(a.flagged[i].rater, b.flagged[i].rater) << i;
    EXPECT_EQ(a.flagged[i].ratee, b.flagged[i].ratee) << i;
    EXPECT_EQ(a.flagged[i].behavior, b.flagged[i].behavior) << i;
    EXPECT_TRUE(bits_equal(a.flagged[i].weight, b.flagged[i].weight)) << i;
  }

  ASSERT_EQ(cold.reputations.size(), warm.reputations.size());
  for (std::size_t v = 0; v < cold.reputations.size(); ++v) {
    EXPECT_TRUE(bits_equal(cold.reputations[v], warm.reputations[v]))
        << "node " << v;
  }
}

/// Scaled-down Section 5.1 network run long enough for 20 update
/// intervals.
sim::SimConfig differential_config() {
  sim::SimConfig cfg;
  cfg.node_count = 64;
  cfg.pretrusted_count = 5;
  cfg.colluder_count = 14;
  cfg.query_cycles_per_cycle = 6;
  cfg.simulation_cycles = 20;
  return cfg;
}

std::unique_ptr<sim::CollusionStrategy> make_strategy(
    const std::string& model) {
  collusion::CollusionOptions options;
  if (model == "none") return nullptr;
  if (model == "PCM")
    return std::make_unique<collusion::PairwiseCollusion>(options);
  if (model == "MCM")
    return std::make_unique<collusion::MultiNodeCollusion>(options);
  return std::make_unique<collusion::MutualMultiNodeCollusion>(options);
}

std::vector<IntervalRecord> run_traced(const std::string& model,
                                       std::uint64_t seed,
                                       std::size_t threads, bool cold) {
  core::SocialTrustConfig cfg;
  cfg.threads = threads;
  std::vector<IntervalRecord> trace;
  auto factory = [cfg, cold, &trace](const graph::SocialGraph& graph,
                                     const InterestProfiles& profiles,
                                     const std::vector<sim::NodeId>& pretrusted,
                                     std::size_t n)
      -> std::unique_ptr<reputation::ReputationSystem> {
    auto inner = std::make_unique<reputation::PaperEigenTrust>(
        n, pretrusted, reputation::PaperEigenTrustConfig{});
    auto plugin = std::make_unique<SocialTrustPlugin>(std::move(inner), graph,
                                                      profiles, cfg);
    return std::make_unique<RecordingSystem>(std::move(plugin), cold, trace);
  };
  sim::Simulator simulator(differential_config(), factory,
                           make_strategy(model), seed);
  simulator.run();
  return trace;
}

/// Simulator-driven differential: a warm plugin against a cold one,
/// bit-compared at EVERY interval across collusion models, seeds, and
/// thread counts.
class ColdVsWarmEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ColdVsWarmEquivalence, BitIdenticalAcrossIntervalsAndThreads) {
  const std::string model = GetParam();
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    const auto cold = run_traced(model, seed, 1, /*cold=*/true);
    ASSERT_GE(cold.size(), 20U);
    for (std::size_t threads : {1UL, 2UL, 4UL}) {
      const auto warm = run_traced(model, seed, threads, /*cold=*/false);
      ASSERT_EQ(cold.size(), warm.size());
      const std::string run = model + " seed=" + std::to_string(seed) +
                              " threads=" + std::to_string(threads);
      // The warm cache must have served paths stored in an earlier
      // interval, or this compares two cold runs and proves nothing. A
      // cold run looks each directional pair up once per interval, so it
      // never hits; comparing the totals states that directly.
      EXPECT_GT(warm.back().cache_stats.structure_hits,
                cold.back().cache_stats.structure_hits)
          << run;
      for (std::size_t t = 0; t < cold.size(); ++t) {
        expect_record_identical(cold[t], warm[t],
                                run + " interval=" + std::to_string(t));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CollusionModels, ColdVsWarmEquivalence,
                         ::testing::Values("none", "PCM", "MCM", "MMM"));

/// Simulator-driven check of the work report last_dirty_stats() keeps for
/// perfbench/simbench.cpp, which fails an interval unless dirty + carried
/// equals pairs_total: at EVERY interval the full walk reports every
/// active pair dirty and every active rater rebuilt, carries nothing, and
/// reports the same counts and outputs at every thread count.
class FullVsDirtyEquivalence : public ::testing::TestWithParam<const char*> {
};

TEST_P(FullVsDirtyEquivalence, BitIdenticalEveryIntervalAcrossThreads) {
  const std::string model = GetParam();
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    const auto base = run_traced(model, seed, 1, /*cold=*/false);
    ASSERT_GE(base.size(), 20U);
    for (std::size_t threads : {1UL, 2UL, 4UL}) {
      const auto run = threads == 1
                           ? base
                           : run_traced(model, seed, threads, /*cold=*/false);
      ASSERT_EQ(base.size(), run.size());
      for (std::size_t t = 0; t < run.size(); ++t) {
        const std::string label = model + " seed=" + std::to_string(seed) +
                                  " threads=" + std::to_string(threads) +
                                  " interval=" + std::to_string(t);
        const IntervalRecord& rec = run[t];
        std::set<std::pair<reputation::NodeId, reputation::NodeId>> pairs;
        std::set<reputation::NodeId> raters;
        for (const Rating& r : rec.adjusted) {
          if (!reputation::valid_rating(r, rec.reputations.size())) continue;
          pairs.emplace(r.rater, r.ratee);
          raters.insert(r.rater);
        }
        EXPECT_EQ(rec.dirty.pairs_dirty, pairs.size()) << label;
        EXPECT_EQ(rec.dirty.pairs_dirty, rec.report.pairs_total) << label;
        EXPECT_EQ(rec.dirty.pairs_carried, 0U) << label;
        EXPECT_EQ(rec.dirty.raters_rebuilt, raters.size()) << label;
        EXPECT_EQ(rec.dirty.raters_carried, 0U) << label;
        EXPECT_EQ(rec.dirty.pairs_dirty, base[t].dirty.pairs_dirty) << label;
        EXPECT_EQ(rec.dirty.raters_rebuilt, base[t].dirty.raters_rebuilt)
            << label;
        if (threads != 1) expect_record_identical(base[t], rec, label);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CollusionModels, FullVsDirtyEquivalence,
                         ::testing::Values("none", "PCM", "MCM", "MMM"));

// --- 3. whitewashing regression ---------------------------------------------

/// Directly driven plugin pair (no simulator): one warm, one cold (its
/// cache wiped before every update), fed the identical interval sequence
/// over the identical shared social state. Any stale path the warm cache
/// serves diverges the two and fails the bit compare.
struct WarmColdPair {
  static constexpr std::size_t kNodes = 48;
  static constexpr std::size_t kCategories = 16;

  stats::Rng rng{1234};
  SocialGraph g = graph::watts_strogatz(kNodes, 6, 0.2, rng);
  InterestProfiles profiles{kNodes, kCategories};
  std::unique_ptr<SocialTrustPlugin> warm;
  std::unique_ptr<SocialTrustPlugin> cold;

  WarmColdPair() {
    for (graph::NodeId n = 0; n < kNodes; ++n) {
      const reputation::InterestId ints[] = {
          static_cast<reputation::InterestId>(n % kCategories),
          static_cast<reputation::InterestId>((n + 5) % kCategories)};
      profiles.set_interests(n, ints);
    }
    warm = make_plugin();
    cold = make_plugin();
  }

  std::unique_ptr<SocialTrustPlugin> make_plugin() {
    core::SocialTrustConfig cfg;
    cfg.threads = 1;
    return std::make_unique<SocialTrustPlugin>(
        std::make_unique<reputation::PaperEigenTrust>(
            kNodes, std::vector<reputation::NodeId>{0, 1},
            reputation::PaperEigenTrustConfig{}),
        g, profiles, cfg);
  }

  /// A deterministic interval stream; every rating also mutates the
  /// social state the way Simulator::submit_rating does (interactions and
  /// requests only, so the structure epoch holds).
  std::vector<Rating> make_interval(std::uint64_t seed) {
    stats::Rng interval_rng(seed);
    std::vector<Rating> ratings;
    for (std::size_t q = 0; q < 160; ++q) {
      const auto rater =
          static_cast<reputation::NodeId>(interval_rng.index(kNodes));
      auto ratee = static_cast<reputation::NodeId>(interval_rng.index(kNodes));
      if (ratee == rater) ratee = (ratee + 1) % kNodes;
      const double value = interval_rng.bernoulli(0.8) ? 1.0 : -1.0;
      ratings.push_back(Rating{rater, ratee, value, 0, 0,
                               static_cast<reputation::InterestId>(
                                   interval_rng.index(kCategories))});
      g.record_interaction(rater, ratee);
      profiles.record_request(rater, ratings.back().interest);
    }
    return ratings;
  }

  /// Closes one interval on both plugins and bit-compares their outputs.
  void run_interval(const std::vector<Rating>& ratings) {
    cold->social_cache().clear();
    cold->update(ratings);
    warm->update(ratings);
    auto ca = cold->last_adjusted();
    auto wa = warm->last_adjusted();
    ASSERT_EQ(ca.size(), wa.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      ASSERT_TRUE(bits_equal(ca[i].value, wa[i].value)) << "rating " << i;
    }
    auto cr = cold->reputations();
    auto wr = warm->reputations();
    for (std::size_t v = 0; v < cr.size(); ++v) {
      ASSERT_TRUE(bits_equal(cr[v], wr[v])) << "node " << v;
    }
  }
};

/// A whitewash as Simulator::whitewash does it (forget_node, clear_node),
/// then the new identity re-wires: the next update() releases the rows
/// of every source within kMaxPathHops - 1 hops of a changed row, which
/// on this small-world graph is every row, and stores again in that same
/// interval; the interval after it is served, and warm equals cold
/// throughout.
TEST(IncrementalWhitewashing, ForgetNodeInvalidatesStaleEntries) {
  WarmColdPair p;
  p.run_interval(p.make_interval(1));
  p.run_interval(p.make_interval(2));
  ASSERT_GT(p.warm->social_cache().stats().structure_hits, 0U);

  const reputation::NodeId w = 7;
  const std::size_t entries = p.warm->social_cache().size();
  ASSERT_GT(entries, 0U);
  const auto inval_before = p.warm->social_cache().stats().invalidations;
  const SocialGraph::Revision epoch = p.g.structure_epoch();
  const auto friends = p.g.neighbors(w);
  const std::vector<graph::NodeId> changed(friends.begin(), friends.end());
  p.warm->forget_node(w);
  p.cold->forget_node(w);
  p.g.clear_node(w);
  p.profiles.clear_requests(w);
  EXPECT_GT(p.g.structure_epoch(), epoch);  // 7 had relationships
  // The new identity makes a brand-new tie.
  ASSERT_TRUE(p.g.add_relationship(w, 30, Relationship::kKinship));
  // Every node lies within reach of 7's former friends.
  for (graph::NodeId v = 0; v < WarmColdPair::kNodes; ++v) {
    ASSERT_TRUE(std::any_of(changed.begin(), changed.end(), [&](auto c) {
      return p.g.distance(v, c, graph::kMaxPathHops - 1).has_value();
    })) << "node " << v;
  }

  // The discarded identity re-joins and gets rated again: warm results
  // must match a from-scratch recompute, not the pre-whitewash state.
  p.run_interval(p.make_interval(3));
  EXPECT_EQ(p.warm->social_cache().stats().invalidations,
            inval_before + entries);
  EXPECT_GT(p.warm->social_cache().size(), 0U);

  // No relationship changes before the next interval, which is served
  // the paths the whitewash interval stored.
  const auto hits = p.warm->social_cache().stats().structure_hits;
  p.run_interval(p.make_interval(4));
  EXPECT_GT(p.warm->social_cache().stats().structure_hits, hits);

  // The steady state: the same stream again, the topology held. Every
  // path lookup is served from the previous interval's stores.
  p.run_interval(p.make_interval(5));
  const auto before = p.warm->social_cache().stats();
  p.run_interval(p.make_interval(5));
  const auto after = p.warm->social_cache().stats();
  EXPECT_GT(after.structure_hits, before.structure_hits);
  EXPECT_EQ(after.structure_misses, before.structure_misses);
}

/// forget_node alone leaves the graph, and so every cached path, as it
/// was: the cache is untouched, and the warm plugin keeps serving paths
/// stored before the forget while still matching a cold twin.
TEST(IncrementalWhitewashing, ForgetNodeAloneKeepsCachedPathsValid) {
  WarmColdPair p;
  p.run_interval(p.make_interval(1));
  p.run_interval(p.make_interval(2));
  const std::size_t entries = p.warm->social_cache().size();
  const auto before = p.warm->social_cache().stats();
  ASSERT_GT(entries, 0U);

  p.warm->forget_node(7);
  p.cold->forget_node(7);
  EXPECT_EQ(p.warm->social_cache().size(), entries);
  expect_stats_equal(p.warm->social_cache().stats(), before);

  p.run_interval(p.make_interval(3));
  const auto after = p.warm->social_cache().stats();
  EXPECT_GT(after.structure_hits, before.structure_hits);
  EXPECT_EQ(after.invalidations, before.invalidations);
}

// --- 4. from-scratch oracle -------------------------------------------------

/// Leave-one-out statistics of `values` with one instance of `v` removed,
/// in the plugin's arithmetic: sums run in rated-set order and then drop
/// v (Section 4.1's "other nodes it has rated"). The extremes are found
/// directly. Returns false when nothing remains.
bool loo_stats(const std::vector<double>& values, double v,
               core::CoefficientStats& out) {
  if (values.size() <= 1) return false;
  double sum = 0.0, sum_sq = 0.0;
  for (double x : values) {
    sum += x;
    sum_sq += x * x;
  }
  const std::size_t n = values.size() - 1;
  out.mean = (sum - v) / static_cast<double>(n);
  out.stddev = core::population_stddev(sum - v, sum_sq - v * v, n);
  out.min = std::numeric_limits<double>::infinity();
  out.max = -std::numeric_limits<double>::infinity();
  bool dropped = false;
  for (double x : values) {
    if (!dropped && x == v) {
      dropped = true;
      continue;
    }
    out.min = std::min(out.min, x);
    out.max = std::max(out.max, x);
  }
  return true;
}

struct OracleInterval {
  std::vector<Rating> adjusted;
  std::vector<core::FlaggedPair> flagged;
};

/// One interval's adjustment recomputed without the cache or the rater
/// walk: Omega_c by ClosenessModel::closeness, Omega_s by InterestProfiles
/// in the asked-for orientation, leave-one-out statistics over `rated`
/// (each rater's cumulative rated set, this interval included), then
/// robust_stats, BehaviorDetector::classify and adjustment_weight as
/// Section 4 composes them. `reputations` is the wrapped system's vector
/// before the interval.
OracleInterval oracle_interval(
    const core::SocialTrustConfig& cfg, const SocialGraph& g,
    const InterestProfiles& profiles,
    const std::vector<std::set<reputation::NodeId>>& rated,
    const std::vector<double>& reputations,
    const std::vector<Rating>& ratings) {
  const ClosenessModel model(cfg.weighted_relationships, cfg.lambda);
  const core::BehaviorDetector detector(cfg);
  const auto omega_c = [&](reputation::NodeId i, reputation::NodeId j) {
    return model.closeness(g, i, j);
  };
  const auto omega_s = [&](reputation::NodeId i, reputation::NodeId j) {
    return cfg.weighted_interests ? profiles.weighted_similarity(i, j)
                                  : profiles.similarity(i, j);
  };

  struct Pair {
    double positive = 0.0, negative = 0.0, c = 0.0, s = 0.0;
    std::vector<std::size_t> ratings;
  };
  std::map<std::pair<reputation::NodeId, reputation::NodeId>, Pair> pairs;
  double total_count = 0.0;
  for (std::size_t idx = 0; idx < ratings.size(); ++idx) {
    const Rating& r = ratings[idx];
    if (!reputation::valid_rating(r, reputations.size())) continue;
    Pair& pair = pairs[{r.rater, r.ratee}];
    if (r.value > 0.0) pair.positive += 1.0;
    if (r.value < 0.0) pair.negative += 1.0;
    pair.ratings.push_back(idx);
  }
  std::vector<double> system_c_values, system_s_values;
  for (auto& [key, pair] : pairs) {
    pair.c = omega_c(key.first, key.second);
    pair.s = omega_s(key.first, key.second);
    system_c_values.push_back(pair.c);
    system_s_values.push_back(pair.s);
    total_count += pair.positive + pair.negative;
  }
  const double avg_freq =
      pairs.empty() ? 0.0 : total_count / static_cast<double>(pairs.size());
  const core::CoefficientStats system_c = core::robust_stats(system_c_values);
  const core::CoefficientStats system_s = core::robust_stats(system_s_values);

  OracleInterval out;
  out.adjusted = ratings;
  for (const auto& [key, pair] : pairs) {
    const auto [rater, ratee] = key;
    core::CoefficientStats c_stats = system_c;
    core::CoefficientStats s_stats = system_s;
    if (cfg.baseline != core::BaselineSource::kSystemWide) {
      std::vector<double> row_c, row_s;
      for (reputation::NodeId k : rated[rater]) {
        row_c.push_back(omega_c(rater, k));
        row_s.push_back(omega_s(rater, k));
      }
      loo_stats(row_c, pair.c, c_stats);
      loo_stats(row_s, pair.s, s_stats);
    }
    core::PairEvidence evidence;
    evidence.positive_count = pair.positive;
    evidence.negative_count = pair.negative;
    evidence.closeness = pair.c;
    evidence.similarity = pair.s;
    evidence.ratee_reputation = reputations[ratee];
    evidence.rater_closeness = c_stats;
    const core::Behavior behavior = detector.classify(evidence, avg_freq);
    if (cfg.gate_on_detector && !core::any(behavior)) continue;
    double weight = core::adjustment_weight(cfg.components, pair.c, c_stats,
                                            pair.s, s_stats, cfg.alpha,
                                            cfg.width);
    if (cfg.baseline == core::BaselineSource::kHybrid) {
      weight = std::min(weight, core::adjustment_weight(
                                    cfg.components, pair.c, system_c, pair.s,
                                    system_s, cfg.alpha, cfg.width));
    }
    if (core::any(behavior)) {
      out.flagged.push_back(core::FlaggedPair{rater, ratee, behavior, weight});
    }
    for (std::size_t idx : pair.ratings) out.adjusted[idx].value *= weight;
  }
  return out;
}

/// Drives a plugin through five intervals of a small network — random
/// traffic plus two colluding pairs with disjoint interests and a
/// bad-mouther against a look-alike competitor — mutating the social
/// state per rating as Simulator::submit_rating does, then checks the
/// last interval's adjusted stream and flagged pairs bit for bit against
/// oracle_interval().
void expect_interval_matches_oracle(core::BaselineSource baseline,
                                    std::size_t threads) {
  SCOPED_TRACE("baseline=" + std::to_string(static_cast<int>(baseline)) +
               " threads=" + std::to_string(threads));
  constexpr std::size_t kNodes = 40;
  constexpr std::size_t kCategories = 8;
  stats::Rng rng(4242);
  SocialGraph g = graph::watts_strogatz(kNodes, 4, 0.2, rng);
  InterestProfiles profiles(kNodes, kCategories);
  for (graph::NodeId n = 0; n < kNodes; ++n) {
    const reputation::InterestId ints[] = {
        static_cast<reputation::InterestId>(n % kCategories),
        static_cast<reputation::InterestId>((n + 3) % kCategories)};
    profiles.set_interests(n, ints);
  }
  // 4 and 5 compete for the same two categories.
  const reputation::InterestId rivals[] = {2, 6};
  profiles.set_interests(4, rivals);
  profiles.set_interests(5, rivals);

  core::SocialTrustConfig cfg;
  cfg.baseline = baseline;
  cfg.threads = threads;
  SocialTrustPlugin plugin(
      std::make_unique<reputation::PaperEigenTrust>(
          kNodes, std::vector<reputation::NodeId>{10, 11},
          reputation::PaperEigenTrustConfig{}),
      g, profiles, cfg);

  std::vector<std::set<reputation::NodeId>> rated(kNodes);
  std::vector<Rating> ratings;
  auto submit = [&](reputation::NodeId rater, reputation::NodeId ratee,
                    double value, reputation::InterestId interest) {
    ratings.push_back(Rating{rater, ratee, value, 0, 0, interest});
    rated[rater].insert(ratee);
    g.record_interaction(rater, ratee);
    profiles.record_request(rater, interest);
  };
  std::vector<double> reputations_before;
  for (std::size_t interval = 0; interval < 5; ++interval) {
    ratings.clear();
    for (std::size_t q = 0; q < 120; ++q) {
      const auto rater = static_cast<reputation::NodeId>(rng.index(kNodes));
      auto ratee = static_cast<reputation::NodeId>(rng.index(kNodes));
      if (ratee == rater) {
        ratee = static_cast<reputation::NodeId>((ratee + 1) % kNodes);
      }
      submit(rater, ratee, rng.bernoulli(0.8) ? 1.0 : -1.0,
             static_cast<reputation::InterestId>(rng.index(kCategories)));
    }
    for (int k = 0; k < 10; ++k) {
      submit(0, 1, 1.0, 0);
      submit(1, 0, 1.0, 1);
      submit(2, 20, 1.0, 2);
      submit(20, 2, 1.0, 7);
      submit(4, 5, -1.0, 2);
    }
    auto reps = plugin.reputations();
    reputations_before.assign(reps.begin(), reps.end());
    plugin.update(ratings);
  }

  const OracleInterval want =
      oracle_interval(cfg, g, profiles, rated, reputations_before, ratings);
  const auto got = plugin.last_adjusted();
  ASSERT_EQ(got.size(), want.adjusted.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(bits_equal(got[i].value, want.adjusted[i].value))
        << "rating " << i;
  }
  const auto& flagged = plugin.last_report().flagged;
  ASSERT_FALSE(want.flagged.empty());  // the oracle has something to pin
  ASSERT_EQ(flagged.size(), want.flagged.size());
  for (std::size_t i = 0; i < flagged.size(); ++i) {
    EXPECT_EQ(flagged[i].rater, want.flagged[i].rater) << i;
    EXPECT_EQ(flagged[i].ratee, want.flagged[i].ratee) << i;
    EXPECT_EQ(flagged[i].behavior, want.flagged[i].behavior) << i;
    EXPECT_TRUE(bits_equal(flagged[i].weight, want.flagged[i].weight)) << i;
  }
}

TEST(FromScratchOracle, LastIntervalMatchesForEveryBaselineAndThreadCount) {
  for (core::BaselineSource baseline :
       {core::BaselineSource::kPerRater, core::BaselineSource::kSystemWide,
        core::BaselineSource::kHybrid}) {
    for (std::size_t threads : {1UL, 4UL}) {
      expect_interval_matches_oracle(baseline, threads);
    }
  }
}

}  // namespace
}  // namespace st
