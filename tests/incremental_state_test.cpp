// Incremental social-state correctness suite (DESIGN.md §13).
//
// The SocialStateCache persists across update intervals and revalidates
// entries against per-node revision counters; the contract is that a warm
// cache is a pure performance optimisation. Three layers of evidence:
//   1. unit tests on the cache itself — entries hit while the witnessed
//      state holds, miss the moment it changes, and the witness kinds are
//      exactly as precise as DESIGN.md §13 claims (e.g. a friend-of-friend
//      entry survives interaction churn on the *ratee* but not on the
//      rater or a common friend);
//   2. a cold-vs-warm property test in the style of
//      parallel_update_test.cpp — full simulations where one plugin keeps
//      its cache across intervals and a second has it wiped before every
//      update() must produce bit-identical adjusted ratings, reports,
//      flagged pairs, and downstream reputations across collusion models,
//      seeds, and thread counts;
//   3. a whitewashing regression — forget_node must drop every cached
//      entry mentioning the discarded identity (queued, then erased in
//      one batched pass that must equal per-node passes and must run
//      before update() touches the cache), and a warm plugin driven
//      across a whitewash event must stay bit-identical to a cold one;
//   4. a full-vs-dirty differential gate (DESIGN.md §14) — the dirty-pair
//      scheduler (UpdateSchedule::kDirtyPairs) run side by side with the
//      full-walk oracle over 4 collusion models × 3 seeds × threads
//      {1, 2, 4} × ≥20 intervals must produce bit-identical adjusted
//      ratings, flagged sets, AdjustmentReport fields and reputations at
//      EVERY interval, plus a direct-driven sparse-churn scenario where
//      most pairs genuinely carry forward (the simulator bumps every
//      active rater's revision per rating, so it exercises the all-dirty
//      extreme; the direct scenario exercises the carry path).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "collusion/models.hpp"
#include "core/social_state_cache.hpp"
#include "core/socialtrust.hpp"
#include "graph/generators.hpp"
#include "reputation/paper_eigentrust.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

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
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t structure_hits = 0;
  std::uint64_t structure_misses = 0;
};

template <typename Fn>
StatsDelta stats_delta(SocialStateCache& cache, Fn&& fn) {
  const auto before = cache.stats();
  fn();
  const auto after = cache.stats();
  return StatsDelta{after.hits - before.hits, after.misses - before.misses,
                    after.invalidations - before.invalidations,
                    after.structure_hits - before.structure_hits,
                    after.structure_misses - before.structure_misses};
}

// --- 1. cache unit tests ----------------------------------------------------

TEST(SocialStateCacheTest, AdjacentEntryWitnessesOnlyTheRater) {
  SocialGraph g(4);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.record_interaction(0, 1, 3.0);
  g.record_interaction(0, 2, 1.0);
  g.record_interaction(1, 0, 2.0);
  ClosenessModel model;
  SocialStateCache cache;

  double v0 = 0.0;
  auto d = stats_delta(cache, [&] { v0 = cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.misses, 1U);
  EXPECT_TRUE(bits_equal(v0, model.closeness(g, 0, 1)));

  d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.hits, 1U);
  EXPECT_EQ(d.misses, 0U);

  // The ratee's outgoing interactions are not part of Omega_c(0,1): the
  // entry must survive churn on node 1...
  g.record_interaction(1, 3, 5.0);
  d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.hits, 1U);

  // ...but any change to the rater's interaction row (even towards a third
  // node — it changes the Eq. 2 denominator) invalidates it.
  g.record_interaction(0, 3, 1.0);
  double v1 = 0.0;
  d = stats_delta(cache, [&] { v1 = cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.misses, 1U);
  EXPECT_EQ(d.invalidations, 1U);
  EXPECT_TRUE(bits_equal(v1, model.closeness(g, 0, 1)));
}

TEST(SocialStateCacheTest, FofEntrySurvivesRateeInteractionChurn) {
  // 0 and 1 share the common friend 2 but are not adjacent.
  SocialGraph g(5);
  g.add_relationship(0, 2, Relationship::kFriendship);
  g.add_relationship(1, 2, Relationship::kColleague);
  g.record_interaction(0, 2, 2.0);
  g.record_interaction(2, 1, 4.0);
  g.record_interaction(2, 0, 1.0);
  ClosenessModel model;
  SocialStateCache cache;

  auto d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.misses, 1U);
  EXPECT_EQ(d.structure_misses, 1U);  // the common-friend set

  d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.hits, 1U);

  // j = 1 is witnessed structurally only: Eq. 3 reads adjacent_closeness
  // (0,k) and (k,1), never 1's outgoing interactions.
  g.record_interaction(1, 4, 7.0);
  d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.hits, 1U);

  // A common friend's interactions feed the Eq. 3 terms: invalidate.
  g.record_interaction(2, 4, 1.0);
  double fresh = 0.0;
  d = stats_delta(cache, [&] { fresh = cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.misses, 1U);
  // The common-friend *set* is untouched by interaction churn, so the
  // recompute reuses the structure layer — the cross-interval win the
  // bench measures.
  EXPECT_EQ(d.structure_hits, 1U);
  EXPECT_EQ(d.structure_misses, 0U);
  EXPECT_TRUE(bits_equal(fresh, model.closeness(g, 0, 1)));

  // An edge on j can change the common set itself: invalidate.
  cache.closeness(model, g, 0, 1);
  g.add_relationship(1, 3, Relationship::kFriendship);
  d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.misses, 1U);
  EXPECT_EQ(d.structure_misses, 1U);  // structure witness of 1 changed
}

TEST(SocialStateCacheTest, PathEntriesGateOnStructureAndSpareTheSink) {
  // Chain 0-1-2-3: no common friends between 0 and 3, so Omega_c(0,3) is
  // the Eq. 4 bottleneck along the unique shortest path.
  SocialGraph g(8);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.add_relationship(1, 2, Relationship::kFriendship);
  g.add_relationship(2, 3, Relationship::kFriendship);
  g.record_interaction(0, 1, 1.0);
  g.record_interaction(1, 2, 2.0);
  g.record_interaction(2, 3, 3.0);
  ClosenessModel model;
  SocialStateCache cache;

  auto d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 3); });
  EXPECT_EQ(d.misses, 1U);

  d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 3); });
  EXPECT_EQ(d.hits, 1U);

  // The sink's outgoing interactions are never read by Eq. 4.
  g.record_interaction(3, 0, 9.0);
  d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 3); });
  EXPECT_EQ(d.hits, 1U);

  // An interior path node's interactions are one of the min() terms.
  g.record_interaction(1, 0, 1.0);
  double fresh = 0.0;
  d = stats_delta(cache, [&] { fresh = cache.closeness(model, g, 0, 3); });
  EXPECT_EQ(d.misses, 1U);
  // The structure is unchanged: both the (empty) common-friend set and the
  // path itself are served from the structure layer.
  EXPECT_EQ(d.structure_hits, 2U);
  EXPECT_TRUE(bits_equal(fresh, model.closeness(g, 0, 3)));

  // Any edge change anywhere can shorten a shortest path, so path-backed
  // entries gate on the structure epoch even when the edge is unrelated.
  cache.closeness(model, g, 0, 3);
  g.add_relationship(5, 6, Relationship::kBusiness);
  d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 3); });
  EXPECT_EQ(d.misses, 1U);
  EXPECT_EQ(d.structure_misses, 1U);  // BFS redone
}

TEST(SocialStateCacheTest, UnreachableEntriesSurviveInteractionChurn) {
  SocialGraph g(4);
  g.add_relationship(0, 1, Relationship::kFriendship);
  // Node 3 is isolated: Omega_c(0,3) = 0 via the unreachable branch.
  ClosenessModel model;
  SocialStateCache cache;

  auto d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 3); });
  EXPECT_EQ(d.misses, 1U);
  EXPECT_TRUE(bits_equal(cache.closeness(model, g, 0, 3), 0.0));

  // Interaction churn cannot create reachability.
  g.record_interaction(0, 1, 5.0);
  d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 3); });
  EXPECT_EQ(d.hits, 1U);

  // A new edge can: the entry must die with the structure epoch.
  g.add_relationship(1, 3, Relationship::kFriendship);
  double fresh = 0.0;
  d = stats_delta(cache, [&] { fresh = cache.closeness(model, g, 0, 3); });
  EXPECT_EQ(d.misses, 1U);
  EXPECT_GT(fresh, 0.0);  // now reachable through 1 (common-friend branch)
  EXPECT_TRUE(bits_equal(fresh, model.closeness(g, 0, 3)));
}

TEST(SocialStateCacheTest, ClosenessKeysAreDirectional) {
  SocialGraph g(3);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.record_interaction(0, 1, 1.0);
  g.record_interaction(1, 0, 2.0);
  g.record_interaction(1, 2, 2.0);
  ClosenessModel model;
  SocialStateCache cache;

  cache.closeness(model, g, 0, 1);
  // Omega_c is not symmetric (Eq. 2 normalises by the rater's totals), so
  // the reverse orientation is its own entry and its own compute.
  auto d = stats_delta(cache, [&] { cache.closeness(model, g, 1, 0); });
  EXPECT_EQ(d.misses, 1U);
  EXPECT_TRUE(bits_equal(cache.closeness(model, g, 1, 0),
                         model.closeness(g, 1, 0)));
}

TEST(SocialStateCacheTest, SimilarityUsesCanonicalKeyAndProfileRevisions) {
  InterestProfiles profiles(3, 8);
  const reputation::InterestId a_ints[] = {1, 2, 5};
  const reputation::InterestId b_ints[] = {2, 5, 7};
  profiles.set_interests(0, a_ints);
  profiles.set_interests(1, b_ints);
  profiles.record_request(0, 2, 3.0);
  profiles.record_request(1, 2, 1.0);
  profiles.record_request(1, 5, 2.0);
  SocialStateCache cache;

  for (bool weighted : {false, true}) {
    SocialStateCache fresh_cache;
    double v01 = 0.0, v10 = 0.0;
    auto d = stats_delta(fresh_cache, [&] {
      v01 = fresh_cache.similarity(profiles, 0, 1, weighted);
    });
    EXPECT_EQ(d.misses, 1U);
    // Symmetric function, canonical key: the reverse orientation hits.
    d = stats_delta(fresh_cache, [&] {
      v10 = fresh_cache.similarity(profiles, 1, 0, weighted);
    });
    EXPECT_EQ(d.hits, 1U);
    EXPECT_TRUE(bits_equal(v01, v10));
    const double expected = weighted ? profiles.weighted_similarity(0, 1)
                                     : profiles.similarity(0, 1);
    EXPECT_TRUE(bits_equal(v01, expected));

    // Either endpoint's profile revision invalidates.
    profiles.record_request(0, 5, 1.0);
    double fresh = 0.0;
    d = stats_delta(fresh_cache, [&] {
      fresh = fresh_cache.similarity(profiles, 0, 1, weighted);
    });
    EXPECT_EQ(d.misses, 1U);
    EXPECT_EQ(d.invalidations, 1U);
    const double recomputed = weighted ? profiles.weighted_similarity(0, 1)
                                       : profiles.similarity(0, 1);
    EXPECT_TRUE(bits_equal(fresh, recomputed));
  }
}

TEST(SocialStateCacheTest, WitnessOverflowDegradesToFullEpochStamp) {
  // 0 and 1 share kMaxWitnesses common friends (witness set would need
  // kMaxWitnesses + 2 entries), so the entry falls back to a conservative
  // full-epoch stamp: ANY mutation anywhere invalidates it.
  const std::size_t hub = SocialStateCache::kMaxWitnesses;
  SocialGraph g(hub + 3);
  for (std::size_t k = 2; k < hub + 2; ++k) {
    g.add_relationship(0, static_cast<graph::NodeId>(k),
                       Relationship::kFriendship);
    g.add_relationship(1, static_cast<graph::NodeId>(k),
                       Relationship::kFriendship);
  }
  g.record_interaction(0, 2, 1.0);
  g.record_interaction(2, 1, 1.0);
  ClosenessModel model;
  SocialStateCache cache;

  cache.closeness(model, g, 0, 1);
  auto d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.hits, 1U);

  // A node uninvolved in the pair's neighbourhood mutates: a precise
  // witness set would survive this, the epoch stamp cannot.
  g.record_interaction(static_cast<graph::NodeId>(hub + 2), 0, 1.0);
  d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.misses, 1U);
  EXPECT_TRUE(bits_equal(cache.closeness(model, g, 0, 1),
                         model.closeness(g, 0, 1)));
}

TEST(SocialStateCacheTest, InvalidateNodeErasesEveryMention) {
  SocialGraph g(6);
  g.add_relationship(0, 2, Relationship::kFriendship);
  g.add_relationship(1, 2, Relationship::kFriendship);
  g.add_relationship(3, 4, Relationship::kFriendship);
  g.record_interaction(0, 2, 1.0);
  g.record_interaction(3, 4, 1.0);
  ClosenessModel model;
  SocialStateCache cache;

  cache.closeness(model, g, 0, 1);  // FoF entry witnessing common friend 2
  cache.closeness(model, g, 3, 4);  // adjacent entry, unrelated to 2
  const std::size_t before = cache.size();
  EXPECT_EQ(before, 2U);

  auto d = stats_delta(cache, [&] { cache.invalidate_node(2); });
  EXPECT_GT(d.invalidations, 0U);
  EXPECT_LT(cache.size(), before);

  // The unrelated entry survives; the entry through node 2 is gone even
  // though no revision changed.
  d = stats_delta(cache, [&] { cache.closeness(model, g, 3, 4); });
  EXPECT_EQ(d.hits, 1U);
  d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.misses, 1U);

  cache.clear();
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.structure_size(), 0U);
}

/// A 12-node substrate whose all-pairs lookups store every entry kind:
/// adjacent (0-1), friend-of-friend (2-4 via 3), bottleneck paths along
/// the chain 5-6-7-8, unreachable pairs towards the isolated 9-10 edge
/// and node 11, plus similarity entries from overlapping profiles.
struct MixedSubstrate {
  SocialGraph g{12};
  InterestProfiles profiles{12, 8};

  MixedSubstrate() {
    g.add_relationship(0, 1, Relationship::kFriendship);
    g.add_relationship(2, 3, Relationship::kFriendship);
    g.add_relationship(3, 4, Relationship::kColleague);
    g.add_relationship(5, 6, Relationship::kFriendship);
    g.add_relationship(6, 7, Relationship::kFriendship);
    g.add_relationship(7, 8, Relationship::kFriendship);
    g.add_relationship(9, 10, Relationship::kFriendship);
    g.record_interaction(0, 1, 2.0);
    g.record_interaction(2, 3, 1.0);
    g.record_interaction(3, 4, 3.0);
    g.record_interaction(5, 6, 1.0);
    g.record_interaction(6, 7, 2.0);
    g.record_interaction(7, 8, 1.0);
    for (graph::NodeId n = 0; n < 12; ++n) {
      const reputation::InterestId ints[] = {
          static_cast<reputation::InterestId>(n % 8),
          static_cast<reputation::InterestId>((n + 3) % 8)};
      profiles.set_interests(n, ints);
    }
  }

  void populate(SocialStateCache& cache) const {
    ClosenessModel model;
    for (graph::NodeId i = 0; i < 12; ++i) {
      for (graph::NodeId j = 0; j < 12; ++j) {
        if (i == j) continue;
        cache.closeness(model, g, i, j);
        cache.similarity(profiles, i, j, false);
      }
    }
  }
};

void expect_stats_equal(const SocialStateCache::StatsSnapshot& a,
                        const SocialStateCache::StatsSnapshot& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.structure_hits, b.structure_hits);
  EXPECT_EQ(a.structure_misses, b.structure_misses);
  EXPECT_EQ(a.evictions, b.evictions);
}

TEST(SocialStateCacheTest, InvalidateNodesEqualsPerNodePasses) {
  // One batched pass must erase exactly the union of per-node passes:
  // the same entries, the same invalidation count and the same erase-log
  // keys. The batch carries a duplicate (6) and two nodes one path entry
  // names (6 and 7 both lie on 5-6-7-8).
  const MixedSubstrate s;
  SocialStateCache per_node;
  SocialStateCache batched;
  per_node.enable_dirty_tracking();
  batched.enable_dirty_tracking();
  s.populate(per_node);
  s.populate(batched);
  ASSERT_EQ(per_node.size(), batched.size());

  const std::vector<graph::NodeId> batch = {6, 3, 7, 6, 10};
  for (graph::NodeId n : batch) per_node.invalidate_node(n);
  batched.invalidate_nodes(batch);

  EXPECT_GT(batched.stats().invalidations, 0U);
  EXPECT_GT(batched.size(), 0U);  // entries naming no batch node survive
  EXPECT_EQ(per_node.size(), batched.size());
  EXPECT_EQ(per_node.structure_size(), batched.structure_size());
  expect_stats_equal(per_node.stats(), batched.stats());
  const auto want = per_node.collect_dirty(s.g, s.profiles);
  const auto got = batched.collect_dirty(s.g, s.profiles);
  EXPECT_FALSE(got.closeness.empty());
  EXPECT_FALSE(got.similarity.empty());
  EXPECT_EQ(want.closeness, got.closeness);
  EXPECT_EQ(want.similarity, got.similarity);

  // Mentions inside an entry count, not just its key: the common set of
  // (2,4) names 3 and the path 5-6-7-8 names 6 and 7, so both re-derive,
  // while the adjacent (0,1) entry names no batch node and is served.
  ClosenessModel model;
  auto d = stats_delta(batched, [&] { batched.closeness(model, s.g, 2, 4); });
  EXPECT_EQ(d.structure_misses, 1U);
  d = stats_delta(batched, [&] { batched.closeness(model, s.g, 5, 8); });
  EXPECT_EQ(d.structure_misses, 1U);
  d = stats_delta(batched, [&] { batched.closeness(model, s.g, 0, 1); });
  EXPECT_EQ(d.hits, 1U);
}

TEST(SocialStateCacheTest, InvalidateNodesIgnoresIdsNoEntryMentions) {
  // A hostile id costs nothing and erases nothing: membership is bounded
  // by the batch, not by the id value.
  const MixedSubstrate s;
  SocialStateCache cache;
  cache.enable_dirty_tracking();
  s.populate(cache);
  const std::size_t size = cache.size();
  const std::size_t structure = cache.structure_size();
  const auto stats = cache.stats();
  ASSERT_GT(size, 0U);

  const std::vector<graph::NodeId> hostile = {0xFFFFFFFFU};
  EXPECT_NO_THROW(cache.invalidate_nodes(hostile));
  EXPECT_NO_THROW(cache.invalidate_nodes({}));
  EXPECT_EQ(cache.size(), size);
  EXPECT_EQ(cache.structure_size(), structure);
  expect_stats_equal(cache.stats(), stats);
  const auto dirty = cache.collect_dirty(s.g, s.profiles);
  EXPECT_TRUE(dirty.closeness.empty());
  EXPECT_TRUE(dirty.similarity.empty());
}

TEST(SocialStateCacheTest, EvictionSweepDropsOnlyUntouchedValueEntries) {
  SocialGraph g(5);
  g.add_relationship(0, 2, Relationship::kFriendship);
  g.add_relationship(1, 2, Relationship::kFriendship);
  g.add_relationship(3, 4, Relationship::kFriendship);
  g.record_interaction(0, 2, 1.0);
  g.record_interaction(3, 4, 2.0);
  InterestProfiles profiles(5, 8);
  const reputation::InterestId a_ints[] = {1, 2, 5};
  const reputation::InterestId b_ints[] = {2, 5, 7};
  profiles.set_interests(0, a_ints);
  profiles.set_interests(1, b_ints);
  ClosenessModel model;
  SocialStateCache cache;

  const double fof = cache.closeness(model, g, 0, 1);    // FoF via 2
  const double adj = cache.closeness(model, g, 3, 4);    // adjacent
  const double sim = cache.similarity(profiles, 0, 1, false);
  EXPECT_EQ(cache.size(), 3U);
  const std::size_t structure_before = cache.structure_size();
  EXPECT_GT(structure_before, 0U);

  // First interval: every entry was touched at generation 0, age is now 1,
  // not > 1 — nothing is evictable yet. Keep (3,4) warm by re-reading it.
  cache.begin_interval(1);
  EXPECT_EQ(cache.size(), 3U);
  EXPECT_EQ(cache.stats().evictions, 0U);
  auto d = stats_delta(cache, [&] { cache.closeness(model, g, 3, 4); });
  EXPECT_EQ(d.hits, 1U);

  // Second interval: the FoF and similarity entries have gone two
  // generations untouched and are swept; the re-read adjacent entry and
  // the whole structure layer survive.
  cache.begin_interval(1);
  EXPECT_EQ(cache.size(), 1U);
  EXPECT_EQ(cache.stats().evictions, 2U);
  EXPECT_EQ(cache.structure_size(), structure_before);
  d = stats_delta(cache, [&] { cache.closeness(model, g, 3, 4); });
  EXPECT_EQ(d.hits, 1U);

  // Warm bit-identity after the sweep: no graph/profile state changed, so
  // recomputing the evicted entries takes the identical code path and must
  // reproduce the identical doubles (and re-memoise them as fresh misses).
  double fof2 = 0.0, sim2 = 0.0;
  d = stats_delta(cache, [&] { fof2 = cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.misses, 1U);
  EXPECT_EQ(d.invalidations, 0U);  // evicted, not stale
  EXPECT_TRUE(bits_equal(fof2, fof));
  d = stats_delta(cache, [&] { sim2 = cache.similarity(profiles, 0, 1, false); });
  EXPECT_EQ(d.misses, 1U);
  EXPECT_TRUE(bits_equal(sim2, sim));
  EXPECT_TRUE(bits_equal(cache.closeness(model, g, 3, 4), adj));
}

TEST(SocialStateCacheTest, EvictionDisabledByDefaultConfigValue) {
  SocialGraph g(3);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.record_interaction(0, 1, 1.0);
  ClosenessModel model;
  SocialStateCache cache;

  cache.closeness(model, g, 0, 1);
  EXPECT_EQ(cache.size(), 1U);

  // evict_after == 0 (the SocialTrustConfig default) still advances the
  // generation but must never sweep, no matter how long entries sit idle.
  for (int i = 0; i < 10; ++i) cache.begin_interval(0);
  EXPECT_EQ(cache.size(), 1U);
  EXPECT_EQ(cache.stats().evictions, 0U);
  auto d = stats_delta(cache, [&] { cache.closeness(model, g, 0, 1); });
  EXPECT_EQ(d.hits, 1U);
}

TEST(RevisionTracker, DeltaFlagsExactlyTheChangedNodes) {
  SocialGraph g(8);
  InterestProfiles profiles(8, 4);
  core::SocialStateCache::RevisionTracker tracker;

  // First collect: epochs move from their sentinels, everything sweeps.
  const auto& first = tracker.collect(g, profiles);
  EXPECT_TRUE(first.sweep_closeness);
  EXPECT_TRUE(first.sweep_similarity);

  // Quiescent interval: both gates stay shut.
  const auto& idle = tracker.collect(g, profiles);
  EXPECT_FALSE(idle.sweep_closeness);
  EXPECT_FALSE(idle.sweep_similarity);

  // One edge, one profile edit: only the touched nodes flag.
  g.add_relationship(2, 5, Relationship::kFriendship);
  profiles.record_request(3, 1);
  const auto& delta = tracker.collect(g, profiles);
  EXPECT_TRUE(delta.sweep_closeness);
  EXPECT_TRUE(delta.sweep_similarity);
  for (std::size_t v = 0; v < 8; ++v) {
    EXPECT_EQ(delta.graph_changed[v] != 0, v == 2 || v == 5) << v;
    EXPECT_EQ(delta.profile_changed[v] != 0, v == 3) << v;
  }
}

// --- 2. cold-vs-warm property test ------------------------------------------

struct PluginCapture {
  SocialTrustPlugin* plugin = nullptr;
};

/// Forwarding wrapper that wipes the plugin's persistent cache before
/// every interval — the old per-interval-memo behaviour. Cold-vs-warm
/// equality is exactly the claim that the cache is a pure optimisation.
class ColdCacheSystem final : public reputation::ReputationSystem {
 public:
  explicit ColdCacheSystem(std::unique_ptr<SocialTrustPlugin> plugin)
      : plugin_(std::move(plugin)) {}
  std::string_view name() const noexcept override { return plugin_->name(); }
  std::size_t size() const noexcept override { return plugin_->size(); }
  void update(std::span<const Rating> cycle_ratings) override {
    plugin_->social_cache().clear();
    plugin_->update(cycle_ratings);
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
};

sim::SystemFactory make_factory(core::SocialTrustConfig cfg,
                                PluginCapture& capture, bool cold) {
  return [cfg, &capture, cold](const graph::SocialGraph& graph,
                               const InterestProfiles& profiles,
                               const std::vector<sim::NodeId>& pretrusted,
                               std::size_t n)
             -> std::unique_ptr<reputation::ReputationSystem> {
    auto inner = std::make_unique<reputation::PaperEigenTrust>(
        n, pretrusted, reputation::PaperEigenTrustConfig{});
    auto plugin = std::make_unique<SocialTrustPlugin>(std::move(inner), graph,
                                                      profiles, cfg);
    capture.plugin = plugin.get();
    if (cold) return std::make_unique<ColdCacheSystem>(std::move(plugin));
    return plugin;
  };
}

/// Scaled-down Section 5.1 network, as in parallel_update_test.cpp.
sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.node_count = 72;
  cfg.pretrusted_count = 5;
  cfg.colluder_count = 16;
  cfg.query_cycles_per_cycle = 8;
  cfg.simulation_cycles = 3;
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

struct Snapshot {
  std::vector<Rating> adjusted;
  core::AdjustmentReport report;
  std::vector<double> reputations;
  SocialStateCache::StatsSnapshot cache_stats;
};

Snapshot run_once(const std::string& model, std::uint64_t seed,
                  std::size_t threads, bool cold) {
  core::SocialTrustConfig cfg;
  cfg.threads = threads;
  PluginCapture capture;
  sim::Simulator simulator(small_config(),
                           make_factory(cfg, capture, cold),
                           make_strategy(model), seed);
  simulator.run();
  Snapshot snap;
  auto adjusted = capture.plugin->last_adjusted();
  snap.adjusted.assign(adjusted.begin(), adjusted.end());
  snap.report = capture.plugin->last_report();
  auto reps = capture.plugin->reputations();
  snap.reputations.assign(reps.begin(), reps.end());
  snap.cache_stats = capture.plugin->social_cache().stats();
  return snap;
}

void expect_identical(const Snapshot& cold, const Snapshot& warm,
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

class ColdVsWarmEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ColdVsWarmEquivalence, BitIdenticalAcrossIntervalsAndThreads) {
  const std::string model = GetParam();
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    Snapshot cold = run_once(model, seed, 1, /*cold=*/true);
    for (std::size_t threads : {1UL, 2UL, 4UL}) {
      Snapshot warm = run_once(model, seed, threads, /*cold=*/false);
      // The warm run must actually have reused entries across intervals,
      // or this compares two cold runs and proves nothing.
      EXPECT_GT(warm.cache_stats.hits, 0U)
          << model << " seed=" << seed << " threads=" << threads;
      expect_identical(cold, warm,
                       model + " seed=" + std::to_string(seed) +
                           " threads=" + std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CollusionModels, ColdVsWarmEquivalence,
                         ::testing::Values("none", "PCM", "MCM", "MMM"));

// --- 3. whitewashing regression ---------------------------------------------

/// Directly driven plugin pair (no simulator): one warm, one cold, fed the
/// identical interval sequence over the identical shared social state,
/// with a whitewash event in the middle. Any stale entry the warm cache
/// serves after the whitewash diverges the two and fails the bit compare.
TEST(IncrementalWhitewashing, ForgetNodeInvalidatesStaleEntries) {
  stats::Rng rng(1234);
  SocialGraph g = graph::watts_strogatz(48, 6, 0.2, rng);
  InterestProfiles profiles(48, 16);
  for (graph::NodeId n = 0; n < 48; ++n) {
    const reputation::InterestId ints[] = {
        static_cast<reputation::InterestId>(n % 16),
        static_cast<reputation::InterestId>((n + 5) % 16)};
    profiles.set_interests(n, ints);
  }

  core::SocialTrustConfig cfg;
  cfg.threads = 1;
  auto make_plugin = [&] {
    return std::make_unique<SocialTrustPlugin>(
        std::make_unique<reputation::PaperEigenTrust>(
            48, std::vector<reputation::NodeId>{0, 1},
            reputation::PaperEigenTrustConfig{}),
        g, profiles, cfg);
  };
  auto warm = make_plugin();
  auto cold = make_plugin();

  // Deterministic interval streams; every rating also mutates the social
  // state the way Simulator::submit_rating does.
  auto make_interval = [&](std::uint64_t seed) {
    stats::Rng interval_rng(seed);
    std::vector<Rating> ratings;
    for (std::size_t q = 0; q < 160; ++q) {
      const auto rater = static_cast<reputation::NodeId>(
          interval_rng.index(48));
      auto ratee = static_cast<reputation::NodeId>(interval_rng.index(48));
      if (ratee == rater) ratee = (ratee + 1) % 48;
      const double value = interval_rng.bernoulli(0.8) ? 1.0 : -1.0;
      ratings.push_back(Rating{rater, ratee, value, 0, 0,
                               static_cast<reputation::InterestId>(
                                   interval_rng.index(16))});
      g.record_interaction(rater, ratee);
      profiles.record_request(rater, ratings.back().interest);
    }
    return ratings;
  };

  auto run_interval = [&](const std::vector<Rating>& ratings) {
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
  };

  run_interval(make_interval(1));
  run_interval(make_interval(2));
  ASSERT_GT(warm->social_cache().stats().hits, 0U);

  // Whitewash node 7, exactly as Simulator::whitewash does it.
  const reputation::NodeId w = 7;
  const std::size_t entries_before = warm->social_cache().size();
  const auto inval_before = warm->social_cache().stats().invalidations;
  warm->forget_node(w);
  cold->forget_node(w);
  // forget_node alone must already have dropped every cached entry
  // mentioning the node — before any graph mutation bumps a revision.
  EXPECT_LT(warm->social_cache().size(), entries_before);
  EXPECT_GT(warm->social_cache().stats().invalidations, inval_before);
  g.clear_node(w);
  profiles.clear_requests(w);

  // The discarded identity re-joins and gets rated again: warm results
  // must match a from-scratch recompute, not the pre-whitewash state.
  run_interval(make_interval(3));
  run_interval(make_interval(4));
}

/// forget_node only queues the cache invalidation. update() must drain
/// the queue before its eviction sweep and before any lookup, or an entry
/// naming the forgotten node would be evicted (or served) instead of
/// invalidated. The reference is a twin whose queue is drained early
/// through the social_cache() accessor: every cache total must match.
TEST(IncrementalWhitewashing, UpdateDrainsQueuedForgetsBeforeTouchingCache) {
  stats::Rng rng(77);
  SocialGraph g = graph::watts_strogatz(16, 4, 0.2, rng);
  InterestProfiles profiles(16, 8);
  for (graph::NodeId n = 0; n < 16; ++n) {
    const reputation::InterestId ints[] = {
        static_cast<reputation::InterestId>(n % 8),
        static_cast<reputation::InterestId>((n + 3) % 8)};
    profiles.set_interests(n, ints);
  }
  core::SocialTrustConfig cfg;
  cfg.threads = 1;
  cfg.cache_evict_intervals = 1;  // idle for two intervals = evicted
  auto make_plugin = [&] {
    return std::make_unique<SocialTrustPlugin>(
        std::make_unique<reputation::PaperEigenTrust>(
            16, std::vector<reputation::NodeId>{0, 1},
            reputation::PaperEigenTrustConfig{}),
        g, profiles, cfg);
  };
  auto drained_in_update = make_plugin();
  auto drained_early = make_plugin();

  // Node 9 trades ratings with 10-12 in the first interval only; the
  // second interval's raters (2-5) never rated it, so its entries sit
  // idle and are due for eviction in the third — as is the entry of the
  // unrelated pair 13 -> 14, which the sweep must evict on both sides.
  const reputation::NodeId w = 9;
  std::vector<Rating> with_w = {Rating{13, 14, 1.0, 0, 0, 1}};
  std::vector<Rating> without_w;
  for (reputation::NodeId x = 10; x <= 12; ++x) {
    with_w.push_back(Rating{w, x, 1.0, 0, 0, 1});
    with_w.push_back(Rating{x, w, 1.0, 0, 0, 1});
  }
  for (reputation::NodeId r = 2; r <= 5; ++r) {
    without_w.push_back(Rating{r, static_cast<reputation::NodeId>(r + 1),
                               1.0, 0, 0, 2});
  }
  for (auto* p : {drained_in_update.get(), drained_early.get()}) {
    p->update(with_w);
    p->update(without_w);
  }
  const auto before = drained_early->social_cache().stats();
  drained_in_update->forget_node(w);
  drained_early->forget_node(w);
  // The accessor drains the twin's queue here, outside any update().
  EXPECT_GT(drained_early->social_cache().stats().invalidations,
            before.invalidations);
  drained_in_update->update(with_w);
  drained_early->update(with_w);

  const auto got = drained_in_update->social_cache().stats();
  const auto want = drained_early->social_cache().stats();
  EXPECT_GT(want.evictions, 0U);  // the sweep had expired entries to take
  expect_stats_equal(got, want);
  EXPECT_EQ(drained_in_update->social_cache().size(),
            drained_early->social_cache().size());

  // reset() drains before its wholesale drop, so queued erasures still
  // count as invalidations.
  drained_in_update->forget_node(10);
  drained_early->forget_node(10);
  const auto before_reset = drained_early->social_cache().stats();
  EXPECT_GT(before_reset.invalidations, want.invalidations);
  drained_in_update->reset();
  drained_early->reset();
  EXPECT_EQ(drained_in_update->social_cache().stats().invalidations,
            before_reset.invalidations);
}

// --- 4. full-vs-dirty differential gate (DESIGN.md §14) ----------------------

/// One update interval's complete observable output plus the dirty
/// scheduler's self-report — enough to bit-compare a kDirtyPairs run
/// against the kFullWalk oracle at every interval, not just at the end.
struct IntervalRecord {
  std::vector<Rating> adjusted;
  core::AdjustmentReport report;
  std::vector<double> reputations;
  SocialTrustPlugin::DirtyStats dirty;
};

/// Forwarding wrapper that snapshots the plugin's outputs after every
/// update() so a simulator run yields a per-interval trace instead of
/// only its final state.
class RecordingSystem final : public reputation::ReputationSystem {
 public:
  RecordingSystem(std::unique_ptr<SocialTrustPlugin> plugin,
                  std::vector<IntervalRecord>& trace)
      : plugin_(std::move(plugin)), trace_(trace) {}
  std::string_view name() const noexcept override { return plugin_->name(); }
  std::size_t size() const noexcept override { return plugin_->size(); }
  void update(std::span<const Rating> cycle_ratings) override {
    plugin_->update(cycle_ratings);
    IntervalRecord rec;
    auto adjusted = plugin_->last_adjusted();
    rec.adjusted.assign(adjusted.begin(), adjusted.end());
    rec.report = plugin_->last_report();
    auto reps = plugin_->reputations();
    rec.reputations.assign(reps.begin(), reps.end());
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
  std::vector<IntervalRecord>& trace_;
};

void expect_record_identical(const IntervalRecord& oracle,
                             const IntervalRecord& dirty,
                             const std::string& label) {
  SCOPED_TRACE(label);

  ASSERT_EQ(oracle.adjusted.size(), dirty.adjusted.size());
  for (std::size_t i = 0; i < oracle.adjusted.size(); ++i) {
    EXPECT_EQ(oracle.adjusted[i].rater, dirty.adjusted[i].rater) << i;
    EXPECT_EQ(oracle.adjusted[i].ratee, dirty.adjusted[i].ratee) << i;
    EXPECT_TRUE(
        bits_equal(oracle.adjusted[i].value, dirty.adjusted[i].value))
        << "rating " << i;
  }

  const core::AdjustmentReport& a = oracle.report;
  const core::AdjustmentReport& b = dirty.report;
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

  ASSERT_EQ(oracle.reputations.size(), dirty.reputations.size());
  for (std::size_t v = 0; v < oracle.reputations.size(); ++v) {
    EXPECT_TRUE(bits_equal(oracle.reputations[v], dirty.reputations[v]))
        << "node " << v;
  }
}

/// Scaled-down network run long enough for ≥20 update intervals.
sim::SimConfig differential_config() {
  sim::SimConfig cfg;
  cfg.node_count = 64;
  cfg.pretrusted_count = 5;
  cfg.colluder_count = 14;
  cfg.query_cycles_per_cycle = 6;
  cfg.simulation_cycles = 20;
  return cfg;
}

std::vector<IntervalRecord> run_traced(const std::string& model,
                                       std::uint64_t seed,
                                       std::size_t threads,
                                       core::UpdateSchedule schedule) {
  core::SocialTrustConfig cfg;
  cfg.threads = threads;
  cfg.schedule = schedule;
  std::vector<IntervalRecord> trace;
  auto factory = [cfg, &trace](const graph::SocialGraph& graph,
                               const InterestProfiles& profiles,
                               const std::vector<sim::NodeId>& pretrusted,
                               std::size_t n)
      -> std::unique_ptr<reputation::ReputationSystem> {
    auto inner = std::make_unique<reputation::PaperEigenTrust>(
        n, pretrusted, reputation::PaperEigenTrustConfig{});
    auto plugin = std::make_unique<SocialTrustPlugin>(std::move(inner), graph,
                                                      profiles, cfg);
    return std::make_unique<RecordingSystem>(std::move(plugin), trace);
  };
  sim::Simulator simulator(differential_config(), factory,
                           make_strategy(model), seed);
  simulator.run();
  return trace;
}

/// Simulator-driven differential: dirty scheduler vs full-walk oracle,
/// bit-compared at EVERY interval across collusion models, seeds, and
/// thread counts. The simulator records an interaction for every rating,
/// so every active rater's revision bumps every interval and the worklist
/// covers essentially all active pairs — this gate exercises the
/// all-dirty extreme (collect, sweep, recompute, writeback); the
/// sparse-churn carry path is pinned by the direct-drive test below and
/// by dirty_pair_property_test.cpp.
class FullVsDirtyEquivalence : public ::testing::TestWithParam<const char*> {
};

TEST_P(FullVsDirtyEquivalence, BitIdenticalEveryIntervalAcrossThreads) {
  const std::string model = GetParam();
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    const auto oracle =
        run_traced(model, seed, 1, core::UpdateSchedule::kFullWalk);
    ASSERT_GE(oracle.size(), 20U);
    for (std::size_t threads : {1UL, 2UL, 4UL}) {
      const auto dirty =
          run_traced(model, seed, threads, core::UpdateSchedule::kDirtyPairs);
      ASSERT_EQ(oracle.size(), dirty.size());
      for (std::size_t t = 0; t < oracle.size(); ++t) {
        expect_record_identical(
            oracle[t], dirty[t],
            model + " seed=" + std::to_string(seed) +
                " threads=" + std::to_string(threads) +
                " interval=" + std::to_string(t));
        // The oracle recomputes every active pair and carries none.
        EXPECT_EQ(oracle[t].dirty.pairs_carried, 0U);
        EXPECT_EQ(oracle[t].dirty.pairs_dirty, oracle[t].report.pairs_total);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CollusionModels, FullVsDirtyEquivalence,
                         ::testing::Values("none", "PCM", "MCM", "MMM"));

/// Direct-drive sparse-churn differential: a fixed pool of rating pairs
/// re-rates every interval over a mostly-stable social substrate, so most
/// pair coefficients are witness-clean across intervals and must be
/// served from carried state — the path the simulator gate cannot reach.
/// A full-walk plugin over the same shared state is the per-interval
/// oracle; a mid-sequence whitewash checks carried state dies with the
/// identity.
TEST(FullVsDirtyDirect, SparseChurnCarriesPairsBitIdentically) {
  constexpr std::size_t kNodes = 64;
  stats::Rng rng(977);
  SocialGraph g = graph::watts_strogatz(kNodes, 6, 0.15, rng);
  InterestProfiles profiles(kNodes, 16);
  for (graph::NodeId n = 0; n < kNodes; ++n) {
    const reputation::InterestId ints[] = {
        static_cast<reputation::InterestId>(n % 16),
        static_cast<reputation::InterestId>((n + 3) % 16),
        static_cast<reputation::InterestId>((n + 9) % 16)};
    profiles.set_interests(n, ints);
  }
  // Seed interactions and requests once so closeness/similarity are
  // non-trivial before the rating stream starts.
  for (graph::NodeId n = 0; n < kNodes; ++n) {
    // Copy the row: record_interaction may compact the graph, which
    // invalidates every neighbors() span.
    const auto row = g.neighbors(n);
    const std::vector<graph::NodeId> friends(row.begin(), row.end());
    for (graph::NodeId nb : friends) {
      g.record_interaction(n, nb, 1.0 + static_cast<double>((n + nb) % 3));
    }
    profiles.record_request(n, static_cast<reputation::InterestId>(n % 16),
                            2.0);
  }

  core::SocialTrustConfig oracle_cfg;
  oracle_cfg.threads = 2;
  oracle_cfg.schedule = core::UpdateSchedule::kFullWalk;
  core::SocialTrustConfig dirty_cfg = oracle_cfg;
  dirty_cfg.schedule = core::UpdateSchedule::kDirtyPairs;
  auto make_plugin = [&](const core::SocialTrustConfig& cfg) {
    return std::make_unique<SocialTrustPlugin>(
        std::make_unique<reputation::PaperEigenTrust>(
            kNodes, std::vector<reputation::NodeId>{0, 1},
            reputation::PaperEigenTrustConfig{}),
        g, profiles, cfg);
  };
  auto oracle = make_plugin(oracle_cfg);
  auto dirty = make_plugin(dirty_cfg);

  // Fixed rating pool: each node rates three rng-chosen partners, the
  // same pairs every interval. Re-rating an existing pair does not grow
  // the rated history, so per-rater aggregates may carry as well.
  struct Pair {
    reputation::NodeId rater, ratee;
  };
  std::vector<Pair> pool;
  for (reputation::NodeId r = 0; r < kNodes; ++r) {
    for (int k = 0; k < 3; ++k) {
      auto e = static_cast<reputation::NodeId>(rng.index(kNodes));
      if (e == r) e = (e + 1) % kNodes;
      pool.push_back(Pair{r, e});
    }
  }

  const reputation::NodeId w = 9;  // whitewashed mid-sequence (not pretrusted)
  std::size_t carried_total = 0;
  bool saw_fully_clean_interval = false;
  for (std::size_t t = 0; t < 24; ++t) {
    stats::Rng interval_rng(5000 + t);
    std::vector<Rating> ratings;
    ratings.reserve(pool.size());
    for (const Pair& p : pool) {
      ratings.push_back(Rating{
          p.rater, p.ratee, interval_rng.bernoulli(0.8) ? 1.0 : -1.0, 0, 0,
          static_cast<reputation::InterestId>(interval_rng.index(16))});
    }

    // Sparse churn (well under 10% of nodes per interval): occasional
    // interaction recordings, relationship edits, and profile requests.
    if (t % 4 == 2) {
      const auto a = static_cast<graph::NodeId>(interval_rng.index(kNodes));
      const auto b = static_cast<graph::NodeId>((a + 7) % kNodes);
      g.record_interaction(a, b, 1.0);
    }
    if (t % 6 == 3) {
      const auto a = static_cast<graph::NodeId>(interval_rng.index(kNodes));
      const auto b = static_cast<graph::NodeId>((a + 11) % kNodes);
      g.add_relationship(a, b, Relationship::kColleague);
    }
    if (t % 5 == 4) {
      profiles.record_request(
          static_cast<reputation::NodeId>(interval_rng.index(kNodes)),
          static_cast<reputation::InterestId>(interval_rng.index(16)), 1.0);
    }
    if (t == 12) {
      oracle->forget_node(w);
      dirty->forget_node(w);
      g.clear_node(w);
      profiles.clear_requests(w);
    }

    oracle->update(ratings);
    dirty->update(ratings);

    IntervalRecord oa, da;
    auto o_adj = oracle->last_adjusted();
    oa.adjusted.assign(o_adj.begin(), o_adj.end());
    oa.report = oracle->last_report();
    auto o_rep = oracle->reputations();
    oa.reputations.assign(o_rep.begin(), o_rep.end());
    auto d_adj = dirty->last_adjusted();
    da.adjusted.assign(d_adj.begin(), d_adj.end());
    da.report = dirty->last_report();
    auto d_rep = dirty->reputations();
    da.reputations.assign(d_rep.begin(), d_rep.end());
    expect_record_identical(oa, da, "interval " + std::to_string(t));

    const auto& stats = dirty->last_dirty_stats();
    EXPECT_EQ(stats.pairs_dirty + stats.pairs_carried,
              da.report.pairs_total);
    carried_total += stats.pairs_carried;
    if (t > 0 && stats.pairs_carried == da.report.pairs_total &&
        da.report.pairs_total > 0) {
      saw_fully_clean_interval = true;
    }
  }

  // The whole point: the dirty run must have genuinely carried pairs,
  // including at least one interval where NOTHING was recomputed.
  EXPECT_GT(carried_total, 0U);
  EXPECT_TRUE(saw_fully_clean_interval);
}

}  // namespace
}  // namespace st
