// Incremental social-state correctness suite (DESIGN.md §13).
//
// The SocialStateCache persists common-friend sets and shortest paths
// across update intervals and revalidates them against the graph's
// structure revisions; the contract is that a warm cache is a pure
// performance optimisation. Four layers of evidence:
//   1. unit tests on the cache itself — every lookup bit-equals a direct
//      ClosenessModel::closeness(), entries hit while their witnesses
//      hold and miss the moment one changes, and each witness is exactly
//      as precise as DESIGN.md §13 claims (a common set survives all
//      interaction churn, a path spares its sink, an unreachable record
//      gates on edge additions alone, path keys are directional);
//   2. a cold-vs-warm differential gate — full simulations where one
//      plugin keeps its cache across intervals and a second has it wiped
//      before every update() must produce bit-identical adjusted ratings,
//      reports, flagged pairs, and downstream reputations at EVERY
//      interval, over 4 collusion models × 3 seeds × threads {1, 2, 4} ×
//      20 intervals; simulator runs of the same shape also pin the work
//      report perfbench reads (every active pair recomputed, nothing
//      carried);
//   3. a whitewashing regression — forget_node must drop every cached
//      entry mentioning the discarded identity (queued, then erased in
//      one batched pass that must equal per-node passes and must run
//      before update() touches the cache), and a warm plugin driven
//      across a whitewash event must stay bit-identical to a cold one;
//   4. a from-scratch oracle — one interval recomputed without the cache
//      or the rater walk, straight from the graph, the profiles and each
//      rater's cumulative rated set, for every baseline source and
//      thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <set>
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

TEST(SocialStateCacheTest, FofEntrySurvivesRateeInteractionChurn) {
  // 0 and 1 are not adjacent and share the common friend 2; 5 is a friend
  // of 1 only and 6 a friend of 0 only.
  SocialGraph g(7);
  g.add_relationship(0, 2, Relationship::kFriendship);
  g.add_relationship(1, 2, Relationship::kColleague);
  g.add_relationship(1, 5, Relationship::kFriendship);
  g.add_relationship(0, 6, Relationship::kFriendship);
  g.record_interaction(0, 2, 2.0);
  g.record_interaction(2, 1, 4.0);
  g.record_interaction(2, 0, 1.0);
  g.record_interaction(0, 5, 1.0);
  g.record_interaction(5, 1, 3.0);
  g.record_interaction(0, 6, 2.0);
  g.record_interaction(6, 1, 1.0);
  ClosenessModel model;
  SocialStateCache cache;

  auto d = checked_lookup(cache, model, g, 0, 1);
  EXPECT_EQ(d.structure_misses, 1U);  // the common-friend set
  EXPECT_EQ(cache.size(), 1U);
  d = checked_lookup(cache, model, g, 0, 1);
  EXPECT_EQ(d.structure_hits, 1U);

  // Interaction churn on the rater, the ratee and the common friend moves
  // Omega_c but never the set: the set is served, the value recomputed.
  g.record_interaction(0, 3, 7.0);
  g.record_interaction(1, 4, 1.0);
  g.record_interaction(2, 4, 1.0);
  d = checked_lookup(cache, model, g, 0, 1);
  EXPECT_EQ(d.structure_hits, 1U);
  EXPECT_EQ(d.structure_misses, 0U);

  // The set is symmetric: the reverse orientation reads the same
  // canonical (min, max) entry.
  d = checked_lookup(cache, model, g, 1, 0);
  EXPECT_EQ(d.structure_hits, 1U);

  // 0 befriends 5, 1's friend: only 0 (the lower endpoint) and 5 are
  // bumped, and 5 joins the set. Serving {2} would drop its Eq. 3 term.
  g.add_relationship(0, 5, Relationship::kFriendship);
  d = checked_lookup(cache, model, g, 0, 1);
  EXPECT_EQ(d.structure_misses, 1U);
  EXPECT_EQ(d.invalidations, 1U);

  // 1 befriends 6, 0's friend: only 1 (the upper endpoint) and 6 are
  // bumped, and 6 joins the set.
  g.add_relationship(1, 6, Relationship::kFriendship);
  d = checked_lookup(cache, model, g, 0, 1);
  EXPECT_EQ(d.structure_misses, 1U);
  EXPECT_EQ(d.invalidations, 1U);
}

TEST(SocialStateCacheTest, PathEntriesGateOnStructureAndSpareTheSink) {
  // 0 -> 3 has no common friend. Two shortest paths: 0-1-2-3 (lex-min,
  // bottleneck 1/3 of the friendship mass) and 0-4-5-3 (2/3). 3-6 is an
  // extra edge on the sink.
  SocialGraph g(7);
  befriend(g, {{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 3}, {3, 6}});
  g.record_interaction(0, 1, 1.0);
  g.record_interaction(1, 2, 2.0);
  g.record_interaction(2, 3, 3.0);
  g.record_interaction(0, 4, 2.0);
  g.record_interaction(4, 5, 1.0);
  g.record_interaction(5, 3, 2.0);
  ClosenessModel model;
  SocialStateCache cache;

  auto d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_misses, 2U);  // the (empty) common set + the path
  d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_hits, 2U);

  // Interaction churn on the source, an interior node and the sink
  // changes the Eq. 4 terms, never the path: both entries are served and
  // the value is recomputed.
  const double before_churn = cache.closeness(model, g, 0, 3);
  g.record_interaction(0, 6, 1.0);
  g.record_interaction(1, 0, 1.0);
  g.record_interaction(3, 0, 9.0);
  d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_hits, 2U);
  EXPECT_FALSE(bits_equal(cache.closeness(model, g, 0, 3), before_churn));

  // A structural change at the sink alone cannot alter the path (every
  // path edge also bumps a non-sink node). The common set, witnessed by
  // both endpoints, re-derives; the path is served.
  ASSERT_TRUE(g.remove_relationship(3, 6, Relationship::kFriendship));
  d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_misses, 1U);
  EXPECT_EQ(d.structure_hits, 1U);

  // Removing an interior edge adds no adjacency, so the addition epoch
  // holds; the interior nodes' structure revisions must catch it. The
  // stale path would read the missing edge 1-2 as closeness 0.
  ASSERT_TRUE(g.remove_relationship(1, 2, Relationship::kFriendship));
  d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_hits, 1U);  // the common set
  EXPECT_EQ(d.structure_misses, 1U);
  EXPECT_EQ(d.invalidations, 1U);
  EXPECT_GT(cache.closeness(model, g, 0, 3), 0.0);  // now via 0-4-5-3

  // A new edge far from the path can open a shorter one, so path entries
  // gate on the edge-addition epoch (not the structure epoch, which
  // removals bump too). Chain 0-1-2-3-4 plus pendants 0-5 and 4-6: adding
  // 5-6 bumps only 5 and 6, off the old path, and opens 0-5-6-4.
  SocialGraph h(7);
  befriend(h, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}, {4, 6}});
  h.record_interaction(0, 1, 1.0);
  h.record_interaction(1, 2, 1.0);
  h.record_interaction(2, 3, 1.0);
  h.record_interaction(3, 4, 1.0);
  h.record_interaction(0, 5, 3.0);
  h.record_interaction(5, 6, 2.0);
  h.record_interaction(6, 4, 1.0);
  SocialStateCache chain_cache;
  checked_lookup(chain_cache, model, h, 0, 4);
  const double long_path = chain_cache.closeness(model, h, 0, 4);
  h.add_relationship(5, 6, Relationship::kFriendship);
  d = checked_lookup(chain_cache, model, h, 0, 4);
  EXPECT_EQ(d.structure_hits, 1U);  // the common set: 0 and 4 untouched
  EXPECT_EQ(d.structure_misses, 1U);
  EXPECT_FALSE(bits_equal(chain_cache.closeness(model, h, 0, 4), long_path));
}

TEST(SocialStateCacheTest, UnreachableEntriesSurviveInteractionChurn) {
  // Node 3 (with its friend 4) is unreachable from 0 (with its friend 1).
  SocialGraph g(5);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.add_relationship(3, 4, Relationship::kFriendship);
  g.record_interaction(0, 1, 1.0);
  g.record_interaction(1, 4, 2.0);
  g.record_interaction(4, 3, 1.0);
  ClosenessModel model;
  SocialStateCache cache;

  auto d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_misses, 2U);
  EXPECT_TRUE(bits_equal(cache.closeness(model, g, 0, 3), 0.0));

  // Interaction churn and a type change on an existing edge cannot
  // create reachability. The type change bumps 0, so the common set
  // re-derives; the unreachable record is served.
  g.record_interaction(0, 1, 5.0);
  g.record_interaction(3, 4, 1.0);
  g.add_relationship(0, 1, Relationship::kColleague);
  d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_misses, 1U);
  EXPECT_EQ(d.structure_hits, 1U);

  // A new edge can. 1-4 touches neither endpoint, so only the addition
  // epoch tells the record apart from the new path 0-1-4-3.
  g.add_relationship(1, 4, Relationship::kFriendship);
  d = checked_lookup(cache, model, g, 0, 3);
  EXPECT_EQ(d.structure_hits, 1U);  // the (still empty) common set
  EXPECT_EQ(d.structure_misses, 1U);
  EXPECT_EQ(d.invalidations, 1U);
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

  checked_lookup(cache, model, g, 0, 3);
  auto d = checked_lookup(cache, model, g, 3, 0);
  EXPECT_EQ(d.structure_hits, 1U);    // the canonical common set
  EXPECT_EQ(d.structure_misses, 1U);  // its own path
  EXPECT_FALSE(bits_equal(cache.closeness(model, g, 0, 3),
                          cache.closeness(model, g, 3, 0)));
}

TEST(SocialStateCacheTest, InvalidateNodeErasesEveryMention) {
  // Common sets: (0,1) = {2} and (3,4) = {5}.
  SocialGraph g(6);
  g.add_relationship(0, 2, Relationship::kFriendship);
  g.add_relationship(1, 2, Relationship::kFriendship);
  g.add_relationship(3, 5, Relationship::kFriendship);
  g.add_relationship(4, 5, Relationship::kFriendship);
  g.record_interaction(0, 2, 1.0);
  g.record_interaction(3, 5, 1.0);
  ClosenessModel model;
  SocialStateCache cache;

  checked_lookup(cache, model, g, 0, 1);
  checked_lookup(cache, model, g, 3, 4);
  ASSERT_EQ(cache.size(), 2U);

  auto d = stats_delta(cache, [&] { cache.invalidate_node(2); });
  EXPECT_EQ(d.invalidations, 1U);
  EXPECT_EQ(cache.size(), 1U);

  // The unrelated entry survives; the set naming node 2 is gone even
  // though no revision changed.
  d = checked_lookup(cache, model, g, 3, 4);
  EXPECT_EQ(d.structure_hits, 1U);
  d = checked_lookup(cache, model, g, 0, 1);
  EXPECT_EQ(d.structure_misses, 1U);

  cache.clear();
  EXPECT_EQ(cache.size(), 0U);
}

/// A 12-node substrate whose all-pairs lookups store every entry kind:
/// a common set (2-4 via 3), bottleneck paths along the chain 5-6-7-8,
/// unreachable records towards the isolated 9-10 edge and node 11, and
/// empty common sets beside each path. Adjacent pairs (0-1) store
/// nothing.
struct MixedSubstrate {
  SocialGraph g{12};

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
  }

  void populate(SocialStateCache& cache) const {
    ClosenessModel model;
    for (graph::NodeId i = 0; i < 12; ++i) {
      for (graph::NodeId j = 0; j < 12; ++j) {
        if (i != j) checked_lookup(cache, model, g, i, j);
      }
    }
  }
};

void expect_stats_equal(const SocialStateCache::StatsSnapshot& a,
                        const SocialStateCache::StatsSnapshot& b) {
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.structure_hits, b.structure_hits);
  EXPECT_EQ(a.structure_misses, b.structure_misses);
}

TEST(SocialStateCacheTest, InvalidateNodesEqualsPerNodePasses) {
  // One batched pass must erase exactly the union of per-node passes:
  // the same entries and the same invalidation count. The batch carries a
  // duplicate (6) and two nodes one path entry names (6 and 7 both lie on
  // 5-6-7-8).
  const MixedSubstrate s;
  SocialStateCache per_node;
  SocialStateCache batched;
  s.populate(per_node);
  s.populate(batched);
  ASSERT_EQ(per_node.size(), batched.size());

  const std::vector<graph::NodeId> batch = {6, 3, 7, 6, 10};
  for (graph::NodeId n : batch) per_node.invalidate_node(n);
  batched.invalidate_nodes(batch);

  EXPECT_GT(batched.stats().invalidations, 0U);
  EXPECT_GT(batched.size(), 0U);  // entries naming no batch node survive
  EXPECT_EQ(per_node.size(), batched.size());
  expect_stats_equal(per_node.stats(), batched.stats());

  // Mentions inside an entry count, not just its key: the common set of
  // (2,4) names 3 and the path 5-6-7-8 names 6 and 7, so both re-derive,
  // while (0,2)'s empty set and unreachable record name no batch node and
  // are served.
  ClosenessModel model;
  auto d = checked_lookup(batched, model, s.g, 2, 4);
  EXPECT_EQ(d.structure_misses, 1U);
  d = checked_lookup(batched, model, s.g, 5, 8);
  EXPECT_EQ(d.structure_hits, 1U);  // the empty common set of (5,8)
  EXPECT_EQ(d.structure_misses, 1U);
  d = checked_lookup(batched, model, s.g, 0, 2);
  EXPECT_EQ(d.structure_hits, 2U);
}

TEST(SocialStateCacheTest, InvalidateNodesIgnoresIdsNoEntryMentions) {
  // A hostile id costs nothing and erases nothing: membership is bounded
  // by the batch, not by the id value.
  const MixedSubstrate s;
  SocialStateCache cache;
  s.populate(cache);
  const std::size_t size = cache.size();
  const auto stats = cache.stats();
  ASSERT_GT(size, 0U);

  const std::vector<graph::NodeId> hostile = {0xFFFFFFFFU};
  EXPECT_NO_THROW(cache.invalidate_nodes(hostile));
  EXPECT_NO_THROW(cache.invalidate_nodes({}));
  EXPECT_EQ(cache.size(), size);
  expect_stats_equal(cache.stats(), stats);
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
      // The warm cache must have served entries stored in an earlier
      // interval, or this compares two cold runs and proves nothing. Both
      // runs also hit within an interval (a common set is shared by both
      // orientations of a pair), so compare the totals.
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
  ASSERT_GT(warm->social_cache().stats().structure_hits, 0U);

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
/// the queue before any lookup, or an entry naming the forgotten node
/// would be served (or found stale and replaced) instead of invalidated.
/// The reference is a twin whose queue is drained early through the
/// social_cache() accessor: every cache total must match.
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
  // untouched until the third re-rates the first interval's pairs.
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
