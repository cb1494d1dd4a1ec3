// Tests for SocialTrustPlugin (the end-to-end adjustment pipeline) and the
// distributed ResourceManagerNetwork (Section 4.3), including the
// equivalence proof between centralised and distributed execution.

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/resource_manager.hpp"
#include "core/socialtrust.hpp"
#include "reputation/ebay.hpp"
#include "reputation/paper_eigentrust.hpp"

namespace st::core {
namespace {

using reputation::NodeId;
using reputation::Rating;

Rating make(NodeId rater, NodeId ratee, double value) {
  Rating r;
  r.rater = rater;
  r.ratee = ratee;
  r.value = value;
  return r;
}

/// A colluder-vs-honest fixture: nodes 0,1 collude (adjacent, huge mutual
/// interaction concentration, no shared interests); nodes 2..9 trade
/// honestly within shared interests at low frequency.
struct Fixture {
  graph::SocialGraph graph{10};
  InterestProfiles profiles{10, 8};

  Fixture() {
    // Colluding pair: 4 relationship types, distance 1.
    for (auto r : {graph::Relationship::kFriendship,
                   graph::Relationship::kColleague,
                   graph::Relationship::kClassmate,
                   graph::Relationship::kKinship}) {
      graph.add_relationship(0, 1, r);
    }
    // Honest background: a ring of friendships among 2..9.
    for (NodeId v = 2; v < 9; ++v) {
      graph.add_relationship(v, v + 1, graph::Relationship::kFriendship);
    }
    // Interests: colluders disjoint; honest nodes share {0,1,2}.
    std::vector<reputation::InterestId> a{6}, b{7},
        common{0, 1, 2};
    profiles.set_interests(0, a);
    profiles.set_interests(1, b);
    for (NodeId v = 2; v < 10; ++v) profiles.set_interests(v, common);
    // Behaviour: everyone requests within its own interests.
    profiles.record_request(0, 6, 20.0);
    profiles.record_request(1, 7, 20.0);
    for (NodeId v = 2; v < 10; ++v) {
      profiles.record_request(v, 0, 6.0);
      profiles.record_request(v, 1, 3.0);
      profiles.record_request(v, 2, 1.0);
    }
  }

  /// One simulation cycle: colluders rate each other 40x, honest pairs
  /// exchange a couple of transaction ratings and record interactions.
  std::vector<Rating> cycle_ratings() {
    std::vector<Rating> ratings;
    for (int k = 0; k < 40; ++k) {
      ratings.push_back(make(0, 1, 1.0));
      ratings.push_back(make(1, 0, 1.0));
      graph.record_interaction(0, 1);
      graph.record_interaction(1, 0);
    }
    for (NodeId v = 2; v < 9; ++v) {
      ratings.push_back(make(v, v + 1, 1.0));
      ratings.push_back(make(v + 1, v, 1.0));
      graph.record_interaction(v, v + 1);
      graph.record_interaction(v + 1, v);
    }
    return ratings;
  }
};

std::unique_ptr<reputation::PaperEigenTrust> make_inner() {
  reputation::PaperEigenTrustConfig cfg;
  cfg.weight_prior_mass = 0.0;
  cfg.rater_weight_floor = 0.0;
  return std::make_unique<reputation::PaperEigenTrust>(
      10, std::vector<NodeId>{2}, cfg);
}

TEST(Plugin, NameComposesInnerName) {
  Fixture f;
  SocialTrustPlugin plugin(make_inner(), f.graph, f.profiles);
  EXPECT_EQ(plugin.name(), "EigenTrust+SocialTrust");
  EXPECT_EQ(plugin.size(), 10u);
}

TEST(Plugin, RejectsNullInnerAndSizeMismatch) {
  Fixture f;
  EXPECT_THROW(SocialTrustPlugin(nullptr, f.graph, f.profiles),
               std::invalid_argument);
  graph::SocialGraph tiny(3);
  InterestProfiles tiny_profiles(3, 4);
  EXPECT_THROW(SocialTrustPlugin(make_inner(), tiny, tiny_profiles),
               std::invalid_argument);
}

TEST(Plugin, FlagsColludingPairNotHonestPairs) {
  Fixture f;
  SocialTrustPlugin plugin(make_inner(), f.graph, f.profiles);
  plugin.update(f.cycle_ratings());
  const AdjustmentReport& report = plugin.last_report();
  EXPECT_GE(report.pairs_flagged, 2u);  // both directions of the pair
  for (const FlaggedPair& fp : report.flagged) {
    bool is_colluding_pair = (fp.rater == 0 && fp.ratee == 1) ||
                             (fp.rater == 1 && fp.ratee == 0);
    EXPECT_TRUE(is_colluding_pair)
        << fp.rater << "->" << fp.ratee << " wrongly flagged";
  }
}

TEST(Plugin, AdjustedRatingsShrinkOnlyForFlaggedPairs) {
  Fixture f;
  SocialTrustPlugin plugin(make_inner(), f.graph, f.profiles);
  auto ratings = f.cycle_ratings();
  plugin.update(ratings);
  auto adjusted = plugin.last_adjusted();
  ASSERT_EQ(adjusted.size(), ratings.size());
  for (std::size_t i = 0; i < ratings.size(); ++i) {
    bool colluding = ratings[i].rater <= 1;
    if (colluding) {
      EXPECT_LT(adjusted[i].value, ratings[i].value);
    } else {
      EXPECT_DOUBLE_EQ(adjusted[i].value, ratings[i].value);
    }
  }
}

TEST(Plugin, SuppressesColluderReputationOverCycles) {
  Fixture with_plugin, without_plugin;
  SocialTrustPlugin plugin(make_inner(), with_plugin.graph,
                           with_plugin.profiles);
  auto bare = make_inner();
  // Seed: the pretrusted node (2) endorses the colluders once so the bare
  // system has something to amplify.
  std::vector<Rating> seed{make(2, 0, 1.0), make(2, 1, 1.0)};
  plugin.update(seed);
  bare->update(seed);
  for (int cycle = 0; cycle < 8; ++cycle) {
    plugin.update(with_plugin.cycle_ratings());
    bare->update(without_plugin.cycle_ratings());
  }
  EXPECT_LT(plugin.reputation(0) + plugin.reputation(1),
            0.2 * (bare->reputation(0) + bare->reputation(1)));
}

TEST(Plugin, GateOffAdjustsEverything) {
  Fixture f;
  SocialTrustConfig cfg;
  cfg.gate_on_detector = false;
  SocialTrustPlugin plugin(make_inner(), f.graph, f.profiles, cfg);
  auto ratings = f.cycle_ratings();
  plugin.update(ratings);
  EXPECT_EQ(plugin.last_report().ratings_adjusted, ratings.size());
}

TEST(Plugin, BehaviorCountersPopulated) {
  Fixture f;
  SocialTrustPlugin plugin(make_inner(), f.graph, f.profiles);
  plugin.update(f.cycle_ratings());
  const auto& r = plugin.last_report();
  // The colluding pair shares no interests -> B3 fires; B2 requires the
  // ratee to be low-reputed, which also holds initially.
  EXPECT_GT(r.b3 + r.b2 + r.b1, 0u);
  EXPECT_GT(r.pairs_total, 2u);
  EXPECT_LE(r.pairs_flagged, r.pairs_total);
}

TEST(Plugin, ResetClearsHistoryAndInner) {
  Fixture f;
  SocialTrustPlugin plugin(make_inner(), f.graph, f.profiles);
  plugin.update(f.cycle_ratings());
  plugin.reset();
  EXPECT_EQ(plugin.last_report().pairs_total, 0u);
  for (NodeId v = 0; v < 10; ++v) EXPECT_DOUBLE_EQ(plugin.reputation(v), 0.0);
}

TEST(Plugin, EmptyUpdateIsHarmless) {
  Fixture f;
  SocialTrustPlugin plugin(make_inner(), f.graph, f.profiles);
  plugin.update({});
  EXPECT_EQ(plugin.last_report().pairs_total, 0u);
}

TEST(Plugin, SelfAndOutOfRangeRatingsIgnored) {
  Fixture f;
  SocialTrustPlugin plugin(make_inner(), f.graph, f.profiles);
  std::vector<Rating> junk{make(3, 3, 1.0), make(42, 1, 1.0),
                           make(1, 42, 1.0)};
  plugin.update(junk);
  EXPECT_EQ(plugin.last_report().pairs_total, 0u);
}

TEST(Plugin, ZeroOnlyPairIsActiveButCountsAsNeitherSign) {
  // 0 -> 1 rates +1 once; 2 -> 1 rates 0.0 once. With no floors and
  // theta = 1.5, 0 -> 1 is high-frequency (t+ = 1 > 1.5 * F) only while
  // F = 1 / 2, i.e. only if the zero rating adds to neither t+ nor t-; no
  // shared interests make it a B3 hit.
  graph::SocialGraph graph(4);
  InterestProfiles profiles(4, 3);
  SocialTrustConfig cfg;
  cfg.positive_count_floor = 0.0;
  cfg.negative_count_floor = 0.0;
  cfg.theta = 1.5;
  const std::vector<Rating> ratings{make(0, 1, 1.0), make(2, 1, 0.0)};
  SocialTrustPlugin plugin(
      std::make_unique<reputation::EbayReputation>(4), graph, profiles, cfg);
  plugin.update(ratings);
  const AdjustmentReport& report = plugin.last_report();
  EXPECT_EQ(report.pairs_total, 2u);
  ASSERT_EQ(report.flagged.size(), 1u);
  EXPECT_EQ(report.flagged[0].rater, 0u);
  EXPECT_EQ(report.flagged[0].ratee, 1u);
  EXPECT_TRUE(any(report.flagged[0].behavior & Behavior::kB3));

  // Ungated, the zero rating's index is rescaled like any other.
  cfg.gate_on_detector = false;
  SocialTrustPlugin ungated(
      std::make_unique<reputation::EbayReputation>(4), graph, profiles, cfg);
  ungated.update(ratings);
  EXPECT_EQ(ungated.last_report().pairs_total, 2u);
  EXPECT_EQ(ungated.last_report().ratings_adjusted, 2u);
  EXPECT_EQ(ungated.last_adjusted()[1].value, 0.0);
}

TEST(Plugin, ComponentVariantsAllSuppress) {
  for (auto components : {AdjustmentComponents::kClosenessOnly,
                          AdjustmentComponents::kSimilarityOnly,
                          AdjustmentComponents::kCombined}) {
    Fixture f;
    SocialTrustConfig cfg;
    cfg.components = components;
    SocialTrustPlugin plugin(make_inner(), f.graph, f.profiles, cfg);
    auto ratings = f.cycle_ratings();
    plugin.update(ratings);
    EXPECT_LT(plugin.last_report().mean_weight, 1.0)
        << "components=" << static_cast<int>(components);
  }
}

TEST(Plugin, CombinedAttenuatesAtLeastAsMuchAsEachComponent) {
  // Eq. (9)'s exponent is the sum of Eq. (6)'s and Eq. (8)'s, so for the
  // same flagged pair the combined weight is <= each single-dimension one.
  double weights[3];
  int idx = 0;
  for (auto components : {AdjustmentComponents::kClosenessOnly,
                          AdjustmentComponents::kSimilarityOnly,
                          AdjustmentComponents::kCombined}) {
    Fixture f;
    SocialTrustConfig cfg;
    cfg.components = components;
    SocialTrustPlugin plugin(make_inner(), f.graph, f.profiles, cfg);
    plugin.update(f.cycle_ratings());
    weights[idx++] = plugin.last_report().mean_weight;
  }
  EXPECT_LE(weights[2], weights[0] + 1e-12);
  EXPECT_LE(weights[2], weights[1] + 1e-12);
}

TEST(Plugin, BaselineVariantsAllFlagTheColluder) {
  for (auto baseline : {BaselineSource::kPerRater, BaselineSource::kSystemWide,
                        BaselineSource::kHybrid}) {
    Fixture f;
    SocialTrustConfig cfg;
    cfg.baseline = baseline;
    SocialTrustPlugin plugin(make_inner(), f.graph, f.profiles, cfg);
    plugin.update(f.cycle_ratings());
    EXPECT_GE(plugin.last_report().pairs_flagged, 2u)
        << "baseline=" << static_cast<int>(baseline);
  }
}

TEST(Plugin, HybridNeverWeakerThanPerRater) {
  Fixture f1, f2;
  SocialTrustConfig per_rater;
  per_rater.baseline = BaselineSource::kPerRater;
  SocialTrustConfig hybrid;
  hybrid.baseline = BaselineSource::kHybrid;
  SocialTrustPlugin a(make_inner(), f1.graph, f1.profiles, per_rater);
  SocialTrustPlugin b(make_inner(), f2.graph, f2.profiles, hybrid);
  a.update(f1.cycle_ratings());
  b.update(f2.cycle_ratings());
  EXPECT_LE(b.last_report().mean_weight,
            a.last_report().mean_weight + 1e-12);
}

// --- ResourceManagerNetwork ------------------------------------------------------

TEST(ResourceManagers, ReputationsIdenticalToCentralised) {
  Fixture f_central, f_distributed;
  SocialTrustPlugin central(make_inner(), f_central.graph,
                            f_central.profiles);
  ResourceManagerNetwork distributed(make_inner(), f_distributed.graph,
                                     f_distributed.profiles,
                                     SocialTrustConfig{}, 4);
  for (int cycle = 0; cycle < 5; ++cycle) {
    central.update(f_central.cycle_ratings());
    distributed.update(f_distributed.cycle_ratings());
  }
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_DOUBLE_EQ(central.reputation(v), distributed.reputation(v));
  }
}

TEST(ResourceManagers, RoutesEveryRating) {
  Fixture f;
  ResourceManagerNetwork net(make_inner(), f.graph, f.profiles,
                             SocialTrustConfig{}, 3);
  auto ratings = f.cycle_ratings();
  const std::size_t valid = ratings.size();
  // Ratings the plugin drops are not routed, though each names an
  // in-range ratee: a NaN value, a self-rating, an out-of-range rater.
  ratings.push_back(make(2, 3, std::numeric_limits<double>::quiet_NaN()));
  ratings.push_back(make(4, 4, 1.0));
  ratings.push_back(make(static_cast<NodeId>(net.size()), 5, 1.0));
  net.update(ratings);
  EXPECT_EQ(net.last_traffic().ratings_routed, valid);
  std::uint64_t load_sum = 0;
  for (std::uint64_t l : net.manager_load()) load_sum += l;
  EXPECT_EQ(load_sum, valid);
}

TEST(ResourceManagers, CrossManagerFlagsCostInfoRequests) {
  Fixture f;
  // Nodes 0 and 1 land on different managers with 2 managers (0 % 2 != 1 % 2),
  // so each flagged direction costs one info request.
  ResourceManagerNetwork net(make_inner(), f.graph, f.profiles,
                             SocialTrustConfig{}, 2);
  net.update(f.cycle_ratings());
  const auto& t = net.last_traffic();
  EXPECT_EQ(t.adjustments_applied, net.last_report().flagged.size());
  EXPECT_GE(t.info_requests, 2u);
  EXPECT_EQ(t.local_hits + t.info_requests, t.adjustments_applied);
}

TEST(ResourceManagers, SingleManagerIsAllLocal) {
  Fixture f;
  ResourceManagerNetwork net(make_inner(), f.graph, f.profiles,
                             SocialTrustConfig{}, 1);
  net.update(f.cycle_ratings());
  EXPECT_EQ(net.last_traffic().info_requests, 0u);
}

TEST(ResourceManagers, TotalsAccumulate) {
  Fixture f;
  ResourceManagerNetwork net(make_inner(), f.graph, f.profiles,
                             SocialTrustConfig{}, 2);
  auto size1 = f.cycle_ratings().size();
  net.update(f.cycle_ratings());
  net.update(f.cycle_ratings());
  EXPECT_EQ(net.total_traffic().ratings_routed, 2 * size1);
  net.reset();
  EXPECT_EQ(net.total_traffic().ratings_routed, 0u);
}

TEST(ResourceManagers, Validation) {
  Fixture f;
  EXPECT_THROW(ResourceManagerNetwork(make_inner(), f.graph, f.profiles,
                                      SocialTrustConfig{}, 0),
               std::invalid_argument);
}

TEST(ResourceManagers, WorksOverEbayToo) {
  Fixture f;
  ResourceManagerNetwork net(std::make_unique<reputation::EbayReputation>(10),
                             f.graph, f.profiles, SocialTrustConfig{}, 3);
  EXPECT_EQ(net.name(), "eBay+SocialTrust(distributed)");
  net.update(f.cycle_ratings());
  EXPECT_GT(net.last_traffic().ratings_routed, 0u);
}

}  // namespace
}  // namespace st::core
