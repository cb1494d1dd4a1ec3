// Failure-injection and boundary-condition tests across modules: degenerate
// populations, saturated capacity, single-category worlds, hostile rating
// streams, and configuration extremes. These guard the public API against
// the inputs a downstream user will eventually throw at it.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>

#include "collusion/models.hpp"
#include "core/socialtrust.hpp"
#include "reputation/beta.hpp"
#include "reputation/ebay.hpp"
#include "reputation/eigentrust.hpp"
#include "reputation/paper_eigentrust.hpp"
#include "sim/experiment.hpp"
#include "sim/factories.hpp"

namespace st {
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

// --- degenerate populations -----------------------------------------------------

TEST(EdgeSim, NoColludersNoPretrusted) {
  sim::SimConfig cfg;
  cfg.node_count = 30;
  cfg.pretrusted_count = 0;
  cfg.colluder_count = 0;
  cfg.simulation_cycles = 3;
  cfg.query_cycles_per_cycle = 5;
  sim::Simulator simulator(cfg, sim::make_paper_eigentrust_factory(),
                           nullptr, 1);
  auto result = simulator.run();
  EXPECT_GT(result.total_requests, 0u);
  EXPECT_EQ(result.requests_to_colluders, 0u);
  EXPECT_TRUE(result.colluder_history.empty());
}

TEST(EdgeSim, AllNodesAreColluders) {
  sim::SimConfig cfg;
  cfg.node_count = 20;
  cfg.pretrusted_count = 0;
  cfg.colluder_count = 20;
  cfg.simulation_cycles = 3;
  cfg.query_cycles_per_cycle = 5;
  sim::Simulator simulator(
      cfg, sim::make_paper_eigentrust_factory(),
      std::make_unique<collusion::PairwiseCollusion>(), 2);
  auto result = simulator.run();
  EXPECT_EQ(result.requests_to_colluders, result.total_requests);
}

TEST(EdgeSim, TwoNodeNetwork) {
  sim::SimConfig cfg;
  cfg.node_count = 2;
  cfg.pretrusted_count = 1;
  cfg.colluder_count = 0;
  cfg.interest_count = 2;
  cfg.max_interests = 2;
  cfg.simulation_cycles = 2;
  cfg.query_cycles_per_cycle = 3;
  cfg.social_degree = 1;
  sim::Simulator simulator(cfg, sim::make_paper_eigentrust_factory(),
                           nullptr, 3);
  EXPECT_NO_THROW(simulator.run());
}

TEST(EdgeSim, SingleInterestCategory) {
  sim::SimConfig cfg;
  cfg.node_count = 25;
  cfg.pretrusted_count = 2;
  cfg.colluder_count = 4;
  cfg.interest_count = 1;
  cfg.min_interests = 1;
  cfg.max_interests = 1;
  cfg.simulation_cycles = 3;
  cfg.query_cycles_per_cycle = 5;
  sim::Simulator simulator(
      cfg, sim::make_paper_eigentrust_factory(),
      std::make_unique<collusion::MutualMultiNodeCollusion>(), 4);
  auto result = simulator.run();
  EXPECT_GT(result.total_requests, 0u);
}

// --- saturated / starved capacity --------------------------------------------------

TEST(EdgeSim, CapacityOnePerQueryCycle) {
  sim::SimConfig cfg;
  cfg.node_count = 40;
  cfg.pretrusted_count = 2;
  cfg.colluder_count = 0;
  cfg.capacity_per_query_cycle = 1;
  cfg.simulation_cycles = 3;
  cfg.query_cycles_per_cycle = 10;
  sim::Simulator simulator(cfg, sim::make_paper_eigentrust_factory(),
                           nullptr, 5);
  auto result = simulator.run();
  // Each query cycle at most node_count services are possible.
  EXPECT_LE(result.total_requests,
            cfg.node_count * cfg.query_cycles_per_cycle *
                cfg.simulation_cycles);
  EXPECT_GT(result.total_requests, 0u);
}

TEST(EdgeSim, PatienceZeroIgnoresReputation) {
  sim::SimConfig cfg;
  cfg.node_count = 40;
  cfg.pretrusted_count = 4;
  cfg.colluder_count = 0;
  cfg.selection_patience = 0;
  cfg.sticky_selection = false;
  cfg.simulation_cycles = 4;
  cfg.query_cycles_per_cycle = 10;
  sim::Simulator simulator(cfg, sim::make_paper_eigentrust_factory(),
                           nullptr, 6);
  auto result = simulator.run();
  // Without reputation preference, pretrusted nodes get roughly their
  // population share of requests (10%), far below the preferred regime.
  double share = static_cast<double>(result.requests_to_pretrusted) /
                 static_cast<double>(result.total_requests);
  EXPECT_LT(share, 0.35);
}

TEST(EdgeSim, AbsoluteThresholdModeRuns) {
  sim::SimConfig cfg;
  cfg.node_count = 40;
  cfg.pretrusted_count = 4;
  cfg.colluder_count = 4;
  cfg.relative_reputation_threshold = false;
  cfg.simulation_cycles = 3;
  cfg.query_cycles_per_cycle = 5;
  sim::Simulator simulator(cfg, sim::make_paper_eigentrust_factory(),
                           nullptr, 7);
  EXPECT_NO_THROW(simulator.run());
}

// --- hostile rating streams ---------------------------------------------------------

TEST(EdgeReputation, AllNegativeWorld) {
  reputation::PaperEigenTrust pet(5, {0});
  std::vector<Rating> ratings;
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = 0; j < 5; ++j) {
      if (i != j) ratings.push_back(make(i, j, -1.0));
    }
  }
  pet.update(ratings);
  for (NodeId v = 0; v < 5; ++v) EXPECT_DOUBLE_EQ(pet.reputation(v), 0.0);
}

TEST(EdgeReputation, ZeroValueRatingsAreInert) {
  reputation::EbayReputation ebay(3);
  std::vector<Rating> ratings(50, make(0, 1, 0.0));
  ebay.update(ratings);
  EXPECT_DOUBLE_EQ(ebay.raw_score(1), 0.0);
}

TEST(EdgeReputation, ExtremeValuesStayFinite) {
  reputation::PaperEigenTrust pet(3, {0});
  std::vector<Rating> ratings{make(0, 1, 1e100), make(0, 2, -1e100)};
  pet.update(ratings);
  for (double r : pet.reputations()) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GE(r, 0.0);
  }
}

TEST(EdgeReputation, EigenTrustSelfRatingsOnly) {
  reputation::EigenTrust et(4, {0});
  std::vector<Rating> ratings;
  for (NodeId v = 0; v < 4; ++v) {
    for (int k = 0; k < 10; ++k) ratings.push_back(make(v, v, 1.0));
  }
  et.update(ratings);
  // All ignored: global trust stays the teleport distribution.
  EXPECT_DOUBLE_EQ(et.reputation(0), 1.0);
}

// --- non-finite rating values ------------------------------------------------------

// One NaN or infinite rating in a stream must leave every reputation
// exactly as the stream without it would, for each inner system on its
// own and behind the plugin under both schedules. The rating goes on a
// pair (3 -> 5) that is rated again, finitely, in the second interval, so
// a value that slipped into any carried state would still show there.
enum class Wrap { kBare, kFullWalk, kDirtyPairs };

using NonFiniteParam = std::tuple<int, Wrap, double>;

class NonFiniteRating : public ::testing::TestWithParam<NonFiniteParam> {
 protected:
  static constexpr std::size_t kNodes = 16;

  NonFiniteRating() {
    for (NodeId v = 0; v < kNodes; ++v) {
      graph_.add_relationship(v, (v + 1) % kNodes,
                              graph::Relationship::kFriendship);
      const reputation::InterestId interests[] = {
          static_cast<reputation::InterestId>(v % 4),
          static_cast<reputation::InterestId>((v + 1) % 4)};
      profiles_.set_interests(v, interests);
    }
  }

  std::unique_ptr<reputation::ReputationSystem> make_system() const {
    const Wrap wrap = std::get<1>(GetParam());
    std::unique_ptr<reputation::ReputationSystem> inner;
    switch (std::get<0>(GetParam())) {
      case 0:
        inner = std::make_unique<reputation::EbayReputation>(kNodes);
        break;
      case 1:
        inner = std::make_unique<reputation::EigenTrust>(
            kNodes, std::vector<NodeId>{0, 1});
        break;
      case 2:
        inner = std::make_unique<reputation::PaperEigenTrust>(
            kNodes, std::vector<NodeId>{0, 1});
        break;
      default:
        inner = std::make_unique<reputation::BetaReputation>(kNodes);
        break;
    }
    if (wrap == Wrap::kBare) return inner;
    core::SocialTrustConfig cfg;
    cfg.schedule = wrap == Wrap::kFullWalk ? core::UpdateSchedule::kFullWalk
                                           : core::UpdateSchedule::kDirtyPairs;
    return std::make_unique<core::SocialTrustPlugin>(std::move(inner), graph_,
                                                     profiles_, cfg);
  }

  // Interval t: a ring of +1 ratings, a high-frequency pair 7 <-> 8 for
  // the detector, one negative rating and, in the second interval, a
  // finite rating on the pair that carries the bad value in the first.
  static std::vector<Rating> interval(int t) {
    std::vector<Rating> ratings;
    for (NodeId v = 0; v < kNodes; ++v) {
      ratings.push_back(make(v, (v + 1) % kNodes, 1.0));
    }
    for (int k = 0; k < 12; ++k) {
      ratings.push_back(make(7, 8, 1.0));
      ratings.push_back(make(8, 7, 1.0));
    }
    ratings.push_back(make(10, 2, -1.0));
    if (t == 1) ratings.push_back(make(3, 5, 1.0));
    return ratings;
  }

  graph::SocialGraph graph_{kNodes};
  core::InterestProfiles profiles_{kNodes, 4};
};

TEST_P(NonFiniteRating, IsDroppedWithoutTouchingAnyReputation) {
  const double bad = std::get<2>(GetParam());
  auto clean = make_system();
  auto dirty = make_system();
  for (int t = 0; t < 2; ++t) {
    const std::vector<Rating> ratings = interval(t);
    std::vector<Rating> poisoned = ratings;
    if (t == 0) {
      poisoned.insert(poisoned.begin() + 5, make(3, 5, bad));
    }
    clean->update(ratings);
    dirty->update(poisoned);
    for (NodeId v = 0; v < kNodes; ++v) {
      const double want = clean->reputation(v);
      const double got = dirty->reputation(v);
      EXPECT_TRUE(std::isfinite(got)) << "interval " << t << " node " << v;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "interval " << t << " node " << v << ": " << got << " vs "
          << want;
    }
    if (auto* plugin = dynamic_cast<core::SocialTrustPlugin*>(dirty.get())) {
      const auto& want =
          dynamic_cast<core::SocialTrustPlugin&>(*clean).last_report();
      EXPECT_EQ(plugin->last_report().pairs_total, want.pairs_total);
      EXPECT_EQ(plugin->last_report().pairs_flagged, want.pairs_flagged);
    }
  }
}

std::string non_finite_name(
    const ::testing::TestParamInfo<NonFiniteParam>& param_info) {
  constexpr const char* kModels[] = {"Ebay", "EigenTrust", "PaperEigenTrust",
                                     "Beta"};
  constexpr const char* kWraps[] = {"Bare", "FullWalk", "DirtyPairs"};
  const auto [model, wrap, bad] = param_info.param;
  return std::string(kModels[model]) + "_" +
         kWraps[static_cast<int>(wrap)] + "_" +
         (std::isnan(bad) ? "NaN" : bad > 0.0 ? "PosInf" : "NegInf");
}

INSTANTIATE_TEST_SUITE_P(
    SystemsAndValues, NonFiniteRating,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 3),
        ::testing::Values(Wrap::kBare, Wrap::kFullWalk, Wrap::kDirtyPairs),
        ::testing::Values(std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity())),
    non_finite_name);

// --- plugin under pathological social state ------------------------------------------

TEST(EdgePlugin, EmptySocialGraphStillRuns) {
  graph::SocialGraph g(10);  // no relationships, no interactions
  core::InterestProfiles p(10, 4);
  core::SocialTrustPlugin plugin(
      std::make_unique<reputation::EbayReputation>(10), g, p);
  std::vector<Rating> flood;
  for (int k = 0; k < 200; ++k) flood.push_back(make(1, 2, 1.0));
  plugin.update(flood);
  // Closeness and similarity are all zero; the pair is still flagged by
  // frequency + B1/B3 and attenuated or passed depending on the Gaussian
  // degenerate-width rule — either way, no crash and sane output.
  EXPECT_GE(plugin.reputation(2), 0.0);
  EXPECT_LE(plugin.reputation(2), 1.0);
}

TEST(EdgePlugin, RaterWithSingleRateeUsesSystemFallback) {
  graph::SocialGraph g(5);
  core::InterestProfiles p(5, 3);
  g.add_relationship(0, 1, graph::Relationship::kKinship);
  for (int k = 0; k < 50; ++k) g.record_interaction(0, 1);
  core::SocialTrustPlugin plugin(
      std::make_unique<reputation::EbayReputation>(5), g, p);
  std::vector<Rating> ratings;
  for (int k = 0; k < 50; ++k) ratings.push_back(make(0, 1, 1.0));
  ratings.push_back(make(2, 3, 1.0));
  EXPECT_NO_THROW(plugin.update(ratings));
}

TEST(EdgePlugin, AlternatingSignPairCountsBothWays) {
  graph::SocialGraph g(5);
  core::InterestProfiles p(5, 3);
  core::SocialTrustPlugin plugin(
      std::make_unique<reputation::EbayReputation>(5), g, p);
  std::vector<Rating> ratings;
  for (int k = 0; k < 30; ++k) {
    ratings.push_back(make(0, 1, 1.0));
    ratings.push_back(make(0, 1, -1.0));
  }
  plugin.update(ratings);
  EXPECT_EQ(plugin.last_report().pairs_total, 1u);
}

// --- experiment harness edge cases ----------------------------------------------------

TEST(EdgeExperiment, OneRunHasZeroCi) {
  sim::ExperimentConfig config;
  config.sim.node_count = 30;
  config.sim.pretrusted_count = 2;
  config.sim.colluder_count = 4;
  config.sim.simulation_cycles = 2;
  config.sim.query_cycles_per_cycle = 4;
  config.runs = 1;
  auto agg = run_experiment(config, sim::make_paper_eigentrust_factory(),
                            sim::StrategyFactory{});
  for (double ci : agg.ci_final_reputation) EXPECT_DOUBLE_EQ(ci, 0.0);
}

TEST(EdgeExperiment, StrategyFactoryReturningNullMeansNoCollusion) {
  sim::ExperimentConfig config;
  config.sim.node_count = 30;
  config.sim.pretrusted_count = 2;
  config.sim.colluder_count = 4;
  config.sim.simulation_cycles = 2;
  config.sim.query_cycles_per_cycle = 4;
  config.runs = 1;
  sim::StrategyFactory null_factory = [] {
    return std::unique_ptr<sim::CollusionStrategy>{};
  };
  auto agg = run_experiment(config, sim::make_paper_eigentrust_factory(),
                            null_factory);
  EXPECT_EQ(agg.per_run[0].fake_ratings, 0u);
}

// --- parameterised robustness sweep ----------------------------------------------------

struct ExtremeCase {
  std::size_t nodes;
  std::size_t pretrusted;
  std::size_t colluders;
  std::size_t interests;
};

class ExtremeConfig : public ::testing::TestWithParam<ExtremeCase> {};

TEST_P(ExtremeConfig, SimulationCompletesAndConserves) {
  const auto& c = GetParam();
  sim::SimConfig cfg;
  cfg.node_count = c.nodes;
  cfg.pretrusted_count = c.pretrusted;
  cfg.colluder_count = c.colluders;
  cfg.interest_count = c.interests;
  cfg.max_interests = std::min<std::size_t>(10, c.interests);
  cfg.simulation_cycles = 2;
  cfg.query_cycles_per_cycle = 4;
  std::unique_ptr<sim::CollusionStrategy> strategy;
  if (c.colluders >= 2) {
    strategy = std::make_unique<collusion::PairwiseCollusion>();
  }
  sim::Simulator simulator(cfg, sim::make_paper_eigentrust_factory(),
                           std::move(strategy), 11);
  auto result = simulator.run();
  EXPECT_EQ(result.total_requests,
            result.authentic_services + result.inauthentic_services);
  double sum = 0.0;
  for (double r : result.final_reputation) {
    EXPECT_GE(r, 0.0);
    sum += r;
  }
  EXPECT_LE(sum, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Extremes, ExtremeConfig,
    ::testing::Values(ExtremeCase{3, 1, 2, 2}, ExtremeCase{10, 9, 0, 3},
                      ExtremeCase{50, 1, 48, 2}, ExtremeCase{64, 0, 2, 20},
                      ExtremeCase{100, 10, 30, 40}));

}  // namespace
}  // namespace st
