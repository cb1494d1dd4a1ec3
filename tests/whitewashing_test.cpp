// Tests for the whitewashing extension: forget_node semantics across all
// reputation systems, the simulator's identity-reset plumbing, and the
// attack/defence dynamics.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "collusion/whitewashing.hpp"
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

// --- forget_node across systems -----------------------------------------------

TEST(ForgetNode, EbayErasesScore) {
  reputation::EbayReputation ebay(3);
  ebay.update(std::vector<Rating>{make(0, 1, 1.0), make(0, 2, 1.0)});
  ebay.forget_node(1);
  EXPECT_DOUBLE_EQ(ebay.raw_score(1), 0.0);
  EXPECT_DOUBLE_EQ(ebay.reputation(1), 0.0);
  EXPECT_DOUBLE_EQ(ebay.reputation(2), 1.0);  // renormalised
}

TEST(ForgetNode, PaperEigenTrustErasesScore) {
  reputation::PaperEigenTrust pet(3, {0});
  pet.update(std::vector<Rating>{make(0, 1, 1.0), make(0, 2, 1.0)});
  pet.forget_node(1);
  EXPECT_DOUBLE_EQ(pet.reputation(1), 0.0);
  EXPECT_DOUBLE_EQ(pet.reputation(2), 1.0);
}

TEST(ForgetNode, EigenTrustErasesRowAndColumn) {
  reputation::EigenTrust et(4, {0});
  et.update(std::vector<Rating>{make(0, 1, 1.0), make(1, 2, 1.0),
                                make(3, 1, 1.0)});
  et.forget_node(1);
  EXPECT_DOUBLE_EQ(et.raw_trust(0, 1), 0.0);  // column
  EXPECT_DOUBLE_EQ(et.raw_trust(1, 2), 0.0);  // row
  EXPECT_DOUBLE_EQ(et.raw_trust(3, 1), 0.0);
}

TEST(ForgetNode, BetaResetsToPrior) {
  reputation::BetaReputation beta(3);
  beta.update(std::vector<Rating>{make(0, 1, -1.0), make(0, 1, -1.0)});
  EXPECT_LT(beta.beta_expectation(1), 0.5);
  beta.forget_node(1);
  EXPECT_DOUBLE_EQ(beta.beta_expectation(1), 0.5);
}

TEST(ForgetNode, PluginForgetsRatingHistoryToo) {
  graph::SocialGraph g(5);
  core::InterestProfiles p(5, 3);
  core::SocialTrustPlugin plugin(
      std::make_unique<reputation::EbayReputation>(5), g, p);
  std::vector<Rating> ratings;
  for (int k = 0; k < 20; ++k) ratings.push_back(make(1, 2, 1.0));
  plugin.update(ratings);
  EXPECT_NO_THROW(plugin.forget_node(2));
  EXPECT_DOUBLE_EQ(plugin.reputation(2), 0.0);
}

TEST(ForgetNode, OutOfRangeThrows) {
  reputation::EbayReputation ebay(2);
  EXPECT_THROW(ebay.forget_node(7), std::out_of_range);
}

TEST(ForgetNode, PluginRejectsUnknownIdsWithoutSideEffects) {
  // Every inner system throws before the plugin touches its own state (or
  // queues a cache invalidation), so an unknown id leaves no trace: the
  // next interval is bit-identical to a twin that never saw the call.
  constexpr std::size_t kN = 6;
  graph::SocialGraph g(kN);
  g.add_relationship(0, 1, graph::Relationship::kFriendship);
  g.add_relationship(1, 2, graph::Relationship::kFriendship);
  g.add_relationship(3, 4, graph::Relationship::kColleague);
  core::InterestProfiles p(kN, 3);
  const std::vector<NodeId> pretrusted = {0};
  const std::vector<std::function<
      std::unique_ptr<reputation::ReputationSystem>()>>
      inners = {
          [&] { return std::make_unique<reputation::EbayReputation>(kN); },
          [&] {
            return std::make_unique<reputation::EigenTrust>(kN, pretrusted);
          },
          [&] {
            return std::make_unique<reputation::PaperEigenTrust>(kN,
                                                                 pretrusted);
          },
          [&] { return std::make_unique<reputation::BetaReputation>(kN); }};
  std::vector<Rating> first, second;
  for (int k = 0; k < 12; ++k) {
    first.push_back(make(1, 2, 1.0));
    first.push_back(make(2, 1, 1.0));
    second.push_back(make(3, 4, k % 3 == 0 ? -1.0 : 1.0));
  }
  first.push_back(make(0, 3, 1.0));
  second.push_back(make(1, 2, 1.0));
  for (const auto& make_inner : inners) {
    for (NodeId bad : {static_cast<NodeId>(kN), NodeId{0xFFFFFFFFU}}) {
      core::SocialTrustPlugin plugin(make_inner(), g, p);
      core::SocialTrustPlugin twin(make_inner(), g, p);
      SCOPED_TRACE(std::string(plugin.name()) + " id " + std::to_string(bad));
      plugin.update(first);
      twin.update(first);
      EXPECT_THROW(plugin.forget_node(bad), std::out_of_range);
      plugin.update(second);
      twin.update(second);
      const auto got = plugin.last_adjusted();
      const auto want = twin.last_adjusted();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
                  std::bit_cast<std::uint64_t>(want[i].value))
            << "rating " << i;
      }
      for (NodeId v = 0; v < kN; ++v) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(plugin.reputation(v)),
                  std::bit_cast<std::uint64_t>(twin.reputation(v)))
            << "node " << v;
      }
      EXPECT_EQ(plugin.last_report().pairs_flagged,
                twin.last_report().pairs_flagged);
      EXPECT_EQ(plugin.social_cache().size(), twin.social_cache().size());
      EXPECT_EQ(plugin.social_cache().stats().invalidations,
                twin.social_cache().stats().invalidations);
    }
  }
}

// --- SocialGraph::clear_node / profiles ------------------------------------------

TEST(ClearNode, ErasesEdgesAndInteractionsBothWays) {
  graph::SocialGraph g(4);
  g.add_relationship(0, 1, graph::Relationship::kFriendship);
  g.add_relationship(1, 2, graph::Relationship::kKinship);
  g.record_interaction(1, 2, 5.0);
  g.record_interaction(0, 1, 3.0);
  g.record_interaction(0, 2, 2.0);

  g.clear_node(1);
  EXPECT_FALSE(g.adjacent(0, 1));
  EXPECT_FALSE(g.adjacent(1, 2));
  EXPECT_DOUBLE_EQ(g.total_interactions(1), 0.0);
  EXPECT_DOUBLE_EQ(g.interaction(0, 1), 0.0);
  // Node 0's other interactions survive and totals stay consistent.
  EXPECT_DOUBLE_EQ(g.interaction(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(g.total_interactions(0), 2.0);
}

TEST(ClearRequests, ErasesHistoryKeepsProfile) {
  core::InterestProfiles p(2, 4);
  std::vector<reputation::InterestId> set{1, 2};
  p.set_interests(0, set);
  p.record_request(0, 1, 5.0);
  p.clear_requests(0);
  EXPECT_DOUBLE_EQ(p.total_requests(0), 0.0);
  EXPECT_EQ(p.declared(0).size(), 2u);
}

// --- simulator plumbing ------------------------------------------------------------

TEST(Whitewash, SimulatorResetsIdentity) {
  sim::SimConfig cfg;
  cfg.node_count = 40;
  cfg.pretrusted_count = 2;
  cfg.colluder_count = 4;
  cfg.simulation_cycles = 2;
  cfg.query_cycles_per_cycle = 4;
  sim::Simulator simulator(cfg, sim::make_paper_eigentrust_factory(),
                           nullptr, 9);
  auto result = simulator.run();
  (void)result;
  NodeId target = 5;
  EXPECT_EQ(simulator.whitewash_count(target), 0u);
  EXPECT_EQ(simulator.whitewash(target), 1u);
  EXPECT_EQ(simulator.whitewash_count(target), 1u);
  EXPECT_DOUBLE_EQ(simulator.system().reputation(target), 0.0);
  EXPECT_DOUBLE_EQ(simulator.social_graph().total_interactions(target), 0.0);
  EXPECT_DOUBLE_EQ(simulator.profiles().total_requests(target), 0.0);
}

// --- end-to-end attack dynamics ----------------------------------------------------

sim::ExperimentConfig ww_config() {
  sim::ExperimentConfig config;
  config.sim.node_count = 120;
  config.sim.pretrusted_count = 6;
  config.sim.colluder_count = 18;
  config.sim.colluder_authentic = 0.6;
  config.sim.simulation_cycles = 20;
  config.sim.query_cycles_per_cycle = 15;
  config.runs = 2;
  config.base_seed = 4242;
  return config;
}

TEST(Whitewash, AttackActuallyWhitewashes) {
  // Under SocialTrust the colluders get suppressed and the strategy
  // actually pulls the reset lever.
  auto config = ww_config();
  auto strategy = std::make_unique<collusion::WhitewashingCollusion>();
  auto* raw = strategy.get();
  sim::Simulator simulator(
      config.sim,
      sim::make_socialtrust_factory(sim::make_paper_eigentrust_factory()),
      std::move(strategy), 7);
  simulator.run();
  EXPECT_GT(raw->total_whitewashes(), 0u);
}

TEST(Whitewash, SocialTrustStillSuppresses) {
  // Whitewashing does not rescue the colluders: a fresh identity has no
  // earned reputation, so its partner's ratings carry (almost) no weight,
  // and the rebuilt concentration pattern is re-detected within a cycle.
  auto config = ww_config();
  sim::StrategyFactory strategy = [] {
    return std::make_unique<collusion::WhitewashingCollusion>();
  };
  auto guarded = run_experiment(
      config,
      sim::make_socialtrust_factory(sim::make_paper_eigentrust_factory()),
      strategy);
  EXPECT_LT(guarded.colluder_mean.mean(), guarded.normal_mean.mean());
}

}  // namespace
}  // namespace st
