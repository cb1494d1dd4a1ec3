// Tests for the extension components: Beta reputation, the bad-mouthing
// (negative-rating) collusion flavour, and graph serialisation.

#include <gtest/gtest.h>

#include <sstream>

#include "collusion/badmouthing.hpp"
#include "core/socialtrust.hpp"
#include "graph/io.hpp"
#include "reputation/beta.hpp"
#include "sim/experiment.hpp"
#include "sim/factories.hpp"

namespace st {
namespace {

using reputation::BetaReputation;
using reputation::NodeId;
using reputation::Rating;

Rating make(NodeId rater, NodeId ratee, double value) {
  Rating r;
  r.rater = rater;
  r.ratee = ratee;
  r.value = value;
  return r;
}

// --- BetaReputation ------------------------------------------------------------

TEST(Beta, PriorExpectationIsHalf) {
  BetaReputation beta(4);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(beta.beta_expectation(v), 0.5);
  }
}

TEST(Beta, HandComputedExpectation) {
  BetaReputation beta(3);
  beta.update(std::vector<Rating>{make(0, 1, 1.0), make(2, 1, 1.0),
                                  make(0, 2, -1.0)});
  // Node 1: p=2, n=0 -> 3/4. Node 2: p=0, n=1 -> 1/3.
  EXPECT_DOUBLE_EQ(beta.beta_expectation(1), 0.75);
  EXPECT_DOUBLE_EQ(beta.beta_expectation(2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(beta.positive_mass(1), 2.0);
  EXPECT_DOUBLE_EQ(beta.negative_mass(2), 1.0);
}

TEST(Beta, PublishedVectorNormalized) {
  BetaReputation beta(3);
  beta.update(std::vector<Rating>{make(0, 1, 1.0)});
  double sum = 0.0;
  for (double r : beta.reputations()) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Beta, ForgettingDiscountsOldEvidence) {
  reputation::BetaReputationConfig config;
  config.forgetting = 0.5;
  BetaReputation beta(2, config);
  beta.update(std::vector<Rating>{make(0, 1, 1.0)});
  EXPECT_DOUBLE_EQ(beta.positive_mass(1), 1.0);
  beta.update({});  // a quiet interval halves the evidence
  EXPECT_DOUBLE_EQ(beta.positive_mass(1), 0.5);
}

TEST(Beta, FractionalValuesAccumulate) {
  BetaReputation beta(2);
  std::vector<Rating> tiny(10, make(0, 1, 0.1));
  beta.update(tiny);
  EXPECT_NEAR(beta.positive_mass(1), 1.0, 1e-12);
}

TEST(Beta, Validation) {
  EXPECT_THROW(BetaReputation(0), std::invalid_argument);
  reputation::BetaReputationConfig bad;
  bad.forgetting = 0.0;
  EXPECT_THROW(BetaReputation(2, bad), std::invalid_argument);
  bad.forgetting = 1.5;
  EXPECT_THROW(BetaReputation(2, bad), std::invalid_argument);
}

TEST(Beta, WorksUnderSocialTrustPlugin) {
  graph::SocialGraph g(10);
  core::InterestProfiles p(10, 4);
  core::SocialTrustPlugin plugin(std::make_unique<BetaReputation>(10), g, p);
  EXPECT_EQ(plugin.name(), "Beta+SocialTrust");
  plugin.update(std::vector<Rating>{make(0, 1, 1.0)});
  EXPECT_GT(plugin.reputation(1), plugin.reputation(2));
}

// --- BadMouthingCollusion --------------------------------------------------------

sim::SimConfig bm_config() {
  sim::SimConfig cfg;
  cfg.node_count = 80;
  cfg.pretrusted_count = 4;
  cfg.colluder_count = 8;
  cfg.simulation_cycles = 8;
  cfg.query_cycles_per_cycle = 10;
  return cfg;
}

TEST(BadMouthing, AssignsVictimsSharingInterests) {
  auto strategy = std::make_unique<collusion::BadMouthingCollusion>();
  auto* raw = strategy.get();
  sim::Simulator sim(bm_config(), sim::make_paper_eigentrust_factory(),
                     std::move(strategy), 3);
  EXPECT_FALSE(raw->assignments().empty());
  for (const auto& [attacker, victim] : raw->assignments()) {
    EXPECT_EQ(sim.node_type(attacker), sim::NodeType::kColluder);
    EXPECT_EQ(sim.node_type(victim), sim::NodeType::kNormal);
  }
}

TEST(BadMouthing, TargetPretrustedOption) {
  collusion::BadMouthingOptions options;
  options.target_pretrusted = true;
  auto strategy =
      std::make_unique<collusion::BadMouthingCollusion>(options);
  auto* raw = strategy.get();
  sim::Simulator sim(bm_config(), sim::make_paper_eigentrust_factory(),
                     std::move(strategy), 3);
  for (const auto& [attacker, victim] : raw->assignments()) {
    EXPECT_EQ(sim.node_type(victim), sim::NodeType::kPretrusted);
  }
}

TEST(BadMouthing, EmitsNegativeFakeRatings) {
  collusion::BadMouthingOptions options;
  options.ratings_per_query_cycle = 5;
  options.victims_per_colluder = 1;
  auto strategy =
      std::make_unique<collusion::BadMouthingCollusion>(options);
  auto* raw = strategy.get();
  sim::Simulator sim(bm_config(), sim::make_paper_eigentrust_factory(),
                     std::move(strategy), 3);
  auto result = sim.run();
  EXPECT_EQ(result.fake_ratings,
            raw->assignments().size() * 5u * 10u * 8u);
}

TEST(BadMouthing, SocialTrustProtectsVictims) {
  // Victims keep (more of) their reputation when SocialTrust attenuates
  // the high-frequency negative ratings (behaviour B4 at system level).
  sim::ExperimentConfig config;
  config.sim = bm_config();
  config.sim.simulation_cycles = 15;
  config.runs = 2;
  config.base_seed = 77;
  sim::StrategyFactory strategy = [] {
    collusion::BadMouthingOptions options;
    options.target_pretrusted = true;
    return std::make_unique<collusion::BadMouthingCollusion>(options);
  };
  auto plain = run_experiment(config, sim::make_ebay_factory(), strategy);
  auto guarded = run_experiment(
      config, sim::make_socialtrust_factory(sim::make_ebay_factory()),
      strategy);
  EXPECT_GT(guarded.pretrusted_mean.mean(),
            plain.pretrusted_mean.mean() * 0.99);
}

// --- graph serialisation -----------------------------------------------------------

graph::SocialGraph sample_graph() {
  graph::SocialGraph g(5);
  g.add_relationship(0, 1, graph::Relationship::kFriendship);
  g.add_relationship(0, 1, graph::Relationship::kKinship);
  g.add_relationship(2, 3, graph::Relationship::kBusiness);
  g.record_interaction(0, 1, 3.5);
  g.record_interaction(1, 4, 2.0);
  return g;
}

TEST(GraphIo, EdgeListRoundTrip) {
  graph::SocialGraph original = sample_graph();
  std::stringstream buffer;
  graph::write_edge_list(buffer, original);
  graph::SocialGraph copy = graph::read_edge_list(buffer);
  ASSERT_EQ(copy.size(), original.size());
  EXPECT_EQ(copy.pending_delta(), 0u) << "loaded graphs come compacted";
  for (graph::NodeId a = 0; a < original.size(); ++a) {
    for (graph::NodeId b = 0; b < original.size(); ++b) {
      EXPECT_EQ(copy.relationship_count(a, b),
                original.relationship_count(a, b));
      EXPECT_DOUBLE_EQ(copy.interaction(a, b), original.interaction(a, b));
    }
  }
}

TEST(GraphIo, DotOutputContainsEdgesAndHighlights) {
  graph::SocialGraph g = sample_graph();
  std::stringstream buffer;
  std::vector<graph::NodeId> marked{2};
  graph::write_dot(buffer, g, marked);
  std::string dot = buffer.str();
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -- n3"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=red"), std::string::npos);
  EXPECT_EQ(dot.find("n1 -- n0"), std::string::npos);  // each edge once
}

TEST(GraphIo, ReadRejectsGarbage) {
  std::stringstream bad1("nonsense 5");
  EXPECT_THROW(graph::read_edge_list(bad1), std::runtime_error);
  std::stringstream bad2("socialgraph 3\nx 1 2 3");
  EXPECT_THROW(graph::read_edge_list(bad2), std::runtime_error);
  // Well-formed records write_edge_list never writes: a type bit past
  // kRelationshipCount, an empty type set, a self-edge, a negative count
  // and a self-interaction. Each is rejected, naming the record.
  for (const std::string record :
       {"e 0 1 64", "e 0 1 0", "e 2 2 1", "i 0 1 -2", "i 1 1 4"}) {
    SCOPED_TRACE(record);
    std::stringstream in("socialgraph 3\n" + record + "\n");
    try {
      graph::read_edge_list(in);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + record + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(GraphIo, RelationshipNames) {
  EXPECT_EQ(graph::relationship_name(graph::Relationship::kKinship),
            "kinship");
  EXPECT_EQ(graph::relationship_name(graph::Relationship::kBusiness),
            "business");
}

}  // namespace
}  // namespace st
