// Unit tests for the social-closeness model (Eqs. 2, 3, 4, 10) against
// hand-computed values, and its lambda precondition.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/closeness.hpp"
#include "core/socialtrust.hpp"
#include "reputation/ebay.hpp"

namespace st::core {
namespace {

using graph::NodeId;
using graph::Relationship;
using graph::SocialGraph;

SocialGraph chain_graph() {
  SocialGraph g(5);
  for (NodeId v = 0; v + 1 < 5; ++v)
    g.add_relationship(v, v + 1, Relationship::kFriendship);
  return g;
}

// --- Eq. (2): adjacent, unweighted ---------------------------------------

TEST(Closeness, AdjacentEq2HandComputed) {
  SocialGraph g(4);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.add_relationship(0, 1, Relationship::kColleague);  // m(0,1) = 2
  g.add_relationship(0, 2, Relationship::kFriendship); // m(0,2) = 1
  g.record_interaction(0, 1, 6.0);
  g.record_interaction(0, 2, 4.0);  // total f(0,*) = 10

  ClosenessModel model(/*weighted=*/false);
  EXPECT_DOUBLE_EQ(model.adjacent_closeness(g, 0, 1), 2.0 * 6.0 / 10.0);
  EXPECT_DOUBLE_EQ(model.adjacent_closeness(g, 0, 2), 1.0 * 4.0 / 10.0);
}

TEST(Closeness, AdjacentIsDirectional) {
  // Omega_c(i,j) normalises by *i's* interactions, so it is asymmetric.
  SocialGraph g(3);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.record_interaction(0, 1, 2.0);
  g.record_interaction(0, 2, 8.0);
  g.record_interaction(1, 0, 5.0);  // 1's only interactions

  ClosenessModel model(false);
  EXPECT_DOUBLE_EQ(model.adjacent_closeness(g, 0, 1), 0.2);
  EXPECT_DOUBLE_EQ(model.adjacent_closeness(g, 1, 0), 1.0);
}

TEST(Closeness, AdjacentZeroWithoutInteractions) {
  SocialGraph g(2);
  g.add_relationship(0, 1, Relationship::kFriendship);
  ClosenessModel model(false);
  EXPECT_DOUBLE_EQ(model.adjacent_closeness(g, 0, 1), 0.0);
}

TEST(Closeness, NonAdjacentAdjacentClosenessIsZero) {
  SocialGraph g(3);
  ClosenessModel model(false);
  EXPECT_DOUBLE_EQ(model.adjacent_closeness(g, 0, 2), 0.0);
}

// --- Eq. (10): adjacent, relationship-weighted ----------------------------

TEST(Closeness, WeightedRelationshipMassEq10) {
  SocialGraph g(3);
  g.add_relationship(0, 1, Relationship::kKinship);     // weight 2.0
  g.add_relationship(0, 1, Relationship::kFriendship);  // weight 1.0
  g.add_relationship(0, 1, Relationship::kBusiness);    // weight 0.8
  g.record_interaction(0, 1, 1.0);  // share = 1

  const double lambda = 0.5;
  ClosenessModel model(/*weighted=*/true, lambda);
  // Sorted descending: 2.0, 1.0, 0.8 decayed by lambda^(l-1):
  double expected = 2.0 + 0.5 * 1.0 + 0.25 * 0.8;
  EXPECT_DOUBLE_EQ(model.closeness(g, 0, 1), expected);
}

TEST(Closeness, AddingWeakRelationshipsBarelyMoves) {
  // Section 4.4: colluders adding low-weight relationships only slightly
  // change the closeness under Eq. (10).
  SocialGraph base(3);
  base.add_relationship(0, 1, Relationship::kKinship);
  base.record_interaction(0, 1, 1.0);
  ClosenessModel model(true, 0.5);
  double before = model.closeness(base, 0, 1);
  base.add_relationship(0, 1, Relationship::kBusiness);
  base.add_relationship(0, 1, Relationship::kFriendship);
  double after = model.closeness(base, 0, 1);
  EXPECT_LT(after - before, 0.8);  // far less than the raw added mass 1.8
  // Contrast with the unweighted count of Eq. (2): +2 whole units.
  ClosenessModel unweighted(false);
  SocialGraph g2(3);
  g2.add_relationship(0, 1, Relationship::kKinship);
  g2.record_interaction(0, 1, 1.0);
  double u_before = unweighted.closeness(g2, 0, 1);
  g2.add_relationship(0, 1, Relationship::kBusiness);
  g2.add_relationship(0, 1, Relationship::kFriendship);
  double u_after = unweighted.closeness(g2, 0, 1);
  EXPECT_DOUBLE_EQ(u_after - u_before, 2.0);
}

// --- Eq. (3): friend-of-friend ---------------------------------------------

TEST(Closeness, FofAverageOverCommonFriends) {
  // 0-2-1 and 0-3-1: two common friends.
  SocialGraph g(4);
  g.add_relationship(0, 2, Relationship::kFriendship);
  g.add_relationship(2, 1, Relationship::kFriendship);
  g.add_relationship(0, 3, Relationship::kFriendship);
  g.add_relationship(3, 1, Relationship::kFriendship);
  g.record_interaction(0, 2, 3.0);
  g.record_interaction(0, 3, 1.0);  // f(0,*) = 4
  g.record_interaction(2, 1, 2.0);  // f(2,*) = 2
  g.record_interaction(3, 1, 5.0);  // f(3,*) = 5

  ClosenessModel model(false);
  double c02 = 1.0 * 3.0 / 4.0;   // 0.75
  double c21 = 1.0 * 2.0 / 2.0;   // 1.0
  double c03 = 1.0 * 1.0 / 4.0;   // 0.25
  double c31 = 1.0 * 5.0 / 5.0;   // 1.0
  double expected = (c02 + c21) / 2.0 + (c03 + c31) / 2.0;
  EXPECT_DOUBLE_EQ(model.closeness(g, 0, 1), expected);
}

// --- Eq. (4): bottleneck fallback -------------------------------------------

TEST(Closeness, BottleneckOnChainWithoutCommonFriends) {
  SocialGraph g = chain_graph();  // 0-1-2-3-4
  g.record_interaction(0, 1, 1.0);
  g.record_interaction(1, 2, 4.0);
  g.record_interaction(1, 0, 1.0);  // f(1,*) = 5 -> c(1,2) = 0.8
  g.record_interaction(2, 3, 1.0);

  ClosenessModel model(false);
  // Path 0-1-2-3: adjacent closenesses c(0,1)=1, c(1,2)=0.8, c(2,3)=1.
  EXPECT_DOUBLE_EQ(model.closeness(g, 0, 3), 0.8);
}

TEST(Closeness, UnreachablePairIsZero) {
  SocialGraph g(4);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.add_relationship(2, 3, Relationship::kFriendship);
  g.record_interaction(0, 1, 1.0);
  ClosenessModel model(false);
  EXPECT_DOUBLE_EQ(model.closeness(g, 0, 3), 0.0);
}

TEST(Closeness, SelfClosenessIsZero) {
  SocialGraph g = chain_graph();
  ClosenessModel model(false);
  EXPECT_DOUBLE_EQ(model.closeness(g, 2, 2), 0.0);
}

TEST(Closeness, HopCapLimitsBottleneckSearch) {
  SocialGraph g = chain_graph();
  for (NodeId v = 0; v + 1 < 5; ++v) g.record_interaction(v, v + 1, 1.0);
  ClosenessModel model(false);
  EXPECT_GT(model.closeness(g, 0, 4, /*max_hops=*/4), 0.0);
  EXPECT_DOUBLE_EQ(model.closeness(g, 0, 4, /*max_hops=*/3), 0.0);
}

// --- behavioural properties -------------------------------------------------

TEST(Closeness, ConcentratedInteractionRaisesCloseness) {
  // The colluder signature: routing nearly all interactions to one partner
  // makes that pair's closeness dwarf the rater's other pairs.
  SocialGraph g(10);
  for (NodeId v = 1; v < 10; ++v) {
    g.add_relationship(0, v, Relationship::kFriendship);
    g.record_interaction(0, v, 1.0);
  }
  g.record_interaction(0, 1, 99.0);  // partner gets 100 of 108
  ClosenessModel model(false);
  double partner = model.closeness(g, 0, 1);
  for (NodeId v = 2; v < 10; ++v) {
    EXPECT_GT(partner, 10.0 * model.closeness(g, 0, v));
  }
}

class ClosenessLambdaProperty : public ::testing::TestWithParam<double> {};

TEST_P(ClosenessLambdaProperty, WeightedMassBoundedByUndecayedSum) {
  SocialGraph g(2);
  g.add_relationship(0, 1, Relationship::kKinship);
  g.add_relationship(0, 1, Relationship::kColleague);
  g.add_relationship(0, 1, Relationship::kFriendship);
  g.record_interaction(0, 1, 1.0);
  ClosenessModel model(true, GetParam());
  double mass = model.closeness(g, 0, 1);
  double undecayed = 2.0 + 1.2 + 1.0;
  EXPECT_GT(mass, 0.0);
  EXPECT_LE(mass, undecayed + 1e-12);
  // The top-weighted relationship always contributes fully.
  EXPECT_GE(mass, 2.0);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, ClosenessLambdaProperty,
                         ::testing::Values(0.5, 0.6, 0.8, 1.0));

// lambda must lie in Eq. 10's [0.5, 1]: below 0 some masks would have a
// negative mass (lambda = -2 gives {colleague, classmate} 1.2 - 2 * 1.2),
// so an Eq. 2 value below +0.0, and Eq. 4's zero rule would not hold.
TEST(Closeness, LambdaOutsideItsRangeIsRejected) {
  for (const double lambda :
       {-2.0, std::numeric_limits<double>::quiet_NaN(), 0.49, 1.01}) {
    for (const bool weighted : {true, false}) {
      EXPECT_THROW(ClosenessModel(weighted, lambda), std::invalid_argument)
          << "lambda " << lambda << (weighted ? " weighted" : " unweighted");
    }
  }
  for (const double lambda : {0.5, 1.0}) {
    const ClosenessModel model(true, lambda);
    EXPECT_EQ(model.lambda(), lambda);
  }

  // The plugin builds its model from the config, so a config out of range
  // fails at construction.
  const SocialGraph g(3);
  const InterestProfiles profiles(3, 2);
  SocialTrustConfig config;
  config.lambda = 2.0;
  EXPECT_THROW(SocialTrustPlugin(
                   std::make_unique<reputation::EbayReputation>(3), g,
                   profiles, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace st::core
