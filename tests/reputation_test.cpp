// Unit tests for st::reputation — the rating ledger and its pair grouping,
// faithful EigenTrust (against a dense power-iteration oracle and
// hand-worked cases), the paper's EigenTrust variant, and the eBay
// baseline's dedup semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "reputation/ebay.hpp"
#include "reputation/eigentrust.hpp"
#include "reputation/ledger.hpp"
#include "reputation/paper_eigentrust.hpp"
#include "stats/rng.hpp"

namespace st::reputation {
namespace {

Rating make(NodeId rater, NodeId ratee, double value) {
  Rating r;
  r.rater = rater;
  r.ratee = ratee;
  r.value = value;
  return r;
}

// --- RatingLedger ------------------------------------------------------------

TEST(Ledger, CycleLifecycle) {
  RatingLedger ledger;
  EXPECT_EQ(ledger.current_cycle(), 0u);
  ledger.record(make(0, 1, 1.0));
  ledger.record(make(0, 1, -1.0));
  EXPECT_EQ(ledger.open_cycle().size(), 2u);
  EXPECT_TRUE(ledger.last_cycle().empty());

  EXPECT_EQ(ledger.close_cycle(), 0u);
  EXPECT_EQ(ledger.current_cycle(), 1u);
  ASSERT_EQ(ledger.last_cycle().size(), 2u);
  EXPECT_EQ(ledger.last_cycle()[1].value, -1.0);
  EXPECT_TRUE(ledger.open_cycle().empty());
  EXPECT_EQ(ledger.total_ratings(), 2u);
  const Rating* first_buffer = ledger.last_cycle().data();

  // The second close retires cycle 0's buffer, and cycle 2 records into
  // it: the ledger swaps its two buffers instead of growing a new one.
  ledger.record(make(2, 3, 1.0));
  EXPECT_EQ(ledger.close_cycle(), 1u);
  ASSERT_EQ(ledger.last_cycle().size(), 1u);
  EXPECT_EQ(ledger.last_cycle()[0].rater, 2u);
  EXPECT_EQ(ledger.last_cycle()[0].cycle, 1u);
  EXPECT_TRUE(ledger.open_cycle().empty());
  ledger.record(make(4, 5, -1.0));
  EXPECT_EQ(ledger.open_cycle().data(), first_buffer);
  ledger.record(make(5, 4, 1.0));

  EXPECT_EQ(ledger.close_cycle(), 2u);
  EXPECT_EQ(ledger.current_cycle(), 3u);
  ASSERT_EQ(ledger.last_cycle().size(), 2u);
  EXPECT_EQ(ledger.last_cycle().data(), first_buffer);
  EXPECT_EQ(ledger.last_cycle()[0].rater, 4u);
  EXPECT_EQ(ledger.last_cycle()[1].rater, 5u);
  EXPECT_EQ(ledger.last_cycle()[1].cycle, 2u);
  EXPECT_TRUE(ledger.open_cycle().empty());
  EXPECT_EQ(ledger.total_ratings(), 5u);
}

TEST(Ledger, StampsCycleOnRecord) {
  RatingLedger ledger;
  ledger.record(make(0, 1, 1.0));
  ledger.close_cycle();
  ledger.record(make(0, 1, 1.0));
  ledger.close_cycle();
  EXPECT_EQ(ledger.last_cycle()[0].cycle, 1u);
}

TEST(Ledger, ClearResetsEverything) {
  RatingLedger ledger;
  ledger.record(make(0, 1, 1.0));
  ledger.close_cycle();
  ledger.clear();
  EXPECT_EQ(ledger.current_cycle(), 0u);
  EXPECT_EQ(ledger.total_ratings(), 0u);
  EXPECT_TRUE(ledger.last_cycle().empty());
}

// --- group_pairs -------------------------------------------------------------

/// One pair's run: its key and its ratings' stream indices.
using PairRun = std::pair<PairKey, std::vector<std::uint32_t>>;

/// Every run of `pairs`, in run order.
std::vector<PairRun> runs_of(const PairRuns& pairs) {
  std::vector<PairRun> out;
  EXPECT_EQ(pairs.starts.size(), pairs.size() + 1);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    auto run = pairs.run(p);
    out.emplace_back(pairs.keys[p],
                     std::vector<std::uint32_t>(run.begin(), run.end()));
  }
  return out;
}

TEST(GroupPairs, CanonicalPairOrderStreamOrderWithin) {
  const std::vector<Rating> stream{
      make(2, 1, 1.0),  make(0, 3, -1.0), make(2, 0, 1.0), make(0, 1, 1.0),
      make(2, 1, -1.0), make(0, 3, 1.0),  make(1, 0, 0.0), make(0, 1, 1.0),
      make(2, 1, 1.0)};
  const PairRuns pairs = group_pairs(stream, 4);
  const std::vector<PairRun> expected{
      {PairKey{0, 1}, {3, 7}}, {PairKey{0, 3}, {1, 5}}, {PairKey{1, 0}, {6}},
      {PairKey{2, 0}, {2}},    {PairKey{2, 1}, {0, 4, 8}}};
  EXPECT_EQ(runs_of(pairs), expected);
  EXPECT_EQ(pairs.indices.size(), stream.size());
}

TEST(GroupPairs, InvalidRatingsBelongToNoRun) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Rating> stream{
      make(0, 1, std::numeric_limits<double>::quiet_NaN()),
      make(0, 1, kInf),
      make(0, 1, -kInf),
      make(2, 2, 1.0),   // self-rating
      make(5, 1, 1.0),   // rater out of range
      make(1, 5, 1.0),   // ratee out of range
      make(0, 1, 1.0),
      make(4, 3, -1.0),  // rater and ratee out of range
      make(1, 0, 1.0)};
  const PairRuns pairs = group_pairs(stream, 3);
  const std::vector<PairRun> expected{{PairKey{0, 1}, {6}},
                                      {PairKey{1, 0}, {8}}};
  EXPECT_EQ(runs_of(pairs), expected);
  EXPECT_EQ(pairs.indices.size(), 2u);
}

TEST(GroupPairs, EmptyAndAllInvalidStreamsHaveNoPairs) {
  for (const std::vector<Rating>& stream :
       {std::vector<Rating>{}, std::vector<Rating>{make(1, 1, 1.0)}}) {
    const PairRuns pairs = group_pairs(stream, 4);
    EXPECT_EQ(pairs.size(), 0u);
    EXPECT_TRUE(pairs.indices.empty());
    EXPECT_EQ(pairs.starts, std::vector<std::uint32_t>{0});
  }
}

TEST(GroupPairs, LastNodeAtEitherEnd) {
  // Node n - 1 is the last slot of both count arrays.
  const std::vector<Rating> stream{make(6, 0, 1.0), make(0, 6, 1.0),
                                   make(6, 0, -1.0), make(5, 6, 1.0)};
  const PairRuns pairs = group_pairs(stream, 7);
  const std::vector<PairRun> expected{
      {PairKey{0, 6}, {1}}, {PairKey{5, 6}, {3}}, {PairKey{6, 0}, {0, 2}}};
  EXPECT_EQ(runs_of(pairs), expected);
}

TEST(GroupPairs, RejectsStreamsBeyondThirtyTwoBitIndices) {
  // The guard throws before any rating is read, so one rating viewed with
  // a longer length never dereferences past it.
  const Rating one = make(0, 1, 1.0);
  const std::span<const Rating> oversized(
      &one, std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1);
  EXPECT_THROW(group_pairs(oversized, 2), std::length_error);
}

// --- EigenTrust (faithful) ----------------------------------------------------

TEST(EigenTrustTest, InitialIsTeleportDistribution) {
  EigenTrust et(4, {0, 1});
  EXPECT_DOUBLE_EQ(et.reputation(0), 0.5);
  EXPECT_DOUBLE_EQ(et.reputation(1), 0.5);
  EXPECT_DOUBLE_EQ(et.reputation(2), 0.0);
}

TEST(EigenTrustTest, NoPretrustedFallsBackToUniform) {
  EigenTrust et(4, {});
  for (NodeId v = 0; v < 4; ++v) EXPECT_DOUBLE_EQ(et.reputation(v), 0.25);
}

TEST(EigenTrustTest, OutputIsProbabilityVector) {
  stats::Rng rng(5);
  EigenTrust et(10, {0});
  std::vector<Rating> ratings;
  for (int i = 0; i < 300; ++i) {
    ratings.push_back(make(static_cast<NodeId>(rng.index(10)),
                           static_cast<NodeId>(rng.index(10)),
                           rng.bernoulli(0.7) ? 1.0 : -1.0));
  }
  et.update(ratings);
  double sum = 0.0;
  for (double r : et.reputations()) {
    EXPECT_GE(r, 0.0);
    sum += r;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(EigenTrustTest, FixedPointSatisfiesUpdateEquation) {
  // t = (1-a) C^T t + a p must hold at convergence.
  stats::Rng rng(7);
  const std::size_t n = 6;
  EigenTrust et(n, {0});
  std::vector<Rating> ratings;
  for (int i = 0; i < 100; ++i) {
    auto a = static_cast<NodeId>(rng.index(n));
    auto b = static_cast<NodeId>(rng.index(n));
    if (a == b) continue;
    ratings.push_back(make(a, b, 1.0));
  }
  et.update(ratings);
  auto t = et.reputations();
  // Rebuild C from local_trust and apply one more update step by hand.
  std::vector<double> next(n, 0.0);
  std::vector<bool> empty_row(n, true);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      double c = et.local_trust(i, j);
      if (c > 0.0) empty_row[i] = false;
      next[j] += c * t[i];
    }
  }
  double empty_mass = 0.0;
  for (NodeId i = 0; i < n; ++i)
    if (empty_row[i]) empty_mass += t[i];
  const double a = et.config().pretrusted_weight;
  for (NodeId j = 0; j < n; ++j) {
    double p = (j == 0) ? 1.0 : 0.0;
    double expect = (1.0 - a) * (next[j] + empty_mass * p) + a * p;
    EXPECT_NEAR(expect, t[j], 1e-6) << "j=" << j;
  }
}

TEST(EigenTrustTest, LocalTrustClampsNegativesAndNormalizes) {
  EigenTrust et(3, {0});
  std::vector<Rating> ratings{make(0, 1, 3.0), make(0, 2, -5.0)};
  et.update(ratings);
  EXPECT_DOUBLE_EQ(et.local_trust(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(et.local_trust(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(et.raw_trust(0, 2), -5.0);
}

TEST(EigenTrustTest, PretrustedTeleportGuaranteesFloor) {
  // With teleport weight a, every pretrusted node holds at least a/|P|.
  EigenTrust et(8, {0, 1});
  std::vector<Rating> ratings;
  // Everyone praises node 7 heavily.
  for (NodeId i = 0; i < 7; ++i)
    for (int k = 0; k < 50; ++k) ratings.push_back(make(i, 7, 1.0));
  et.update(ratings);
  EXPECT_GE(et.reputation(0), 0.5 / 2.0 - 1e-9);
  EXPECT_GE(et.reputation(1), 0.5 / 2.0 - 1e-9);
}

TEST(EigenTrustTest, IgnoresSelfAndOutOfRangeRatings) {
  EigenTrust et(3, {0});
  std::vector<Rating> ratings{make(1, 1, 5.0), make(9, 1, 5.0),
                              make(1, 9, 5.0)};
  et.update(ratings);
  EXPECT_DOUBLE_EQ(et.raw_trust(1, 1), 0.0);
}

TEST(EigenTrustTest, ResetRestoresInitialState) {
  EigenTrust et(3, {0});
  std::vector<Rating> ratings{make(1, 2, 1.0)};
  et.update(ratings);
  et.reset();
  EXPECT_DOUBLE_EQ(et.reputation(0), 1.0);
  EXPECT_DOUBLE_EQ(et.raw_trust(1, 2), 0.0);
}

TEST(EigenTrustTest, ConvergesWithinIterationBudget) {
  stats::Rng rng(11);
  EigenTrust et(50, {0, 1, 2});
  std::vector<Rating> ratings;
  for (int i = 0; i < 3000; ++i) {
    ratings.push_back(make(static_cast<NodeId>(rng.index(50)),
                           static_cast<NodeId>(rng.index(50)), 1.0));
  }
  et.update(ratings);
  EXPECT_LT(et.last_iterations(), et.config().max_iterations);
}

// --- PaperEigenTrust ----------------------------------------------------------

PaperEigenTrustConfig plain_config() {
  // Most unit tests want the raw weighted-accumulation arithmetic without
  // the simulation-scale damping heuristics.
  PaperEigenTrustConfig cfg;
  cfg.weight_prior_mass = 0.0;
  cfg.rater_weight_floor = 0.0;
  cfg.pair_contribution_cap = std::numeric_limits<double>::infinity();
  return cfg;
}

TEST(PaperEigenTrustTest, StartsAtZero) {
  PaperEigenTrust pet(4, {0}, plain_config());
  for (NodeId v = 0; v < 4; ++v) EXPECT_DOUBLE_EQ(pet.reputation(v), 0.0);
}

TEST(PaperEigenTrustTest, PretrustedRatingsSeedReputation) {
  PaperEigenTrust pet(4, {0}, plain_config());
  std::vector<Rating> cycle1{make(0, 1, 1.0), make(2, 3, 1.0)};
  pet.update(cycle1);
  // Node 3's rating came from a zero-reputation rater: no effect.
  EXPECT_DOUBLE_EQ(pet.reputation(1), 1.0);
  EXPECT_DOUBLE_EQ(pet.reputation(3), 0.0);
  EXPECT_DOUBLE_EQ(pet.raw_score(1), 0.5);
}

TEST(PaperEigenTrustTest, WeightsUsePreviousCycleReputation) {
  PaperEigenTrust pet(4, {0}, plain_config());
  pet.update(std::vector<Rating>{make(0, 1, 1.0)});  // rep(1) = 1
  // Now node 1 (weight 1.0) and node 2 (weight 0) rate node 3.
  pet.update(std::vector<Rating>{make(1, 3, 1.0), make(2, 3, 1.0)});
  EXPECT_DOUBLE_EQ(pet.raw_score(3), 1.0);
}

TEST(PaperEigenTrustTest, NegativeScoresClampToZeroReputation) {
  PaperEigenTrust pet(3, {0}, plain_config());
  pet.update(std::vector<Rating>{make(0, 1, -1.0), make(0, 2, 1.0)});
  EXPECT_DOUBLE_EQ(pet.reputation(1), 0.0);
  EXPECT_LT(pet.raw_score(1), 0.0);
  EXPECT_DOUBLE_EQ(pet.reputation(2), 1.0);
}

TEST(PaperEigenTrustTest, PairContributionCapSaturates) {
  PaperEigenTrustConfig cfg = plain_config();
  cfg.pair_contribution_cap = 10.0;
  PaperEigenTrust pet(3, {0}, cfg);
  std::vector<Rating> cycle;
  for (int i = 0; i < 500; ++i) cycle.push_back(make(0, 1, 1.0));
  cycle.push_back(make(0, 2, 1.0));
  pet.update(cycle);
  EXPECT_DOUBLE_EQ(pet.raw_score(1), 0.5 * 10.0);
  EXPECT_DOUBLE_EQ(pet.raw_score(2), 0.5 * 1.0);
}

TEST(PaperEigenTrustTest, WeightPriorDampsEarlyWeights) {
  PaperEigenTrustConfig cfg = plain_config();
  cfg.weight_prior_mass = 9.0;
  PaperEigenTrust pet(4, {0}, cfg);
  pet.update(std::vector<Rating>{make(0, 1, 2.0)});  // raw(1) = 1.0
  // Published reputation is share-normalised (1.0), but the *rater weight*
  // is damped: 1.0 / (1.0 + 9.0) = 0.1.
  EXPECT_DOUBLE_EQ(pet.reputation(1), 1.0);
  EXPECT_DOUBLE_EQ(pet.rater_weight(1), 0.1);
  pet.update(std::vector<Rating>{make(1, 2, 1.0)});
  EXPECT_DOUBLE_EQ(pet.raw_score(2), 0.1);
}

TEST(PaperEigenTrustTest, WeightFloorKeepsFreshRatersAlive) {
  PaperEigenTrustConfig cfg = plain_config();
  cfg.rater_weight_floor = 0.01;
  PaperEigenTrust pet(3, {0}, cfg);
  pet.update(std::vector<Rating>{make(1, 2, 1.0)});
  EXPECT_DOUBLE_EQ(pet.raw_score(2), 0.01);
}

TEST(PaperEigenTrustTest, FrequencyAmplification) {
  // Two colluders with earned reputation and high mutual frequency beat a
  // same-reputation honest node rated once per cycle — the vulnerability
  // the paper's Fig. 8(a) demonstrates.
  PaperEigenTrust pet(5, {0}, plain_config());
  // Seed: pretrusted rates colluders (1,2) and honest (3) equally.
  pet.update(std::vector<Rating>{make(0, 1, 1.0), make(0, 2, 1.0),
                                 make(0, 3, 1.0)});
  for (int cycle = 0; cycle < 5; ++cycle) {
    std::vector<Rating> ratings;
    for (int k = 0; k < 40; ++k) {
      ratings.push_back(make(1, 2, 1.0));
      ratings.push_back(make(2, 1, 1.0));
    }
    ratings.push_back(make(0, 3, 1.0));  // honest praise, once
    pet.update(ratings);
  }
  EXPECT_GT(pet.reputation(1), pet.reputation(3));
  EXPECT_GT(pet.reputation(2), pet.reputation(3));
}

TEST(PaperEigenTrustTest, NameMatchesPaperLabel) {
  PaperEigenTrust pet(2, {});
  EXPECT_EQ(pet.name(), "EigenTrust");
}

TEST(PaperEigenTrustTest, Validation) {
  EXPECT_THROW(PaperEigenTrust(0, {}), std::invalid_argument);
  EXPECT_THROW(PaperEigenTrust(2, {5}), std::out_of_range);
  PaperEigenTrust pet(2, {});
  EXPECT_THROW(pet.reputation(2), std::out_of_range);
}

// --- EbayReputation -----------------------------------------------------------

TEST(Ebay, StartsAtZero) {
  EbayReputation ebay(3);
  for (NodeId v = 0; v < 3; ++v) EXPECT_DOUBLE_EQ(ebay.reputation(v), 0.0);
}

TEST(Ebay, PairDedupCountsOneRatingPerCycle) {
  EbayReputation ebay(3);
  std::vector<Rating> cycle;
  for (int i = 0; i < 100; ++i) cycle.push_back(make(0, 1, 1.0));
  cycle.push_back(make(2, 1, 1.0));
  ebay.update(cycle);
  // 100 ratings from node 0 collapse to +1; node 2 contributes +1.
  EXPECT_DOUBLE_EQ(ebay.raw_score(1), 2.0);
}

TEST(Ebay, PairSumDecidesSign) {
  EbayReputation ebay(3);
  std::vector<Rating> cycle{make(0, 1, 1.0), make(0, 1, -1.0),
                            make(0, 1, -1.0)};
  ebay.update(cycle);
  EXPECT_DOUBLE_EQ(ebay.raw_score(1), -1.0);
  EXPECT_DOUBLE_EQ(ebay.reputation(1), 0.0);  // clamped for publication
}

TEST(Ebay, FractionalAdjustedValuesSurvive) {
  // A plugin-downweighted pair (many ratings x tiny weight) must not round
  // back up to a full vote.
  EbayReputation ebay(3);
  std::vector<Rating> cycle;
  for (int i = 0; i < 600; ++i) cycle.push_back(make(0, 1, 1e-4));
  ebay.update(cycle);
  EXPECT_NEAR(ebay.raw_score(1), 0.06, 1e-9);
}

TEST(Ebay, AccumulatesAcrossCycles) {
  EbayReputation ebay(3);
  for (int cycle = 0; cycle < 5; ++cycle) {
    ebay.update(std::vector<Rating>{make(0, 1, 1.0), make(2, 1, 1.0)});
  }
  EXPECT_DOUBLE_EQ(ebay.raw_score(1), 10.0);
}

TEST(Ebay, NormalizationIsShareOfPositiveMass) {
  EbayReputation ebay(4);
  ebay.update(std::vector<Rating>{make(0, 1, 1.0), make(0, 2, 1.0),
                                  make(1, 2, 1.0), make(3, 0, -1.0)});
  // raw: node1=1, node2=2, node0=-1 -> positive mass 3.
  EXPECT_NEAR(ebay.reputation(1), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(ebay.reputation(2), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(ebay.reputation(0), 0.0);
  double sum = std::accumulate(ebay.reputations().begin(),
                               ebay.reputations().end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Ebay, SlowUpdatesRelativeToPaperEigenTrust) {
  // Fig. 19's premise: eBay converges much more slowly. One pretrusted
  // endorsement moves PaperEigenTrust immediately; eBay needs repeated
  // cycles to differentiate.
  PaperEigenTrust pet(3, {0});
  EbayReputation ebay(3);
  std::vector<Rating> praise;
  for (int i = 0; i < 30; ++i) praise.push_back(make(0, 1, 1.0));
  pet.update(praise);
  ebay.update(praise);
  EXPECT_DOUBLE_EQ(pet.reputation(1), 1.0);
  EXPECT_DOUBLE_EQ(ebay.raw_score(1), 1.0);  // one deduped vote only
}

TEST(Ebay, ResetClearsState) {
  EbayReputation ebay(2);
  ebay.update(std::vector<Rating>{make(0, 1, 1.0)});
  ebay.reset();
  EXPECT_DOUBLE_EQ(ebay.raw_score(1), 0.0);
  EXPECT_DOUBLE_EQ(ebay.reputation(1), 0.0);
}

TEST(Ebay, Validation) {
  EXPECT_THROW(EbayReputation(0), std::invalid_argument);
  EbayReputation ebay(2);
  EXPECT_THROW(ebay.reputation(5), std::out_of_range);
  EXPECT_THROW(ebay.raw_score(5), std::out_of_range);
}

// --- cross-system property sweeps ---------------------------------------------

class SystemProperty : public ::testing::TestWithParam<int> {
 public:
  std::unique_ptr<ReputationSystem> make_system(std::size_t n) {
    switch (GetParam()) {
      case 0:
        return std::make_unique<EigenTrust>(n, std::vector<NodeId>{0});
      case 1:
        return std::make_unique<PaperEigenTrust>(n, std::vector<NodeId>{0});
      default:
        return std::make_unique<EbayReputation>(n);
    }
  }
};

TEST_P(SystemProperty, ReputationsStayNormalizedUnderRandomLoad) {
  auto system = make_system(20);
  stats::Rng rng(GetParam() + 100);
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::vector<Rating> ratings;
    for (int i = 0; i < 200; ++i) {
      ratings.push_back(make(static_cast<NodeId>(rng.index(20)),
                             static_cast<NodeId>(rng.index(20)),
                             rng.bernoulli(0.8) ? 1.0 : -1.0));
    }
    system->update(ratings);
    double sum = 0.0;
    for (double r : system->reputations()) {
      EXPECT_GE(r, -1e-12);
      EXPECT_LE(r, 1.0 + 1e-12);
      sum += r;
    }
    EXPECT_LE(sum, 1.0 + 1e-9);
  }
}

TEST_P(SystemProperty, EmptyUpdateIsHarmless) {
  auto system = make_system(5);
  system->update({});
  for (double r : system->reputations()) {
    EXPECT_GE(r, 0.0);
  }
}

TEST_P(SystemProperty, ResetThenUpdateMatchesFreshInstance) {
  auto a = make_system(10);
  auto b = make_system(10);
  stats::Rng rng(17);
  std::vector<Rating> noise;
  for (int i = 0; i < 100; ++i) {
    noise.push_back(make(static_cast<NodeId>(rng.index(10)),
                         static_cast<NodeId>(rng.index(10)), 1.0));
  }
  a->update(noise);
  a->reset();
  std::vector<Rating> load{make(0, 1, 1.0), make(0, 2, 1.0)};
  a->update(load);
  b->update(load);
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_DOUBLE_EQ(a->reputation(v), b->reputation(v));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SystemProperty,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace st::reputation
