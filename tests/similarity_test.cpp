// Unit tests for interest profiles and interest similarity (Eq. 7, the
// histogram-intersection hardening, and the literal Eq. 11).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/similarity.hpp"

namespace st::core {
namespace {

std::vector<InterestId> ids(std::initializer_list<int> list) {
  std::vector<InterestId> out;
  for (int v : list) out.push_back(static_cast<InterestId>(v));
  return out;
}

TEST(Profiles, DeclareSortsAndDeduplicates) {
  InterestProfiles p(2, 10);
  auto set = ids({5, 1, 5, 3, 1});
  p.set_interests(0, set);
  auto declared = p.declared(0);
  EXPECT_EQ(std::vector<InterestId>(declared.begin(), declared.end()),
            ids({1, 3, 5}));
}

TEST(Profiles, DeclareDropsOutOfRangeCategories) {
  InterestProfiles p(1, 4);
  auto set = ids({1, 9, 2});
  p.set_interests(0, set);
  EXPECT_EQ(p.declared(0).size(), 2u);
}

TEST(Profiles, AddRemoveInterest) {
  InterestProfiles p(1, 10);
  p.add_interest(0, 4);
  p.add_interest(0, 2);
  p.add_interest(0, 4);  // duplicate ignored
  EXPECT_EQ(p.declared(0).size(), 2u);
  p.remove_interest(0, 4);
  EXPECT_EQ(std::vector<InterestId>(p.declared(0).begin(),
                                    p.declared(0).end()),
            ids({2}));
  p.remove_interest(0, 9);  // absent: no-op
}

TEST(Profiles, RequestWeightsAreShares) {
  InterestProfiles p(1, 5);
  p.record_request(0, 1, 3.0);
  p.record_request(0, 2, 1.0);
  EXPECT_DOUBLE_EQ(p.request_weight(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(p.request_weight(0, 2), 0.25);
  EXPECT_DOUBLE_EQ(p.request_weight(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(p.total_requests(0), 4.0);
}

TEST(Profiles, RequestWeightZeroWithoutRequests) {
  InterestProfiles p(1, 5);
  EXPECT_DOUBLE_EQ(p.request_weight(0, 1), 0.0);
}

TEST(Profiles, RequestIgnoresInvalidInput) {
  InterestProfiles p(1, 3);
  p.record_request(0, 9, 5.0);   // out-of-range category
  p.record_request(0, 1, -2.0);  // non-positive count
  EXPECT_DOUBLE_EQ(p.total_requests(0), 0.0);
}

TEST(Profiles, EffectiveUnionsDeclaredAndRequested) {
  InterestProfiles p(1, 10);
  p.set_interests(0, ids({1, 2}));
  p.record_request(0, 7, 1.0);
  EXPECT_EQ(p.effective(0), ids({1, 2, 7}));
}

TEST(Profiles, Validation) {
  EXPECT_THROW(InterestProfiles(2, 0), std::invalid_argument);
  InterestProfiles p(2, 3);
  EXPECT_THROW(p.declared(5), std::out_of_range);
  EXPECT_THROW(p.similarity(0, 9), std::out_of_range);
}

// --- Eq. (7) -----------------------------------------------------------------

TEST(Similarity, Eq7HandComputed) {
  InterestProfiles p(2, 10);
  p.set_interests(0, ids({1, 2, 3, 4}));
  p.set_interests(1, ids({3, 4, 5}));
  // |{3,4}| / min(4, 3) = 2/3.
  EXPECT_DOUBLE_EQ(p.similarity(0, 1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.similarity(1, 0), 2.0 / 3.0);  // symmetric
}

TEST(Similarity, IdenticalSetsScoreOne) {
  InterestProfiles p(2, 10);
  p.set_interests(0, ids({2, 4, 6}));
  p.set_interests(1, ids({2, 4, 6}));
  EXPECT_DOUBLE_EQ(p.similarity(0, 1), 1.0);
}

TEST(Similarity, SubsetScoresOne) {
  // min() in the denominator: a strict subset still scores 1.
  InterestProfiles p(2, 10);
  p.set_interests(0, ids({2, 4}));
  p.set_interests(1, ids({2, 4, 6, 8}));
  EXPECT_DOUBLE_EQ(p.similarity(0, 1), 1.0);
}

TEST(Similarity, DisjointSetsScoreZero) {
  InterestProfiles p(2, 10);
  p.set_interests(0, ids({1, 2}));
  p.set_interests(1, ids({3, 4}));
  EXPECT_DOUBLE_EQ(p.similarity(0, 1), 0.0);
}

TEST(Similarity, EmptySetScoresZero) {
  InterestProfiles p(2, 10);
  p.set_interests(1, ids({3}));
  EXPECT_DOUBLE_EQ(p.similarity(0, 1), 0.0);
}

// --- weighted (histogram intersection) ----------------------------------------

TEST(WeightedSimilarity, IdenticalBehaviourScoresOne) {
  InterestProfiles p(2, 10);
  for (NodeId u = 0; u < 2; ++u) {
    p.set_interests(u, ids({1, 2}));
    p.record_request(u, 1, 3.0);
    p.record_request(u, 2, 1.0);
  }
  EXPECT_DOUBLE_EQ(p.weighted_similarity(0, 1), 1.0);
}

TEST(WeightedSimilarity, DisjointBehaviourScoresZero) {
  InterestProfiles p(2, 10);
  p.set_interests(0, ids({1}));
  p.set_interests(1, ids({2}));
  p.record_request(0, 1, 5.0);
  p.record_request(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(p.weighted_similarity(0, 1), 0.0);
}

TEST(WeightedSimilarity, HandComputedIntersection) {
  InterestProfiles p(2, 10);
  p.set_interests(0, ids({1, 2}));
  p.set_interests(1, ids({1, 2}));
  p.record_request(0, 1, 8.0);  // ws(0,1)=0.8, ws(0,2)=0.2
  p.record_request(0, 2, 2.0);
  p.record_request(1, 1, 2.0);  // ws(1,1)=0.2, ws(1,2)=0.8
  p.record_request(1, 2, 8.0);
  // sum of min: min(0.8,0.2) + min(0.2,0.8) = 0.4.
  EXPECT_DOUBLE_EQ(p.weighted_similarity(0, 1), 0.4);
}

TEST(WeightedSimilarity, FalsifiedProfileWithoutRequestsScoresLow) {
  // Section 4.4: declaring the partner's interests without requesting in
  // them buys nothing.
  InterestProfiles p(2, 10);
  p.set_interests(0, ids({1, 2, 3}));
  p.set_interests(1, ids({1, 2, 3}));  // falsified match
  p.record_request(0, 1, 10.0);
  p.record_request(1, 7, 10.0);  // real activity elsewhere
  EXPECT_DOUBLE_EQ(p.weighted_similarity(0, 1), 0.0);
}

TEST(WeightedSimilarity, DeletedInterestStillRevealedByRequests) {
  // Section 4.4: deleting a common interest from the profile does not
  // erase the behavioural trace.
  InterestProfiles p(2, 10);
  p.set_interests(0, ids({5}));  // pruned profile
  p.set_interests(1, ids({1}));
  p.record_request(0, 1, 9.0);  // still requests category 1 heavily
  p.record_request(0, 5, 1.0);
  p.record_request(1, 1, 10.0);
  EXPECT_NEAR(p.weighted_similarity(0, 1), 0.9, 1e-12);
}

// --- literal Eq. (11) ---------------------------------------------------------

TEST(WeightedSimilarityEq11, HandComputed) {
  InterestProfiles p(2, 10);
  p.set_interests(0, ids({1, 2}));
  p.set_interests(1, ids({1, 2, 3}));
  p.record_request(0, 1, 1.0);
  p.record_request(0, 2, 1.0);  // ws(0,*) = 0.5 each
  p.record_request(1, 1, 1.0);
  p.record_request(1, 2, 1.0);
  p.record_request(1, 3, 2.0);  // ws(1,1)=0.25, ws(1,2)=0.25
  // (0.5*0.25 + 0.5*0.25) / min(2, 3) = 0.25 / 2.
  EXPECT_DOUBLE_EQ(p.weighted_similarity_eq11(0, 1), 0.125);
}

TEST(WeightedSimilarityEq11, SelfSimilarityBelowOne) {
  // Documents why the literal formula cannot serve as an anomaly signal:
  // even identical twins score only ~1/k^2.
  InterestProfiles p(2, 10);
  for (NodeId u = 0; u < 2; ++u) {
    p.set_interests(u, ids({1, 2, 3, 4}));
    for (InterestId c = 1; c <= 4; ++c) p.record_request(u, c, 1.0);
  }
  EXPECT_DOUBLE_EQ(p.weighted_similarity_eq11(0, 1),
                   4 * 0.25 * 0.25 / 4.0);  // 0.0625
  EXPECT_DOUBLE_EQ(p.weighted_similarity(0, 1), 1.0);  // intersection: 1
}

// --- property sweeps -----------------------------------------------------------

class SimilarityRangeProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimilarityRangeProperty, AllMeasuresStayInUnitInterval) {
  // Randomised profiles: every similarity variant must stay in [0, 1]
  // and be symmetric.
  InterestProfiles p(6, 12);
  unsigned seed = static_cast<unsigned>(GetParam());
  for (NodeId u = 0; u < 6; ++u) {
    std::vector<InterestId> set;
    for (InterestId c = 0; c < 12; ++c) {
      seed = seed * 1103515245U + 12345U;
      if (seed % 3 == 0) set.push_back(c);
    }
    p.set_interests(u, set);
    for (InterestId c : set) {
      seed = seed * 1103515245U + 12345U;
      p.record_request(0, c, static_cast<double>(seed % 7 + 1));
    }
  }
  for (NodeId a = 0; a < 6; ++a) {
    for (NodeId b = 0; b < 6; ++b) {
      for (double s : {p.similarity(a, b), p.weighted_similarity(a, b),
                       p.weighted_similarity_eq11(a, b)}) {
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0 + 1e-12);
      }
      EXPECT_DOUBLE_EQ(p.similarity(a, b), p.similarity(b, a));
      EXPECT_DOUBLE_EQ(p.weighted_similarity(a, b),
                       p.weighted_similarity(b, a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityRangeProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Similarity, SymmetricBitForBitInBothVariants) {
  // SocialTrustPlugin evaluates Omega_s in the canonical (min, max)
  // orientation whichever way the pair was rated, so both variants must be
  // symmetric to the last bit, not just to EXPECT_DOUBLE_EQ's 4 ulps.
  InterestProfiles p(3, 8);
  p.set_interests(0, ids({1, 2, 5}));
  p.set_interests(1, ids({2, 5, 7}));
  p.record_request(0, 2, 3.0);
  p.record_request(0, 5, 1.0);
  p.record_request(1, 2, 1.0);
  p.record_request(1, 5, 2.0);
  p.record_request(1, 6, 7.0);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(p.similarity(0, 1)), bits(p.similarity(1, 0)));
  EXPECT_EQ(bits(p.weighted_similarity(0, 1)),
            bits(p.weighted_similarity(1, 0)));
  EXPECT_GT(p.weighted_similarity(0, 1), 0.0);
}

// Profile revisions: bump on every observable change, never on no-ops
// (DESIGN.md §13 lists their remaining readers).

TEST(ProfileRevisions, BumpOnlyOnActualChange) {
  InterestProfiles p(3, 8);
  EXPECT_EQ(p.revision(0), 0U);
  EXPECT_EQ(p.epoch(), 0U);

  const InterestId ints[] = {1, 4, 6};
  p.set_interests(0, ints);
  const auto after_set = p.revision(0);
  EXPECT_GT(after_set, 0U);
  EXPECT_EQ(p.revision(1), 0U);  // other nodes untouched
  EXPECT_EQ(p.epoch(), after_set);

  // Re-declaring the identical set (even permuted — declarations are
  // stored sorted) is observably a no-op.
  const InterestId same[] = {6, 1, 4};
  p.set_interests(0, same);
  EXPECT_EQ(p.revision(0), after_set);

  p.add_interest(0, 4);  // already declared: no-op
  EXPECT_EQ(p.revision(0), after_set);
  p.add_interest(0, 7);
  EXPECT_GT(p.revision(0), after_set);

  const auto before_remove = p.revision(0);
  p.remove_interest(0, 3);  // never declared: no-op
  EXPECT_EQ(p.revision(0), before_remove);
  p.remove_interest(0, 7);
  EXPECT_GT(p.revision(0), before_remove);
}

TEST(ProfileRevisions, RequestsAndClearsBumpTheRequester) {
  InterestProfiles p(2, 4);
  const auto rev0 = p.revision(0);

  p.record_request(0, 2, 3.0);
  EXPECT_GT(p.revision(0), rev0);
  EXPECT_EQ(p.revision(1), 0U);

  // Guarded-out requests (bad category, non-positive count) change
  // nothing and must not bump.
  const auto before = p.revision(0);
  p.record_request(0, 99, 1.0);
  p.record_request(0, 2, 0.0);
  EXPECT_EQ(p.revision(0), before);

  p.clear_requests(0);
  EXPECT_GT(p.revision(0), before);
  // Clearing an already-empty history is a no-op.
  const auto after_clear = p.revision(0);
  p.clear_requests(0);
  EXPECT_EQ(p.revision(0), after_clear);
}

}  // namespace
}  // namespace st::core
