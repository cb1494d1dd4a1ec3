// Unit tests for interest profiles and interest similarity (Eq. 7, the
// histogram-intersection hardening, and the literal Eq. 11).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
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
  EXPECT_EQ(p.declared(0), ids({1, 3, 5}));
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
  EXPECT_EQ(p.declared(0), ids({2}));
  p.remove_interest(0, 9);  // absent: no-op
  EXPECT_EQ(p.declared(0), ids({2}));
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

TEST(Profiles, NonFiniteAndNonPositiveCountsChangeNothing) {
  // A NaN or +Inf count would poison the node's total and so every
  // request weight and weighted similarity it enters.
  InterestProfiles p(3, 4);
  p.set_interests(0, ids({1, 2}));
  p.record_request(0, 1, 3.0);
  p.record_request(0, 2, 1.0);
  p.record_request(1, 2, 2.0);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  auto snapshot = [&] {
    std::vector<std::uint64_t> out;
    for (NodeId v = 0; v < 3; ++v) {
      out.push_back(bits(p.total_requests(v)));
      out.push_back(p.effective(v).size());
      for (InterestId c = 0; c < 4; ++c) {
        out.push_back(bits(p.request_weight(v, c)));
      }
      for (NodeId u = 0; u < 3; ++u) {
        out.push_back(bits(p.weighted_similarity(v, u)));
        out.push_back(bits(p.weighted_similarity_eq11(v, u)));
      }
    }
    return out;
  };
  const auto before = snapshot();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), 0.0, -1.0}) {
    for (NodeId v = 0; v < 3; ++v) {
      p.record_request(v, 2, bad);  // a category node 0 and 1 requested
      p.record_request(v, 3, bad);  // a category nobody requested
    }
    EXPECT_EQ(snapshot(), before) << "count " << bad;
  }
  // Node 2 never made a valid request: its history stays empty, and
  // clearing it changes nothing either.
  EXPECT_TRUE(p.effective(2).empty());
  p.clear_requests(2);
  EXPECT_EQ(snapshot(), before);
  // A finite count that would overflow a total near DBL_MAX is dropped
  // whole. Kept, it would make the total +Inf, node 0's share of category
  // 1 NaN and every other share of node 0 zero.
  p.record_request(0, 1, 1e308);
  const auto near_max = snapshot();
  ASSERT_GE(p.total_requests(0), 1e308);
  p.record_request(0, 1, 1e308);  // an existing entry
  p.record_request(0, 3, std::numeric_limits<double>::max());  // a new one
  EXPECT_EQ(snapshot(), near_max);
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Both variants give (a, b) and (b, a) the same bits.
void expect_bit_symmetric(const InterestProfiles& p, NodeId a, NodeId b) {
  EXPECT_EQ(bits(p.similarity(a, b)), bits(p.similarity(b, a)))
      << "similarity " << a << ", " << b;
  EXPECT_EQ(bits(p.weighted_similarity(a, b)),
            bits(p.weighted_similarity(b, a)))
      << "weighted_similarity " << a << ", " << b;
}

class SimilarityRangeProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimilarityRangeProperty, AllMeasuresStayInUnitInterval) {
  // Randomised profiles: every similarity variant must stay in [0, 1]
  // and be symmetric to the last bit.
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
      p.record_request(u, c, static_cast<double>(seed % 7 + 1));
    }
  }
  for (NodeId a = 0; a < 6; ++a) {
    for (NodeId b = 0; b < 6; ++b) {
      for (double s : {p.similarity(a, b), p.weighted_similarity(a, b),
                       p.weighted_similarity_eq11(a, b)}) {
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0 + 1e-12);
      }
      expect_bit_symmetric(p, a, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityRangeProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Similarity, SymmetricBitForBitInBothVariants) {
  // SocialTrustPlugin evaluates Omega_s in (rater, ratee) orientation,
  // whichever node is smaller, so both variants must be symmetric to the
  // last bit, not just to EXPECT_DOUBLE_EQ's 4 ulps.
  InterestProfiles p(4, 8);
  p.set_interests(0, ids({1, 2, 5}));
  p.set_interests(1, ids({2, 5, 7}));
  p.record_request(0, 2, 3.0);
  p.record_request(0, 5, 1.0);
  p.record_request(1, 2, 1.0);
  p.record_request(1, 5, 2.0);
  p.record_request(1, 6, 7.0);
  // Node 2 declares nothing and has no requests. Node 3 requests only
  // from category 6, so Omega_s(1, 3) is node 1's weight there, 7 / 10:
  // a weight taken as 7 * (1 / 10) is one ulp off.
  p.record_request(3, 6, 4.0);
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) expect_bit_symmetric(p, a, b);
  }
  EXPECT_GT(p.weighted_similarity(0, 1), 0.0);
  EXPECT_EQ(bits(p.weighted_similarity(1, 3)), bits(7.0 / 10.0));
}

}  // namespace
}  // namespace st::core
