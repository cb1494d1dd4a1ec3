// Warm-vs-cold social-state cache property test (DESIGN.md §13).
//
// Randomized differential harness: seeded interleavings of ratings,
// friendship add/remove, interaction churn, profile edits, clear_node /
// forget_node, and whitewashing re-entry (single resets, and bursts of
// several in one interval) are applied to a shared social substrate;
// after every interval a plugin with a warm persistent cache is
// bit-compared against a plugin whose cache is wiped before each update
// (a cold full recompute — the strongest oracle). An event sequence the
// cache's witnesses mishandle — a relationship change that does not
// move the epoch or stamp its endpoints, a path served from a row the
// change could reach — diverges the two within one interval once a
// stale path reaches an output, and the failure prints the seed that
// found it. Structural churn and whitewashes land in many intervals, so
// the warm cache's boundaries release the rows a change can reach and
// keep the rest; at threads=4 the pool's workers look paths up
// concurrently, refilling released rows and serving kept ones. Random
// traffic rarely clears the detector's frequency gate and rarely falls
// along edges, so in the gated cases few outputs read a path at all; the
// ungated case turns the gate off, gives every initial edge interactions
// and starts from a sparser graph whose pairs are mostly three or more
// hops apart, so there a stale path changes the adjusted stream: with
// the boundary's release deleted, every ungated case fails.
//
// The simulator-driven differential gate lives in
// incremental_state_test.cpp; this file explores the event-interleaving
// space around it.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/socialtrust.hpp"
#include "graph/generators.hpp"
#include "reputation/paper_eigentrust.hpp"
#include "stats/rng.hpp"

namespace st {
namespace {

using core::InterestProfiles;
using core::SocialTrustPlugin;
using graph::Relationship;
using graph::SocialGraph;
using reputation::Rating;

constexpr std::size_t kNodes = 48;
constexpr std::size_t kInterests = 16;
constexpr std::size_t kIntervals = 30;

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bit patterns differ)";
}

Relationship random_relationship(stats::Rng& rng) {
  return static_cast<Relationship>(rng.index(graph::kRelationshipCount));
}

/// One interval's worth of randomized events. Ratings are split between
/// "transaction" ratings (which also record an interaction and a request,
/// the way Simulator::submit_rating does — heavy churn) and "re-ratings"
/// (no substrate mutation — the pairs whose cache entries stay valid).
/// Structural and profile edits land with small probabilities so most
/// interleavings mix valid and stale entries in the same interval.
std::vector<Rating> random_interval(stats::Rng& rng, SocialGraph& g,
                                    InterestProfiles& profiles) {
  std::vector<Rating> ratings;
  const std::size_t n_ratings = 40 + rng.index(80);
  for (std::size_t q = 0; q < n_ratings; ++q) {
    const auto rater = static_cast<reputation::NodeId>(rng.index(kNodes));
    auto ratee = static_cast<reputation::NodeId>(rng.index(kNodes));
    if (ratee == rater) ratee = (ratee + 1) % kNodes;
    const auto interest =
        static_cast<reputation::InterestId>(rng.index(kInterests));
    ratings.push_back(Rating{rater, ratee,
                             rng.bernoulli(0.75) ? 1.0 : -1.0, 0, 0,
                             interest});
    if (rng.bernoulli(0.4)) {  // transaction rating: substrate churn
      g.record_interaction(rater, ratee);
      profiles.record_request(rater, interest);
    }
  }

  // Structural churn: friendship (and other relationship) add/remove.
  while (rng.bernoulli(0.3)) {
    const auto a = static_cast<graph::NodeId>(rng.index(kNodes));
    auto b = static_cast<graph::NodeId>(rng.index(kNodes));
    if (b == a) b = (b + 1) % kNodes;
    if (rng.bernoulli(0.7)) {
      g.add_relationship(a, b, random_relationship(rng));
    } else {
      g.remove_relationship(a, b, random_relationship(rng));
    }
  }

  // Profile churn: interest edits and request recordings.
  while (rng.bernoulli(0.25)) {
    const auto node = static_cast<reputation::NodeId>(rng.index(kNodes));
    const auto interest =
        static_cast<reputation::InterestId>(rng.index(kInterests));
    if (rng.bernoulli(0.5)) {
      profiles.record_request(node, interest);
    } else if (rng.bernoulli(0.5)) {
      profiles.add_interest(node, interest);
    } else {
      profiles.remove_interest(node, interest);
    }
  }

  return ratings;
}

void expect_plugins_identical(const SocialTrustPlugin& cold,
                              const SocialTrustPlugin& warm,
                              const std::string& label) {
  SCOPED_TRACE(label);

  auto ca = cold.last_adjusted();
  auto wa = warm.last_adjusted();
  ASSERT_EQ(ca.size(), wa.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    ASSERT_EQ(ca[i].rater, wa[i].rater) << i;
    ASSERT_EQ(ca[i].ratee, wa[i].ratee) << i;
    ASSERT_TRUE(bits_equal(ca[i].value, wa[i].value)) << "rating " << i;
  }

  const core::AdjustmentReport& a = cold.last_report();
  const core::AdjustmentReport& b = warm.last_report();
  ASSERT_EQ(a.pairs_total, b.pairs_total);
  ASSERT_EQ(a.pairs_flagged, b.pairs_flagged);
  ASSERT_EQ(a.ratings_adjusted, b.ratings_adjusted);
  ASSERT_EQ(a.b1, b.b1);
  ASSERT_EQ(a.b2, b.b2);
  ASSERT_EQ(a.b3, b.b3);
  ASSERT_EQ(a.b4, b.b4);
  ASSERT_TRUE(bits_equal(a.mean_weight, b.mean_weight)) << "mean_weight";
  ASSERT_EQ(a.flagged.size(), b.flagged.size());
  for (std::size_t i = 0; i < a.flagged.size(); ++i) {
    ASSERT_EQ(a.flagged[i].rater, b.flagged[i].rater) << i;
    ASSERT_EQ(a.flagged[i].ratee, b.flagged[i].ratee) << i;
    ASSERT_EQ(a.flagged[i].behavior, b.flagged[i].behavior) << i;
    ASSERT_TRUE(bits_equal(a.flagged[i].weight, b.flagged[i].weight)) << i;
  }

  auto crep = cold.reputations();
  auto wrep = warm.reputations();
  ASSERT_EQ(crep.size(), wrep.size());
  for (std::size_t v = 0; v < crep.size(); ++v) {
    ASSERT_TRUE(bits_equal(crep[v], wrep[v])) << "node " << v;
  }
}

/// The shared social substrate and the two plugins compared over it: one
/// with a warm persistent cache, and a cold one whose cache is wiped
/// before every update.
struct Harness {
  stats::Rng rng;
  SocialGraph g;
  InterestProfiles profiles{kNodes, kInterests};
  std::unique_ptr<SocialTrustPlugin> cold;
  std::unique_ptr<SocialTrustPlugin> warm;

  /// With `gated` false the detector gate is off, so the Gaussian filter
  /// weighs every rating by its own pair's coefficients, and every initial
  /// edge carries interactions both ways, so every Eq. 4 bottleneck over
  /// those edges is positive and depends on the path taken. That harness
  /// starts from a sparser, less rewired graph (degree 4, rewiring 0.05
  /// instead of 6 and 0.2): more pairs sit three or more hops apart, so
  /// more ratings read an Eq. 4 path, and a relationship change moves
  /// more of those paths.
  Harness(std::uint64_t seed, std::size_t threads, bool gated)
      : rng(seed),
        g(graph::watts_strogatz(kNodes, gated ? 6 : 4, gated ? 0.2 : 0.05,
                                rng)) {
    if (!gated) {
      for (graph::NodeId a = 0; a < kNodes; ++a) {
        const auto row = g.neighbors(a);
        const std::vector<graph::NodeId> friends(row.begin(), row.end());
        for (graph::NodeId b : friends) {
          g.record_interaction(a, b, 1.0 + static_cast<double>((a + b) % 4));
        }
      }
    }
    for (graph::NodeId n = 0; n < kNodes; ++n) {
      const reputation::InterestId ints[] = {
          static_cast<reputation::InterestId>(n % kInterests),
          static_cast<reputation::InterestId>((n + 5) % kInterests)};
      profiles.set_interests(n, ints);
    }
    core::SocialTrustConfig cfg;
    cfg.threads = threads;
    cfg.gate_on_detector = gated;
    cold = make_plugin(cfg);
    warm = make_plugin(cfg);
  }

  std::unique_ptr<SocialTrustPlugin> make_plugin(
      const core::SocialTrustConfig& cfg) {
    return std::make_unique<SocialTrustPlugin>(
        std::make_unique<reputation::PaperEigenTrust>(
            kNodes, std::vector<reputation::NodeId>{0, 1},
            reputation::PaperEigenTrustConfig{}),
        g, profiles, cfg);
  }

  /// A random non-pretrusted identity.
  reputation::NodeId pick_identity() {
    return static_cast<reputation::NodeId>(2 + rng.index(kNodes - 2));
  }

  /// Forgets `w` on both plugins and clears its social state, exactly as
  /// Simulator::whitewash does it; the node re-enters through later
  /// ratings.
  void whitewash(reputation::NodeId w) {
    cold->forget_node(w);
    warm->forget_node(w);
    g.clear_node(w);
    profiles.clear_requests(w);
  }

  /// Closes interval `t` on both plugins and bit-compares them.
  void close_interval(const std::vector<Rating>& ratings, std::size_t t) {
    cold->social_cache().clear();
    cold->update(ratings);
    warm->update(ratings);

    expect_plugins_identical(*cold, *warm, "interval " + std::to_string(t));
    // The work counts the cycle benchmark reads: every active pair is
    // recomputed through the cache and nothing is carried.
    const auto& stats = warm->last_dirty_stats();
    ASSERT_EQ(stats.pairs_dirty, warm->last_report().pairs_total);
    ASSERT_EQ(stats.pairs_carried, 0U);
    ASSERT_EQ(stats.raters_carried, 0U);
  }
};

void run_property(std::uint64_t seed, std::size_t threads, bool gated) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " threads=" + std::to_string(threads) +
               (gated ? "" : " ungated"));
  Harness h(seed, threads, gated);
  for (std::size_t t = 0; t < kIntervals; ++t) {
    // Occasional whitewash of one random identity.
    if (t > 2 && h.rng.bernoulli(0.15)) h.whitewash(h.pick_identity());
    const std::vector<Rating> ratings =
        random_interval(h.rng, h.g, h.profiles);
    h.close_interval(ratings, t);
  }
  // The warm cache must have served paths stored in an earlier interval,
  // or the property degenerates to cold-vs-cold. A cold plugin looks each
  // directional pair up once per interval, so it never hits; comparing
  // the totals states that directly.
  EXPECT_GT(h.warm->social_cache().stats().structure_hits,
            h.cold->social_cache().stats().structure_hits);
}

/// Whitewash bursts: several structure changes land between two
/// updates, so the next update finds the epoch several steps ahead of the
/// one it adopted. Every
/// shape a burst can take before the interval closes is driven here —
/// several identities at once, the same identity twice, and an identity
/// that is forgotten, re-rated (with fresh interactions and a new tie)
/// and forgotten again.
void run_whitewash_bursts(std::uint64_t seed, std::size_t threads) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " threads=" + std::to_string(threads));
  Harness h(seed, threads, /*gated=*/true);
  std::size_t bursts = 0;
  std::size_t reforgets = 0;
  for (std::size_t t = 0; t < kIntervals; ++t) {
    if (t > 2 && h.rng.bernoulli(0.5)) {
      const reputation::NodeId first = h.pick_identity();
      h.whitewash(first);
      const std::size_t more = 1 + h.rng.index(4);
      for (std::size_t k = 0; k < more; ++k) h.whitewash(h.pick_identity());
      h.whitewash(first);  // the same identity twice in one interval
      ++bursts;
    }
    std::vector<Rating> ratings = random_interval(h.rng, h.g, h.profiles);
    if (t > 2 && h.rng.bernoulli(0.5)) {
      // Forget -> re-rate -> forget before the interval closes: the
      // re-entered identity trades ratings, interactions and a tie, then
      // resets again; its ratings stay in the interval's stream.
      const reputation::NodeId w = h.pick_identity();
      h.whitewash(w);
      for (std::size_t q = 0; q < 6; ++q) {
        auto other = static_cast<reputation::NodeId>(h.rng.index(kNodes));
        if (other == w) other = (other + 1) % kNodes;
        const auto interest =
            static_cast<reputation::InterestId>(h.rng.index(kInterests));
        ratings.push_back(Rating{w, other, 1.0, 0, 0, interest});
        ratings.push_back(Rating{other, w, 1.0, 0, 0, interest});
        h.g.record_interaction(w, other);
        h.g.record_interaction(other, w);
        h.profiles.record_request(w, interest);
        if (q == 0) h.g.add_relationship(w, other, random_relationship(h.rng));
      }
      h.whitewash(w);
      ++reforgets;
    }
    h.close_interval(ratings, t);
  }
  EXPECT_GT(bursts, 0U);
  EXPECT_GT(reforgets, 0U);
}

class WarmColdProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(WarmColdProperty, RandomInterleavingsMatchColdFullRecompute) {
  const auto [seed, threads] = GetParam();
  run_property(seed, threads, /*gated=*/true);
}

/// The same interleavings over the ungated harness, where a stale path
/// reaches the adjusted stream (see the file comment).
TEST_P(WarmColdProperty, UngatedInterleavingsMatchColdFullRecompute) {
  const auto [seed, threads] = GetParam();
  run_property(seed, threads, /*gated=*/false);
}

TEST_P(WarmColdProperty, WhitewashBurstsMatchColdFullRecompute) {
  const auto [seed, threads] = GetParam();
  run_whitewash_bursts(seed, threads);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, WarmColdProperty,
    ::testing::Combine(::testing::Values(101ULL, 202ULL, 303ULL, 404ULL,
                                         505ULL),
                       ::testing::Values(1UL, 4UL)),
    [](const auto& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             "_threads" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace st
