#pragma once
// Rating event model shared by all reputation systems.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "graph/social_graph.hpp"

namespace st::reputation {

using graph::NodeId;

/// Product/resource category index ("interest" in the paper's vocabulary).
using InterestId = std::uint16_t;

/// No-interest sentinel for ratings not tied to a category.
inline constexpr InterestId kNoInterest = static_cast<InterestId>(-1);

/// One rating event: `rater` scores `ratee` after a transaction.
///
/// In the P2P simulation values are +1 (authentic service) / -1
/// (inauthentic), as in Section 5.1; the Overstock trace uses [-2, +2].
/// SocialTrust's Gaussian filter rescales `value` fractionally, so the
/// field is a double rather than an integer score.
struct Rating {
  NodeId rater = 0;
  NodeId ratee = 0;
  double value = 0.0;
  std::uint32_t cycle = 0;        ///< simulation cycle of the rating
  std::uint32_t query_cycle = 0;  ///< query cycle within the simulation cycle
  InterestId interest = kNoInterest;
};

/// Whether a system over `n` nodes accepts `r`: both endpoints in range,
/// no self-rating, and a finite value. Every reputation system and the
/// SocialTrust plugin skip a rating that fails this check, so one NaN or
/// infinite value cannot poison the reputations of other nodes.
inline bool valid_rating(const Rating& r, std::size_t n) noexcept {
  return r.rater < n && r.ratee < n && r.rater != r.ratee &&
         std::isfinite(r.value);
}

}  // namespace st::reputation
