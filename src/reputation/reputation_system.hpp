#pragma once
// Abstract reputation system interface.
//
// SocialTrust "can be used in any reputation system for P2P networks"
// (Section 4): it rescales rating values and hands the adjusted stream to
// the underlying system. This interface is that seam — EigenTrust, the
// eBay-style accumulator, and any user-supplied system implement it, and
// st::core::SocialTrustPlugin wraps one.

#include <span>
#include <string_view>
#include <vector>

#include "reputation/rating.hpp"

namespace st::reputation {

class ReputationSystem {
 public:
  virtual ~ReputationSystem() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Number of nodes this system scores.
  virtual std::size_t size() const noexcept = 0;

  /// Consumes the ratings of one completed update interval (one simulation
  /// cycle in the paper's experiments) and recomputes global reputations.
  /// Rating values may already be fractional if a plugin adjusted them.
  /// Ratings that fail valid_rating(r, size()) are skipped.
  virtual void update(std::span<const Rating> cycle_ratings) = 0;

  /// Global reputation of `node`, normalised so that the vector sums to 1
  /// (both paper baselines report normalised values; see Section 5.1).
  virtual double reputation(NodeId node) const = 0;

  /// Full normalised reputation vector, indexed by node id.
  virtual std::span<const double> reputations() const noexcept = 0;

  /// Restores the initial all-zeros state.
  virtual void reset() = 0;

  /// Erases one node's accumulated reputation evidence — the system-side
  /// effect of a peer discarding its identity and rejoining fresh
  /// (whitewashing). Both the node's received evidence and, where the
  /// system tracks it, its standing as a rater are forgotten. Reputations
  /// are renormalised afterwards.
  virtual void forget_node(NodeId node) = 0;
};

}  // namespace st::reputation
