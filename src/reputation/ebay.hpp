#pragma once
// eBay-style accumulative reputation — the paper's second baseline.
//
// Semantics reproduced from Section 5 of the paper:
//   * "no matter how frequently a node rates the other node in a simulation
//     cycle, eBay only counts all the ratings as one rating" — per
//     (rater, ratee) pair the cycle's ratings collapse to their sum
//     clamped to [-1, +1]: the sign (+1 / 0 / -1) for raw +/-1 ratings,
//     while a fractional magnitude left by the SocialTrust plugin's
//     rescaling survives;
//   * "a node's reputation increase is only determined by whether the node
//     offers more authentic files than inauthentic files in each simulation
//     cycle" — slow, coarse updates;
//   * "After each simulation cycle, we scale the reputation of each node to
//     [0,1] by R_i / sum_k R_k" — published values are normalised; the raw
//     accumulator R_i is clamped at zero for normalisation so the published
//     vector is a distribution (raw values remain queryable).

#include <string_view>
#include <vector>

#include "reputation/reputation_system.hpp"

namespace st::reputation {

class EbayReputation final : public ReputationSystem {
 public:
  explicit EbayReputation(std::size_t node_count);

  std::string_view name() const noexcept override { return "eBay"; }
  std::size_t size() const noexcept override { return raw_.size(); }
  void update(std::span<const Rating> cycle_ratings) override;
  double reputation(NodeId node) const override;
  std::span<const double> reputations() const noexcept override {
    return normalized_;
  }
  void reset() override;
  void forget_node(NodeId node) override;

  /// Raw accumulated score R_i before clamping/normalisation (may be
  /// negative for persistently misbehaving nodes).
  double raw_score(NodeId node) const;

 private:
  void renormalize();

  std::vector<double> raw_;
  std::vector<double> normalized_;
};

}  // namespace st::reputation
