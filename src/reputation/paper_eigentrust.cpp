#include "reputation/paper_eigentrust.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "reputation/ledger.hpp"

namespace st::reputation {

PaperEigenTrust::PaperEigenTrust(std::size_t node_count,
                                 const std::vector<NodeId>& pretrusted,
                                 PaperEigenTrustConfig config)
    : config_(config),
      is_pretrusted_(node_count, false),
      raw_(node_count, 0.0),
      normalized_(node_count, 0.0) {
  if (config_.weight_prior_mass < 0.0) {
    config_.weight_prior_mass = 10.0 * static_cast<double>(node_count);
  }
  if (node_count == 0)
    throw std::invalid_argument("PaperEigenTrust: node_count must be > 0");
  for (NodeId id : pretrusted) {
    if (id >= node_count)
      throw std::out_of_range("PaperEigenTrust: pretrusted id out of range");
    is_pretrusted_[id] = true;
  }
}

double PaperEigenTrust::rater_weight(NodeId i) const {
  if (i >= raw_.size())
    throw std::out_of_range("PaperEigenTrust: node out of range");
  if (is_pretrusted_[i]) return config_.pretrusted_weight;
  double positive_total = 0.0;
  for (double r : raw_) positive_total += std::max(r, 0.0);
  double denominator = positive_total + config_.weight_prior_mass;
  double earned =
      denominator > 0.0 ? std::max(raw_[i], 0.0) / denominator : 0.0;
  return std::max(earned, config_.rater_weight_floor);
}

void PaperEigenTrust::update(std::span<const Rating> cycle_ratings) {
  // Weights are the reputations *entering* the cycle; buffer them so the
  // update is simultaneous, not order-dependent. Non-pretrusted raters'
  // weights are damped by the evidence prior (see config): weight grows
  // toward the reputation share as the system accumulates real evidence.
  double positive_total = 0.0;
  for (double r : raw_) positive_total += std::max(r, 0.0);
  const double weight_denominator =
      positive_total + config_.weight_prior_mass;
  std::vector<double> weight(raw_.size());
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    if (is_pretrusted_[i]) {
      weight[i] = config_.pretrusted_weight;
    } else {
      double earned = weight_denominator > 0.0
                          ? std::max(raw_[i], 0.0) / weight_denominator
                          : 0.0;
      weight[i] = std::max(earned, config_.rater_weight_floor);
    }
  }
  // Sum each directed pair's rating values over the interval, saturate at
  // +/- pair_contribution_cap (about one effective rating per query
  // cycle), then apply the rater's weight. Frequency toward one ratee
  // matters up to the cap — enough for MMM's multi-rater 80-ratings-per-
  // query-cycle boost to beat PCM's 20 (Section 5.6), but not enough for
  // a two-node pair to amplify without earned reputation (Fig. 9(a)).
  // Pairs come in canonical (rater, ratee) order, so each ratee's raw
  // score is a floating-point sum in an order fixed by the stream alone
  // (DESIGN.md §11).
  const double cap = config_.pair_contribution_cap;
  const PairRuns pairs = group_pairs(cycle_ratings, raw_.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    double sum = 0.0;
    for (std::uint32_t i : pairs.run(p)) sum += cycle_ratings[i].value;
    raw_[pairs.keys[p].ratee] +=
        weight[pairs.keys[p].rater] * std::clamp(sum, -cap, cap);
  }
  renormalize();
}

void PaperEigenTrust::renormalize() {
  double total = 0.0;
  for (double r : raw_) total += std::max(r, 0.0);
  if (total <= 0.0) {
    std::fill(normalized_.begin(), normalized_.end(), 0.0);
    return;
  }
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    normalized_[i] = std::max(raw_[i], 0.0) / total;
  }
}

double PaperEigenTrust::reputation(NodeId node) const {
  if (node >= normalized_.size())
    throw std::out_of_range("PaperEigenTrust: node out of range");
  return normalized_[node];
}

void PaperEigenTrust::forget_node(NodeId node) {
  if (node >= raw_.size())
    throw std::out_of_range("PaperEigenTrust: node out of range");
  raw_[node] = 0.0;
  renormalize();
}

double PaperEigenTrust::raw_score(NodeId node) const {
  if (node >= raw_.size())
    throw std::out_of_range("PaperEigenTrust: node out of range");
  return raw_[node];
}

void PaperEigenTrust::reset() {
  std::fill(raw_.begin(), raw_.end(), 0.0);
  std::fill(normalized_.begin(), normalized_.end(), 0.0);
}

}  // namespace st::reputation
