#include "reputation/beta.hpp"

#include <algorithm>
#include <stdexcept>

namespace st::reputation {

BetaReputation::BetaReputation(std::size_t node_count,
                               BetaReputationConfig config)
    : config_(config),
      positive_(node_count, 0.0),
      negative_(node_count, 0.0),
      normalized_(node_count, 0.0) {
  if (node_count == 0)
    throw std::invalid_argument("BetaReputation: node_count must be > 0");
  if (config_.forgetting <= 0.0 || config_.forgetting > 1.0)
    throw std::invalid_argument("BetaReputation: forgetting must be (0, 1]");
}

void BetaReputation::update(std::span<const Rating> cycle_ratings) {
  if (config_.forgetting < 1.0) {
    for (double& p : positive_) p *= config_.forgetting;
    for (double& n : negative_) n *= config_.forgetting;
  }
  for (const Rating& r : cycle_ratings) {
    if (!valid_rating(r, positive_.size())) continue;
    if (r.value > 0.0) {
      positive_[r.ratee] += r.value;
    } else if (r.value < 0.0) {
      negative_[r.ratee] -= r.value;
    }
  }
  renormalize();
}

void BetaReputation::renormalize() {
  double total = 0.0;
  for (std::size_t v = 0; v < positive_.size(); ++v) {
    total += (positive_[v] + 1.0) / (positive_[v] + negative_[v] + 2.0);
  }
  for (std::size_t v = 0; v < positive_.size(); ++v) {
    double e = (positive_[v] + 1.0) / (positive_[v] + negative_[v] + 2.0);
    normalized_[v] = total > 0.0 ? e / total : 0.0;
  }
}

double BetaReputation::reputation(NodeId node) const {
  if (node >= normalized_.size())
    throw std::out_of_range("BetaReputation: node out of range");
  return normalized_[node];
}

void BetaReputation::forget_node(NodeId node) {
  if (node >= positive_.size())
    throw std::out_of_range("BetaReputation: node out of range");
  positive_[node] = 0.0;
  negative_[node] = 0.0;
  renormalize();
}

double BetaReputation::beta_expectation(NodeId node) const {
  if (node >= positive_.size())
    throw std::out_of_range("BetaReputation: node out of range");
  return (positive_[node] + 1.0) /
         (positive_[node] + negative_[node] + 2.0);
}

double BetaReputation::positive_mass(NodeId node) const {
  if (node >= positive_.size())
    throw std::out_of_range("BetaReputation: node out of range");
  return positive_[node];
}

double BetaReputation::negative_mass(NodeId node) const {
  if (node >= negative_.size())
    throw std::out_of_range("BetaReputation: node out of range");
  return negative_[node];
}

void BetaReputation::reset() {
  std::fill(positive_.begin(), positive_.end(), 0.0);
  std::fill(negative_.begin(), negative_.end(), 0.0);
  std::fill(normalized_.begin(), normalized_.end(), 0.0);
}

}  // namespace st::reputation
