#include "reputation/ebay.hpp"

#include <algorithm>
#include <stdexcept>

#include "reputation/ledger.hpp"

namespace st::reputation {

EbayReputation::EbayReputation(std::size_t node_count)
    : raw_(node_count, 0.0), normalized_(node_count, 0.0) {
  if (node_count == 0)
    throw std::invalid_argument("EbayReputation: node_count must be > 0");
}

void EbayReputation::update(std::span<const Rating> cycle_ratings) {
  // Collapse each (rater, ratee) pair's ratings to one signed vote. Pairs
  // come in canonical (rater, ratee) order, so each ratee's floating-point
  // sum runs in an order fixed by the stream alone (DESIGN.md §11).
  const PairRuns pairs = group_pairs(cycle_ratings, raw_.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    double sum = 0.0;
    for (std::uint32_t i : pairs.run(p)) sum += cycle_ratings[i].value;
    // "Counts as one rating": the pair's cycle contribution saturates at
    // +/-1. For raw +/-1 ratings this is the sign; when a plugin has
    // rescaled the values, the fractional magnitude survives — otherwise a
    // down-weighted colluder pair (e.g. 600 ratings x 1e-4) would still
    // round back up to a full +1 vote.
    raw_[pairs.keys[p].ratee] += std::clamp(sum, -1.0, 1.0);
  }
  renormalize();
}

void EbayReputation::renormalize() {
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

double EbayReputation::reputation(NodeId node) const {
  if (node >= normalized_.size())
    throw std::out_of_range("EbayReputation: node out of range");
  return normalized_[node];
}

void EbayReputation::reset() {
  std::fill(raw_.begin(), raw_.end(), 0.0);
  std::fill(normalized_.begin(), normalized_.end(), 0.0);
}

void EbayReputation::forget_node(NodeId node) {
  if (node >= raw_.size())
    throw std::out_of_range("EbayReputation: node out of range");
  raw_[node] = 0.0;
  renormalize();
}

double EbayReputation::raw_score(NodeId node) const {
  if (node >= raw_.size())
    throw std::out_of_range("EbayReputation: node out of range");
  return raw_[node];
}

}  // namespace st::reputation
