#include "reputation/eigentrust.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace st::reputation {

EigenTrust::EigenTrust(std::size_t node_count, std::vector<NodeId> pretrusted,
                       EigenTrustConfig config)
    : n_(node_count),
      pretrusted_(std::move(pretrusted)),
      config_(config),
      s_(node_count * node_count, 0.0),
      p_(node_count, 0.0),
      global_(node_count, 0.0) {
  if (node_count == 0)
    throw std::invalid_argument("EigenTrust: node_count must be > 0");
  for (NodeId id : pretrusted_) {
    if (id >= n_)
      throw std::out_of_range("EigenTrust: pretrusted id out of range");
  }
  if (pretrusted_.empty()) {
    std::fill(p_.begin(), p_.end(), 1.0 / static_cast<double>(n_));
  } else {
    for (NodeId id : pretrusted_)
      p_[id] = 1.0 / static_cast<double>(pretrusted_.size());
  }
  // Before any ratings exist, global trust is the teleport distribution —
  // equivalently the fixed point with an all-zero trust matrix.
  global_ = p_;
}

void EigenTrust::update(std::span<const Rating> cycle_ratings) {
  for (const Rating& r : cycle_ratings) {
    if (!valid_rating(r, n_)) continue;
    s_[static_cast<std::size_t>(r.rater) * n_ + r.ratee] += r.value;
  }
  recompute_global();
}

void EigenTrust::recompute_global() {
  // Row-normalise clamped local trust. Rows with no positive outgoing
  // trust fall back to the teleport distribution p (the standard
  // EigenTrust treatment of "peer trusts nobody").
  std::vector<double> c(n_ * n_, 0.0);
  std::vector<bool> empty_row(n_, false);
  for (std::size_t i = 0; i < n_; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n_; ++j) {
      double v = std::max(s_[i * n_ + j], 0.0);
      c[i * n_ + j] = v;
      row_sum += v;
    }
    if (row_sum > 0.0) {
      for (std::size_t j = 0; j < n_; ++j) c[i * n_ + j] /= row_sum;
    } else {
      empty_row[i] = true;
    }
  }

  std::vector<double> t = global_;
  std::vector<double> next(n_, 0.0);
  const double a = config_.pretrusted_weight;
  last_iterations_ = 0;
  for (std::uint32_t iter = 0; iter < config_.max_iterations; ++iter) {
    // next = (1-a) * C^T t + a * p, with empty rows redistributed via p.
    double empty_mass = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (empty_row[i]) empty_mass += t[i];
    }
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      double ti = t[i];
      if (ti == 0.0 || empty_row[i]) continue;
      const double* row = &c[i * n_];
      for (std::size_t j = 0; j < n_; ++j) {
        next[j] += row[j] * ti;
      }
    }
    for (std::size_t j = 0; j < n_; ++j) {
      next[j] = (1.0 - a) * (next[j] + empty_mass * p_[j]) + a * p_[j];
    }
    double delta = 0.0;
    for (std::size_t j = 0; j < n_; ++j) delta += std::fabs(next[j] - t[j]);
    t.swap(next);
    ++last_iterations_;
    if (delta < config_.epsilon) break;
  }
  global_ = std::move(t);
}

double EigenTrust::reputation(NodeId node) const {
  if (node >= n_) throw std::out_of_range("EigenTrust: node out of range");
  return global_[node];
}

void EigenTrust::reset() {
  std::fill(s_.begin(), s_.end(), 0.0);
  global_ = p_;
  last_iterations_ = 0;
}

void EigenTrust::forget_node(NodeId node) {
  if (node >= n_) throw std::out_of_range("EigenTrust: node out of range");
  // Both the node's opinions (row) and the opinions about it (column)
  // vanish with the identity.
  for (std::size_t k = 0; k < n_; ++k) {
    s_[static_cast<std::size_t>(node) * n_ + k] = 0.0;
    s_[k * n_ + node] = 0.0;
  }
  recompute_global();
}

double EigenTrust::local_trust(NodeId i, NodeId j) const {
  if (i >= n_ || j >= n_)
    throw std::out_of_range("EigenTrust: node out of range");
  double row_sum = 0.0;
  for (std::size_t k = 0; k < n_; ++k)
    row_sum += std::max(s_[static_cast<std::size_t>(i) * n_ + k], 0.0);
  if (row_sum <= 0.0) return 0.0;
  return std::max(s_[static_cast<std::size_t>(i) * n_ + j], 0.0) / row_sum;
}

double EigenTrust::raw_trust(NodeId i, NodeId j) const {
  if (i >= n_ || j >= n_)
    throw std::out_of_range("EigenTrust: node out of range");
  return s_[static_cast<std::size_t>(i) * n_ + j];
}

}  // namespace st::reputation
