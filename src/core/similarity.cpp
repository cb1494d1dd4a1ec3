#include "core/similarity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace st::core {

InterestProfiles::InterestProfiles(std::size_t node_count,
                                   std::size_t category_count)
    : node_count_(node_count),
      categories_(category_count),
      declared_(node_count * category_count, 0),
      request_counts_(node_count * category_count, 0.0),
      request_totals_(node_count, 0.0) {
  if (category_count == 0)
    throw std::invalid_argument("InterestProfiles: need >= 1 category");
}

void InterestProfiles::check_node(NodeId node) const {
  if (node >= node_count_)
    throw std::out_of_range("InterestProfiles: node out of range");
}

void InterestProfiles::set_interests(NodeId node,
                                     std::span<const InterestId> interests) {
  check_node(node);
  std::uint8_t* row = declared_.data() + node * categories_;
  std::fill(row, row + categories_, std::uint8_t{0});
  for (InterestId id : interests) {
    if (id < categories_) row[id] = 1;
  }
}

void InterestProfiles::add_interest(NodeId node, InterestId interest) {
  check_node(node);
  if (interest < categories_) declared_[node * categories_ + interest] = 1;
}

void InterestProfiles::remove_interest(NodeId node, InterestId interest) {
  check_node(node);
  if (interest < categories_) declared_[node * categories_ + interest] = 0;
}

std::vector<InterestId> InterestProfiles::declared(NodeId node) const {
  check_node(node);
  std::vector<InterestId> result;
  const std::uint8_t* row = flags(node);
  for (std::size_t c = 0; c < categories_; ++c) {
    if (row[c] != 0) result.push_back(static_cast<InterestId>(c));
  }
  return result;
}

void InterestProfiles::record_request(NodeId node, InterestId category,
                                      double count) {
  check_node(node);
  if (category >= categories_ || !std::isfinite(count) || count <= 0.0)
    return;
  // A count that would overflow the total is dropped whole: every share
  // is a count over a finite total, and no count exceeds its total.
  const double total = request_totals_[node] + count;
  if (!std::isfinite(total)) return;
  request_counts_[node * categories_ + category] += count;
  request_totals_[node] = total;
}

double InterestProfiles::request_weight(NodeId node,
                                        InterestId category) const {
  check_node(node);
  return category < categories_ ? weight_at(node, category) : 0.0;
}

double InterestProfiles::total_requests(NodeId node) const {
  check_node(node);
  return request_totals_[node];
}

std::vector<InterestId> InterestProfiles::effective(NodeId node) const {
  check_node(node);
  std::vector<InterestId> result;
  for (std::size_t c = 0; c < categories_; ++c) {
    if (effective_at(node, c)) result.push_back(static_cast<InterestId>(c));
  }
  return result;
}

void InterestProfiles::clear_requests(NodeId node) {
  check_node(node);
  double* row = request_counts_.data() + node * categories_;
  std::fill(row, row + categories_, 0.0);
  request_totals_[node] = 0.0;
}

double InterestProfiles::similarity(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  const std::uint8_t* fa = flags(a);
  const std::uint8_t* fb = flags(b);
  std::size_t size_a = 0;
  std::size_t size_b = 0;
  std::size_t overlap = 0;
  for (std::size_t c = 0; c < categories_; ++c) {
    size_a += fa[c];
    size_b += fb[c];
    overlap += fa[c] & fb[c];
  }
  if (size_a == 0 || size_b == 0) return 0.0;
  return static_cast<double>(overlap) /
         static_cast<double>(std::min(size_a, size_b));
}

double InterestProfiles::weighted_similarity(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  // A node without requests has every share 0, so the sum is 0.
  const double total_a = request_totals_[a];
  const double total_b = request_totals_[b];
  if (total_a <= 0.0 || total_b <= 0.0) return 0.0;
  // One pass over every category, with no branch on the data. A category
  // outside either effective set has count +0.0 there (counts start at
  // +0.0 and grow only by finite positive amounts, and totals stay
  // finite), so its term min(+0.0, w) is +0.0 and leaves the sum's bits
  // as they were: the sum is the one over the shared effective
  // categories, term by term and in the same order.
  const double* ca = counts(a);
  const double* cb = counts(b);
  double sum = 0.0;
  for (std::size_t c = 0; c < categories_; ++c) {
    sum += std::min(ca[c] / total_a, cb[c] / total_b);
  }
  return sum;
}

double InterestProfiles::weighted_similarity_eq11(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  double sum = 0.0;
  std::size_t size_a = 0;
  std::size_t size_b = 0;
  for (std::size_t c = 0; c < categories_; ++c) {
    const bool in_a = effective_at(a, c);
    const bool in_b = effective_at(b, c);
    size_a += in_a;
    size_b += in_b;
    if (in_a && in_b) sum += weight_at(a, c) * weight_at(b, c);
  }
  if (size_a == 0 || size_b == 0) return 0.0;
  // Eq. (11) keeps Eq. (7)'s denominator; the numerator swaps set
  // membership for behavioural weight products.
  return sum / static_cast<double>(std::min(size_a, size_b));
}

}  // namespace st::core
