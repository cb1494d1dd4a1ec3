#include "core/closeness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

namespace st::core {

ClosenessModel::ClosenessModel(bool weighted, double lambda)
    : weighted_(weighted), lambda_(lambda) {
  // Eq. 10's range. A negative lambda would give some masks a negative
  // mass, and so an Eq. 2 value below +0.0, which Eq. 4's zero rule in
  // SocialStateCache::Row must never meet. Written so that NaN fails too.
  if (!(lambda >= 0.5 && lambda <= 1.0)) {
    throw std::invalid_argument("ClosenessModel: lambda must lie in [0.5, 1]");
  }
  // Tabulate the mass of every possible relationship-type set up front,
  // so relationship_mass reduces to one table read.
  for (std::size_t mask = 0; mask < (1U << graph::kRelationshipCount);
       ++mask) {
    mass_table_[mask] = mass_of_mask(static_cast<std::uint8_t>(mask));
  }
}

double ClosenessModel::mass_of_mask(std::uint8_t mask) const {
  if (!weighted_) {
    return static_cast<double>(std::popcount(mask));
  }
  // Eq. (10): sort relationship weights descending, decay the l-th by
  // lambda^(l-1), sum. Adding many weak relationships therefore changes
  // the mass only marginally.
  std::vector<double> weights;
  for (std::size_t i = 0; i < graph::kRelationshipCount; ++i) {
    if (mask & (1U << i)) {
      weights.push_back(graph::default_relationship_weight(
          static_cast<graph::Relationship>(i)));
    }
  }
  std::sort(weights.begin(), weights.end(), std::greater<>());
  double mass = 0.0;
  double decay = 1.0;
  for (double w : weights) {
    mass += decay * w;
    decay *= lambda_;
  }
  return mass;
}

double ClosenessModel::relationship_mass(const graph::SocialGraph& g,
                                         graph::NodeId i,
                                         graph::NodeId j) const {
  return mass_table_[g.relationship_mask(i, j)];
}

double ClosenessModel::adjacent_closeness(const graph::SocialGraph& g,
                                          graph::NodeId i,
                                          graph::NodeId j) const {
  // One probe of i's sorted CSR row answers both "adjacent?" (mask != 0)
  // and "which types?".
  const std::uint8_t mask = g.relationship_mask(i, j);
  if (mask == 0) return 0.0;
  return edge_closeness(mask, g.interaction(i, j), g.total_interactions(i));
}

double ClosenessModel::closeness(const graph::SocialGraph& g,
                                 graph::NodeId i, graph::NodeId j,
                                 std::size_t max_hops) const {
  if (i == j) return 0.0;  // self-closeness is meaningless for rating pairs
  const std::uint8_t mask = g.relationship_mask(i, j);
  if (mask != 0) {
    return edge_closeness(mask, g.interaction(i, j), g.total_interactions(i));
  }

  // Eq. (3): friend-of-friend average over common friends, summed in the
  // ascending order common_friends() returns — the accumulation order is
  // part of the bit-identity contract.
  const std::vector<graph::NodeId> common = g.common_friends(i, j);
  if (!common.empty()) {
    double sum = 0.0;
    for (graph::NodeId k : common) {
      sum += (adjacent_closeness(g, i, k) + adjacent_closeness(g, k, j)) / 2.0;
    }
    return sum;
  }

  // Eq. (4): bottleneck (minimum) adjacent closeness along one shortest
  // social path.
  const auto path = g.shortest_path(i, j, max_hops);
  if (!path) return 0.0;
  double bottleneck = std::numeric_limits<double>::infinity();
  for (std::size_t step = 0; step + 1 < path->size(); ++step) {
    bottleneck = std::min(
        bottleneck, adjacent_closeness(g, (*path)[step], (*path)[step + 1]));
  }
  return std::isfinite(bottleneck) ? bottleneck : 0.0;
}

}  // namespace st::core
