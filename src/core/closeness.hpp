#pragma once
// Social closeness Omega_c — Eqs. (2), (3), (4) and the hardened Eq. (10).
//
// For adjacent nodes:
//     Omega_c(i,j) = m(i,j) * f(i,j) / sum_k f(i,k)            (Eq. 2)
// or, with typed relationship weights sorted descending and decayed by
// lambda^(l-1):
//     Omega_c(i,j) = (sum_l lambda^(l-1) w_dl) * f(i,j) / sum_k f(i,k)
//                                                              (Eq. 10)
// For non-adjacent nodes with common friends k:
//     Omega_c(i,j) = sum_k (Omega_c(i,k) + Omega_c(k,j)) / 2   (Eq. 3)
// For non-adjacent nodes without common friends: the minimum adjacent
// closeness along one shortest social path (bottleneck closeness, Eq. 4).
// Unreachable pairs have closeness 0.

#include <cstdint>

#include "core/config.hpp"
#include "graph/social_graph.hpp"

namespace st::core {

/// Computes Omega_c over a SocialGraph. Stateless beyond its configuration;
/// all social data lives in the graph.
///
/// Thread safety: every method is a pure read of the model's immutable
/// configuration and of the (caller-owned) graph, so concurrent closeness()
/// calls are safe as long as nobody mutates the graph underneath them —
/// the contract the parallel update interval relies on.
class ClosenessModel {
 public:
  /// `weighted` selects Eq. (10) vs Eq. (2) for the adjacent case;
  /// `lambda` is the relationship decay of Eq. (10), which weighs each
  /// relationship type by graph::default_relationship_weight. Throws
  /// std::invalid_argument unless 0.5 <= lambda <= 1 (NaN included), so
  /// every mass, and with it every Eq. 2 value, is at least +0.0.
  explicit ClosenessModel(bool weighted = true, double lambda = 0.8);

  /// Full Omega_c(i,j) with the non-adjacent fallbacks. `max_hops` caps
  /// the shortest-path search of the bottleneck case. This is the
  /// reference the rater walk's SocialStateCache::Row reproduces bit for
  /// bit; tests and the from-scratch oracle compare against it.
  double closeness(const graph::SocialGraph& g, graph::NodeId i,
                   graph::NodeId j,
                   std::size_t max_hops = graph::kMaxPathHops) const;

  /// Adjacent-only Omega_c (Eq. 2 / Eq. 10); 0 when not adjacent or when
  /// i has no recorded interactions.
  double adjacent_closeness(const graph::SocialGraph& g, graph::NodeId i,
                            graph::NodeId j) const;

  /// Eq. (2)/(10) of one edge i-j from its relationship mask (non-zero),
  /// f(i,j) and i's total interactions: the one expression every Eq. 2
  /// value is computed by, here and in SocialStateCache::Row, so the two
  /// agree bit for bit.
  double edge_closeness(std::uint8_t mask, double interaction,
                        double total) const noexcept {
    return total <= 0.0 ? 0.0 : mass_table_[mask] * interaction / total;
  }

  bool weighted() const noexcept { return weighted_; }
  double lambda() const noexcept { return lambda_; }

 private:
  /// Eq. (10)'s decayed relationship-weight sum, or plain m(i,j) for the
  /// unweighted variant.
  double relationship_mass(const graph::SocialGraph& g, graph::NodeId i,
                           graph::NodeId j) const;

  /// Eq. (10)/(2) mass for one relationship bitmask (see
  /// SocialGraph::relationship_mask). Evaluated by the same sort-and-decay
  /// code for every mask at construction, then served from mass_table_ —
  /// adjacent_closeness sits in the innermost friend-of-friend loop, and
  /// the mass depends on nothing but the (at most 2^6-state) type set.
  double mass_of_mask(std::uint8_t mask) const;

  bool weighted_;
  double lambda_;
  double mass_table_[1U << graph::kRelationshipCount];
};

}  // namespace st::core
