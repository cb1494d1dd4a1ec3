#pragma once
// Interest profiles and interest similarity Omega_s — Eq. (7) and the
// hardened, request-weighted Eq. (11).
//
//     Omega_s(i,j) = |Vi ∩ Vj| / min(|Vi|, |Vj|)               (Eq. 7)
//     Omega_s(i,j) = sum_l ws(i,l) * ws(j,l) / min(|Vi|, |Vj|) (Eq. 11)
// where ws(i,l) is the share of node i's resource requests that fall in
// category l. Per Section 4.4, falsifying the *declared* profile does not
// fool Eq. (11): requests on a deleted interest still reveal it, and a
// declared interest with no requests contributes nothing. We therefore
// evaluate Eq. (11) over the *effective* interest set — declared interests
// plus any category the node actually requested from.
//
// Storage layout (DESIGN.md §15, docs/ARCHITECTURE.md). Two dense
// node-major matrices of node_count x category_count cells: a u8
// declared flag and a double request count. Every mutator is a handful
// of indexed stores, and each similarity variant is one ascending pass
// over the categories of two contiguous rows — the same terms, in the
// same order, as a merge of the two sorted interest sets. The weighted
// kernel, which the rater walk calls once per rated pair, adds a term for
// every category with no branch on the data: a category outside either
// effective set adds +0.0, which changes no bit of the sum (DESIGN.md
// §13, "branch-free walk kernels"). That needs finite totals, so
// record_request() drops a count that would overflow one. Profiles carry
// no revision: the plugin re-reads them every interval (DESIGN.md §13).

#include <cstdint>
#include <span>
#include <vector>

#include "reputation/rating.hpp"

namespace st::core {

using reputation::InterestId;
using reputation::NodeId;

class InterestProfiles {
 public:
  /// `node_count` peers over `category_count` product/resource categories.
  InterestProfiles(std::size_t node_count, std::size_t category_count);

  std::size_t node_count() const noexcept { return node_count_; }
  std::size_t category_count() const noexcept { return categories_; }

  /// Replaces the declared interest set of `node` (the profile a user
  /// fills out). Duplicate/out-of-range categories are dropped.
  void set_interests(NodeId node, std::span<const InterestId> interests);

  void add_interest(NodeId node, InterestId interest);
  void remove_interest(NodeId node, InterestId interest);

  /// Declared interests, ascending.
  std::vector<InterestId> declared(NodeId node) const;

  /// Records `count` resource requests by `node` in `category` — the
  /// behavioural signal Eq. (11) weighs. Out-of-range categories, counts
  /// that are not finite and positive, and a count that would make the
  /// node's total non-finite are ignored.
  void record_request(NodeId node, InterestId category, double count = 1.0);

  /// ws(node, category): share of the node's requests in that category
  /// (0 when the node made no requests).
  double request_weight(NodeId node, InterestId category) const;

  double total_requests(NodeId node) const;

  /// Effective interest set, ascending: declared ∪ requested-from
  /// categories.
  std::vector<InterestId> effective(NodeId node) const;

  /// Erases the node's request history (whitewashing support; the
  /// declared profile is left for the caller to re-declare).
  void clear_requests(NodeId node);

  /// Eq. (7) over declared sets. Returns 0 when either set is empty.
  double similarity(NodeId a, NodeId b) const;

  /// Behaviour-weighted similarity over effective interest sets, as a
  /// histogram intersection: sum_l min(ws(a,l), ws(b,l)). In [0, 1]; 1 for
  /// identical request distributions, 0 for disjoint ones. This keeps the
  /// falsification resistance Section 4.4 wants from Eq. (11) — declared
  /// interests with no requests contribute nothing, deleted interests with
  /// requests still count — while staying scale-comparable with Eq. (7)
  /// (the literal Eq. (11), available below, self-normalises to near zero
  /// even for identical twins: sum_l ws^2 / min(|V|) <= 1/|V|^2, so "low
  /// similarity" ceases to be an anomaly signal).
  double weighted_similarity(NodeId a, NodeId b) const;

  /// The literal Eq. (11): sum_l ws(a,l)*ws(b,l) / min(|Va|, |Vb|) over
  /// common effective interests. Kept for the ablation bench and tests.
  double weighted_similarity_eq11(NodeId a, NodeId b) const;

 private:
  void check_node(NodeId node) const;

  const std::uint8_t* flags(NodeId node) const noexcept {
    return declared_.data() + node * categories_;
  }
  const double* counts(NodeId node) const noexcept {
    return request_counts_.data() + node * categories_;
  }
  /// True when `c` is in the node's effective set.
  bool effective_at(NodeId node, std::size_t c) const noexcept {
    return flags(node)[c] != 0 || counts(node)[c] > 0.0;
  }
  /// ws(node, c) for an in-range category.
  double weight_at(NodeId node, std::size_t c) const noexcept {
    const double total = request_totals_[node];
    return total <= 0.0 ? 0.0 : counts(node)[c] / total;
  }

  std::size_t node_count_;
  std::size_t categories_;

  // Node-major matrices: cell [node * categories_ + category].
  std::vector<std::uint8_t> declared_;  ///< 1 iff the category is declared
  std::vector<double> request_counts_;
  std::vector<double> request_totals_;
};

}  // namespace st::core
