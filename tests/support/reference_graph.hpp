#pragma once
// Faithful port of the pre-CSR SocialGraph: sorted vector-of-vectors
// adjacency (one EdgeRecord vector plus a duplicate neighbour-id vector
// per node) and per-node sorted (target, count) interaction vectors.
//
// Kept for two consumers only:
//   * the CSR equivalence suite (tests/csr_graph_test.cpp) replays
//     randomized mutation sequences against both representations and
//     asserts every public accessor and the structure epoch agree;
//   * bench_csr_graph measures the before/after closeness throughput and
//     memory footprint that BENCH_csr_graph.json commits.
// It is NOT a production surface: it lives in the st_test_support library
// (tests/support/), which only those two consumers link.
//
// The port is behaviour-exact, including the parts a cleaner rewrite
// would change: the duplicated neighbour-id arrays (the old layout paid
// that memory to give neighbors() a span), the lower_bound probe pattern,
// and the queue-free BFS. Only memory_footprint() is new, so the bench
// can report bytes per node/edge for the old layout, and node_epoch(),
// which stamps the same nodes as SocialGraph's so the suite can compare
// them.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/social_graph.hpp"

namespace st::graph {

/// Pre-CSR SocialGraph layout; same public contract as SocialGraph minus
/// the CSR maintenance hooks (begin_interval() etc. are accepted as
/// no-ops so generic test drivers can template over both).
class ReferenceSocialGraph {
 public:
  using Revision = std::uint64_t;

  explicit ReferenceSocialGraph(std::size_t node_count);

  std::size_t size() const noexcept { return adjacency_.size(); }

  bool add_relationship(NodeId a, NodeId b, Relationship r);
  bool remove_relationship(NodeId a, NodeId b, Relationship r);

  bool adjacent(NodeId a, NodeId b) const noexcept;
  std::size_t relationship_count(NodeId a, NodeId b) const noexcept;
  std::vector<Relationship> relationships(NodeId a, NodeId b) const;
  std::uint8_t relationship_mask(NodeId a, NodeId b) const noexcept;
  std::span<const NodeId> neighbors(NodeId a) const noexcept;
  std::size_t degree(NodeId a) const noexcept;

  void record_interaction(NodeId from, NodeId to, double count = 1.0);
  double interaction(NodeId from, NodeId to) const noexcept;
  double total_interactions(NodeId from) const noexcept;

  std::vector<NodeId> common_friends(NodeId a, NodeId b) const;
  std::optional<std::size_t> distance(
      NodeId a, NodeId b, std::size_t max_hops = kMaxPathHops) const;
  std::optional<std::vector<NodeId>> shortest_path(
      NodeId a, NodeId b, std::size_t max_hops = kMaxPathHops) const;

  std::size_t edge_count() const noexcept;
  void clear_node(NodeId node);

  /// No-op: the reference layout has no deferred representation work.
  void begin_interval() {}

  Revision structure_epoch() const noexcept { return structure_epoch_; }
  Revision node_epoch(NodeId a) const noexcept {
    return a < node_epochs_.size() ? node_epochs_[a] : 0;
  }

  /// Heap bytes of the old layout, on the same axes as
  /// SocialGraph::MemoryFootprint (overlay_bytes counts the per-node
  /// vector headers the flat layout does not pay).
  SocialGraph::MemoryFootprint memory_footprint() const noexcept;

 private:
  struct EdgeRecord {
    NodeId to;
    std::uint8_t relationship_mask;  // bit i set <=> Relationship(i) present
  };

  void check_node(NodeId a) const;
  /// Moves the epoch and stamps both endpoints, as SocialGraph does.
  void bump_structure(NodeId a, NodeId b) noexcept {
    ++structure_epoch_;
    node_epochs_[a] = structure_epoch_;
    node_epochs_[b] = structure_epoch_;
  }
  const EdgeRecord* find_edge(NodeId a, NodeId b) const noexcept;
  EdgeRecord* find_edge(NodeId a, NodeId b) noexcept;

  std::vector<std::vector<EdgeRecord>> adjacency_;
  std::vector<std::vector<NodeId>> neighbor_ids_;
  std::vector<std::vector<std::pair<NodeId, double>>> interactions_;
  std::vector<double> interaction_totals_;

  Revision structure_epoch_ = 0;
  std::vector<Revision> node_epochs_;
};

}  // namespace st::graph
