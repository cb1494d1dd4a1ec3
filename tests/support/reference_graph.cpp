#include "support/reference_graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace st::graph {

ReferenceSocialGraph::ReferenceSocialGraph(std::size_t node_count)
    : adjacency_(node_count),
      neighbor_ids_(node_count),
      interactions_(node_count),
      interaction_totals_(node_count, 0.0),
      node_epochs_(node_count, 0) {}

void ReferenceSocialGraph::check_node(NodeId a) const {
  if (a >= adjacency_.size())
    throw std::out_of_range("SocialGraph: node id out of range");
}

const ReferenceSocialGraph::EdgeRecord* ReferenceSocialGraph::find_edge(
    NodeId a, NodeId b) const noexcept {
  const auto& edges = adjacency_[a];
  auto it = std::lower_bound(
      edges.begin(), edges.end(), b,
      [](const EdgeRecord& e, NodeId id) { return e.to < id; });
  return (it != edges.end() && it->to == b) ? &*it : nullptr;
}

ReferenceSocialGraph::EdgeRecord* ReferenceSocialGraph::find_edge(NodeId a, NodeId b) noexcept {
  return const_cast<EdgeRecord*>(
      static_cast<const ReferenceSocialGraph*>(this)->find_edge(a, b));
}

bool ReferenceSocialGraph::add_relationship(NodeId a, NodeId b, Relationship r) {
  check_node(a);
  check_node(b);
  if (a == b) return false;
  auto mask = static_cast<std::uint8_t>(1U << static_cast<unsigned>(r));
  auto insert_half = [&](NodeId from, NodeId to) {
    auto& edges = adjacency_[from];
    auto it = std::lower_bound(
        edges.begin(), edges.end(), to,
        [](const EdgeRecord& e, NodeId id) { return e.to < id; });
    if (it != edges.end() && it->to == to) {
      if (it->relationship_mask & mask) return false;
      it->relationship_mask |= mask;
      return true;
    }
    edges.insert(it, EdgeRecord{to, mask});
    auto& ids = neighbor_ids_[from];
    ids.insert(std::lower_bound(ids.begin(), ids.end(), to), to);
    return true;
  };
  bool added = insert_half(a, b);
  bool added_rev = insert_half(b, a);
  if (added || added_rev) bump_structure(a, b);
  return added;
}

bool ReferenceSocialGraph::remove_relationship(NodeId a, NodeId b, Relationship r) {
  check_node(a);
  check_node(b);
  auto mask = static_cast<std::uint8_t>(1U << static_cast<unsigned>(r));
  auto remove_half = [&](NodeId from, NodeId to) {
    EdgeRecord* e = find_edge(from, to);
    if (!e || !(e->relationship_mask & mask)) return false;
    e->relationship_mask &= static_cast<std::uint8_t>(~mask);
    if (e->relationship_mask == 0) {
      auto& edges = adjacency_[from];
      edges.erase(edges.begin() + (e - edges.data()));
      auto& ids = neighbor_ids_[from];
      ids.erase(std::lower_bound(ids.begin(), ids.end(), to));
    }
    return true;
  };
  bool removed = remove_half(a, b);
  bool removed_rev = remove_half(b, a);
  if (removed || removed_rev) bump_structure(a, b);
  return removed;
}

bool ReferenceSocialGraph::adjacent(NodeId a, NodeId b) const noexcept {
  if (a >= adjacency_.size() || b >= adjacency_.size()) return false;
  return find_edge(a, b) != nullptr;
}

std::size_t ReferenceSocialGraph::relationship_count(NodeId a,
                                            NodeId b) const noexcept {
  if (a >= adjacency_.size() || b >= adjacency_.size()) return 0;
  const EdgeRecord* e = find_edge(a, b);
  return e ? static_cast<std::size_t>(std::popcount(e->relationship_mask))
           : 0;
}

std::vector<Relationship> ReferenceSocialGraph::relationships(NodeId a,
                                                     NodeId b) const {
  std::vector<Relationship> result;
  if (a >= adjacency_.size() || b >= adjacency_.size()) return result;
  const EdgeRecord* e = find_edge(a, b);
  if (!e) return result;
  for (std::size_t i = 0; i < kRelationshipCount; ++i) {
    if (e->relationship_mask & (1U << i))
      result.push_back(static_cast<Relationship>(i));
  }
  return result;
}

std::uint8_t ReferenceSocialGraph::relationship_mask(NodeId a,
                                            NodeId b) const noexcept {
  if (a >= adjacency_.size() || b >= adjacency_.size()) return 0;
  const EdgeRecord* e = find_edge(a, b);
  return e ? e->relationship_mask : 0;
}

std::span<const NodeId> ReferenceSocialGraph::neighbors(NodeId a) const noexcept {
  if (a >= neighbor_ids_.size()) return {};
  return neighbor_ids_[a];
}

std::size_t ReferenceSocialGraph::degree(NodeId a) const noexcept {
  return a < adjacency_.size() ? adjacency_[a].size() : 0;
}

void ReferenceSocialGraph::record_interaction(NodeId from, NodeId to, double count) {
  check_node(from);
  check_node(to);
  if (from == to || !std::isfinite(count) || count <= 0.0) return;
  if (!std::isfinite(interaction_totals_[from] + count)) return;
  auto& row = interactions_[from];
  auto it = std::lower_bound(
      row.begin(), row.end(), to,
      [](const std::pair<NodeId, double>& p, NodeId id) {
        return p.first < id;
      });
  if (it != row.end() && it->first == to) {
    it->second += count;
  } else {
    row.insert(it, {to, count});
  }
  interaction_totals_[from] += count;
}

double ReferenceSocialGraph::interaction(NodeId from, NodeId to) const noexcept {
  if (from >= interactions_.size()) return 0.0;
  const auto& row = interactions_[from];
  auto it = std::lower_bound(
      row.begin(), row.end(), to,
      [](const std::pair<NodeId, double>& p, NodeId id) {
        return p.first < id;
      });
  return (it != row.end() && it->first == to) ? it->second : 0.0;
}

double ReferenceSocialGraph::total_interactions(NodeId from) const noexcept {
  return from < interaction_totals_.size() ? interaction_totals_[from] : 0.0;
}

std::vector<NodeId> ReferenceSocialGraph::common_friends(NodeId a, NodeId b) const {
  std::vector<NodeId> result;
  if (a >= adjacency_.size() || b >= adjacency_.size()) return result;
  const auto& na = neighbor_ids_[a];
  const auto& nb = neighbor_ids_[b];
  std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                        std::back_inserter(result));
  // a and b themselves are not "common friends" even if the graph contains
  // a triangle through them.
  std::erase(result, a);
  std::erase(result, b);
  return result;
}

namespace {

/// Reusable BFS workspace. A hop-capped BFS on a large graph spends a
/// surprising share of its time on setup — an O(n) visited/parent fill
/// plus std::queue's deque allocations — so the traversals below reuse a
/// per-thread scratch: visits are stamp-gated (no clearing between
/// calls) and the frontier is two flat level vectors. thread_local keeps
/// concurrent BFS calls (the parallel update interval) fully disjoint,
/// and the scratch never leaks into results: every BFS is still a pure
/// function of (graph, a, b, max_hops).
struct RefBfsScratch {
  std::vector<NodeId> parent;
  std::vector<std::uint64_t> stamp;
  std::uint64_t epoch = 0;
  std::vector<NodeId> current;
  std::vector<NodeId> next;
};

RefBfsScratch& ref_bfs_scratch(std::size_t n) {
  thread_local RefBfsScratch scratch;
  if (scratch.stamp.size() < n) {
    scratch.parent.resize(n);
    scratch.stamp.resize(n, 0);
  }
  ++scratch.epoch;
  scratch.current.clear();
  scratch.next.clear();
  return scratch;
}

}  // namespace

std::optional<std::size_t> ReferenceSocialGraph::distance(
    NodeId a, NodeId b, std::size_t max_hops) const {
  check_node(a);
  check_node(b);
  if (a == b) return 0;
  // Level-synchronous BFS with a hop cap; the paper only ever needs
  // distances <= 4. Levels are expanded in the same FIFO order the
  // classic queue formulation uses, so the hop count found first is
  // identical.
  RefBfsScratch& s = ref_bfs_scratch(adjacency_.size());
  s.stamp[a] = s.epoch;
  s.current.push_back(a);
  for (std::size_t hops = 0; hops < max_hops && !s.current.empty(); ++hops) {
    s.next.clear();
    for (NodeId node : s.current) {
      for (NodeId next : neighbor_ids_[node]) {
        if (s.stamp[next] == s.epoch) continue;
        if (next == b) return hops + 1;
        s.stamp[next] = s.epoch;
        s.next.push_back(next);
      }
    }
    std::swap(s.current, s.next);
  }
  return std::nullopt;
}

std::optional<std::vector<NodeId>> ReferenceSocialGraph::shortest_path(
    NodeId a, NodeId b, std::size_t max_hops) const {
  check_node(a);
  check_node(b);
  if (a == b) return std::vector<NodeId>{a};
  // Same level-synchronous traversal as distance(); the parent links
  // record the first discovery, so the reconstructed path is the exact
  // path the queue-based BFS returned (discovery order is unchanged —
  // bottleneck closeness depends on the specific path, not just its
  // length, making that equivalence part of the bit-identity contract).
  RefBfsScratch& s = ref_bfs_scratch(adjacency_.size());
  s.stamp[a] = s.epoch;
  s.parent[a] = a;
  s.current.push_back(a);
  for (std::size_t hops = 0; hops < max_hops && !s.current.empty(); ++hops) {
    s.next.clear();
    for (NodeId node : s.current) {
      for (NodeId next : neighbor_ids_[node]) {
        if (s.stamp[next] == s.epoch) continue;
        s.stamp[next] = s.epoch;
        s.parent[next] = node;
        if (next == b) {
          std::vector<NodeId> path{b};
          for (NodeId cur = b; cur != a; cur = s.parent[cur])
            path.push_back(s.parent[cur]);
          std::reverse(path.begin(), path.end());
          return path;
        }
        s.next.push_back(next);
      }
    }
    std::swap(s.current, s.next);
  }
  return std::nullopt;
}

void ReferenceSocialGraph::clear_node(NodeId node) {
  check_node(node);
  // Drop all relationships (removing from both endpoints).
  std::vector<NodeId> friends(neighbor_ids_[node].begin(),
                              neighbor_ids_[node].end());
  for (NodeId other : friends) {
    for (std::size_t r = 0; r < kRelationshipCount; ++r) {
      remove_relationship(node, other, static_cast<Relationship>(r));
    }
  }
  // Drop outgoing interactions.
  if (!interactions_[node].empty()) {
    interactions_[node].clear();
    interaction_totals_[node] = 0.0;
  }
  // Drop incoming interactions; each affected rater's Eq. (2) total
  // shrinks with its row.
  for (NodeId from = 0; from < interactions_.size(); ++from) {
    auto& row = interactions_[from];
    auto it = std::lower_bound(
        row.begin(), row.end(), node,
        [](const std::pair<NodeId, double>& p, NodeId id) {
          return p.first < id;
        });
    if (it != row.end() && it->first == node) {
      interaction_totals_[from] -= it->second;
      row.erase(it);
    }
  }
}

std::size_t ReferenceSocialGraph::edge_count() const noexcept {
  std::size_t half_edges = 0;
  for (const auto& edges : adjacency_) half_edges += edges.size();
  return half_edges / 2;
}

SocialGraph::MemoryFootprint ReferenceSocialGraph::memory_footprint()
    const noexcept {
  auto vec_bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  SocialGraph::MemoryFootprint m;
  m.adjacency_bytes = vec_bytes(adjacency_) + vec_bytes(neighbor_ids_) +
                      vec_bytes(node_epochs_);
  for (const auto& edges : adjacency_) m.adjacency_bytes += vec_bytes(edges);
  for (const auto& ids : neighbor_ids_) m.adjacency_bytes += vec_bytes(ids);
  m.interaction_bytes = vec_bytes(interactions_) + vec_bytes(interaction_totals_);
  for (const auto& row : interactions_) m.interaction_bytes += vec_bytes(row);
  return m;
}

}  // namespace st::graph
