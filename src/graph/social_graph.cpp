#include "graph/social_graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace st::graph {

double default_relationship_weight(Relationship r) noexcept {
  switch (r) {
    case Relationship::kFriendship:
      return 1.0;
    case Relationship::kColleague:
      return 1.2;
    case Relationship::kClassmate:
      return 1.2;
    case Relationship::kNeighbor:
      return 1.1;
    case Relationship::kKinship:
      return 2.0;
    case Relationship::kBusiness:
      return 0.8;
  }
  return 1.0;
}

SocialGraph::SocialGraph(std::size_t node_count)
    : node_count_(node_count),
      rel_(node_count),
      int_(node_count),
      interaction_totals_(node_count, 0.0),
      node_epochs_(node_count, 0) {
  auto& registry = obs::Obs::instance().registry();
  obs_rebuilds_ = &registry.counter("social_graph.csr_rebuilds");
  obs_delta_edges_ = &registry.counter("social_graph.csr_delta_edges");
}

void SocialGraph::check_node(NodeId a) const {
  if (a >= node_count_)
    throw std::out_of_range("SocialGraph: node id out of range");
}

void SocialGraph::begin_interval() {
  const bool relationships = rel_.overlay_rows() > 0;
  const bool interactions = int_.overlay_rows() > 0 || int_tombstones_ > 0;
  if (!relationships && !interactions) return;
  std::uint64_t absorbed = int_tombstones_;
  if (relationships) {
    absorbed += rel_.compact([](std::uint8_t) { return true; });
  }
  // Zero-count tombstones (cleared targets) are dropped: interaction()
  // treats missing and zero identically, so this is invisible to every
  // accessor.
  if (interactions) {
    absorbed += int_.compact([](double count) { return count > 0.0; });
  }
  int_tombstones_ = 0;
  ++rebuilds_;
  obs_rebuilds_->add(1);
  obs_delta_edges_->add(absorbed);
}

// --- relationships -----------------------------------------------------------

bool SocialGraph::add_relationship(NodeId a, NodeId b, Relationship r) {
  check_node(a);
  check_node(b);
  if (a == b) return false;
  const auto mask = static_cast<std::uint8_t>(1U << static_cast<unsigned>(r));
  auto insert_half = [&](NodeId from, NodeId to) {
    const std::size_t idx = rel_.find(from, to);
    if (idx == rel_.npos) {
      rel_.insert(from, to, mask);
      ++half_edges_;
      return true;
    }
    std::uint8_t& entry = rel_.payload(from)[idx];
    if (entry & mask) return false;
    entry |= mask;  // in place: the row keeps its length
    return true;
  };
  const bool added = insert_half(a, b);
  const bool added_rev = insert_half(b, a);
  // The halves are symmetric, but bump on either so a broken half-edge
  // invariant can never strand an un-revisioned write.
  if (added || added_rev) bump_structure(a, b);
  return added;
}

bool SocialGraph::remove_relationship(NodeId a, NodeId b, Relationship r) {
  check_node(a);
  check_node(b);
  const auto mask = static_cast<std::uint8_t>(1U << static_cast<unsigned>(r));
  auto remove_half = [&](NodeId from, NodeId to) {
    const std::size_t idx = rel_.find(from, to);
    if (idx == rel_.npos) return false;
    std::uint8_t& entry = rel_.payload(from)[idx];
    if (!(entry & mask)) return false;
    const auto next = static_cast<std::uint8_t>(entry & ~unsigned{mask});
    if (next != 0) {
      entry = next;  // in place: the edge survives
      return true;
    }
    // Last type on the edge: the entry disappears.
    rel_.erase(from, idx);
    --half_edges_;
    return true;
  };
  const bool removed = remove_half(a, b);
  const bool removed_rev = remove_half(b, a);
  if (removed || removed_rev) bump_structure(a, b);
  return removed;
}

bool SocialGraph::adjacent(NodeId a, NodeId b) const noexcept {
  return relationship_mask(a, b) != 0;
}

std::size_t SocialGraph::relationship_count(NodeId a,
                                            NodeId b) const noexcept {
  return static_cast<std::size_t>(std::popcount(relationship_mask(a, b)));
}

std::vector<Relationship> SocialGraph::relationships(NodeId a,
                                                     NodeId b) const {
  std::vector<Relationship> result;
  const std::uint8_t mask = relationship_mask(a, b);
  for (std::size_t i = 0; i < kRelationshipCount; ++i) {
    if (mask & (1U << i)) result.push_back(static_cast<Relationship>(i));
  }
  return result;
}

std::uint8_t SocialGraph::relationship_mask(NodeId a,
                                            NodeId b) const noexcept {
  if (a >= node_count_ || b >= node_count_) return 0;
  return rel_.at(a, b);
}

std::span<const NodeId> SocialGraph::neighbors(NodeId a) const noexcept {
  if (a >= node_count_) return {};
  return rel_.row(a).targets;
}

std::size_t SocialGraph::degree(NodeId a) const noexcept {
  return neighbors(a).size();
}

// --- interactions ------------------------------------------------------------

void SocialGraph::record_interaction(NodeId from, NodeId to, double count) {
  check_node(from);
  check_node(to);
  if (from == to || !std::isfinite(count) || count <= 0.0) return;
  // A count that would overflow the Eq. (2) total is dropped whole, so
  // every count and total stays finite.
  const double total = interaction_totals_[from] + count;
  if (!std::isfinite(total)) return;
  const std::size_t idx = int_.find(from, to);
  if (idx == int_.npos) {
    int_.insert(from, to, count);
  } else {
    double& entry = int_.payload(from)[idx];
    if (entry == 0.0 && int_tombstones_ > 0) --int_tombstones_;
    entry += count;  // in place: the row keeps its length
  }
  interaction_totals_[from] = total;
}

SocialGraph::InteractionRow SocialGraph::interactions(
    NodeId from) const noexcept {
  if (from >= node_count_) return {};
  const auto row = int_.row(from);
  return {row.targets, row.payload};
}

// --- derived structure -------------------------------------------------------

std::vector<NodeId> SocialGraph::common_friends(NodeId a, NodeId b) const {
  std::vector<NodeId> result;
  if (a >= node_count_ || b >= node_count_) return result;
  // Cache-linear merge over the two sorted CSR rows; a and b themselves
  // are not "common friends" even if the graph contains a triangle
  // through them.
  const std::span<const NodeId> ra = rel_.row(a).targets;
  const std::span<const NodeId> rb = rel_.row(b).targets;
  const NodeId* pa = ra.data();
  const NodeId* ea = pa + ra.size();
  const NodeId* pb = rb.data();
  const NodeId* eb = pb + rb.size();
  while (pa != ea && pb != eb) {
    if (*pa < *pb) {
      ++pa;
    } else if (*pb < *pa) {
      ++pb;
    } else {
      if (*pa != a && *pa != b) result.push_back(*pa);
      ++pa;
      ++pb;
    }
  }
  return result;
}

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define ST_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define ST_PREFETCH(addr) ((void)0)
#endif

/// Reusable search workspace. A hop-capped search on a large graph spends
/// a surprising share of its time on setup — an O(n) visited/parent fill
/// plus std::queue's deque allocations — so the search below reuses a
/// per-thread scratch: visits are stamp-gated (no clearing between
/// calls) and each side's frontier is two flat level vectors.
/// thread_local keeps concurrent searches (the parallel update interval)
/// fully disjoint, and the scratch never leaks into results: every
/// search is still a pure function of (graph, a, b, max_hops).
struct BfsScratch {
  /// One word per side per node, each packing the visit stamp (low 32
  /// bits) with that side's payload (high 32): the BFS parent for the
  /// forward side, the hop level from the sink for the backward side.
  /// The two words are interleaved so "seen by this side?" and "seen by
  /// the other side?" are one cache-line touch per node — the innermost
  /// memory traffic of the whole search.
  struct NodeState {
    std::uint64_t fwd = 0;
    std::uint64_t bwd = 0;
  };
  std::vector<NodeState> node_state;
  std::uint32_t epoch = 0;
  std::vector<NodeId> fwd_current;
  std::vector<NodeId> fwd_next;
  std::vector<NodeId> bwd_current;
  std::vector<NodeId> bwd_next;

  std::uint64_t stamped(std::uint32_t payload) const noexcept {
    return epoch | (std::uint64_t{payload} << 32);
  }
  bool fwd_seen(NodeId v) const noexcept {
    return static_cast<std::uint32_t>(node_state[v].fwd) == epoch;
  }
  bool bwd_seen(NodeId v) const noexcept {
    return static_cast<std::uint32_t>(node_state[v].bwd) == epoch;
  }
  void mark_fwd(NodeId v, NodeId parent) noexcept {
    node_state[v].fwd = stamped(parent);
  }
  void mark_bwd(NodeId v, std::uint32_t level) noexcept {
    node_state[v].bwd = stamped(level);
  }
  NodeId parent_of(NodeId v) const noexcept {
    return static_cast<NodeId>(node_state[v].fwd >> 32);
  }
  bool at_bwd_level(NodeId v, std::uint32_t level) const noexcept {
    return node_state[v].bwd == stamped(level);
  }
};

BfsScratch& bfs_scratch(std::size_t n) {
  thread_local BfsScratch scratch;
  if (scratch.node_state.size() < n) {
    scratch.node_state.resize(n);
  }
  if (++scratch.epoch == 0) {
    // u32 stamp wrapped: stale words could alias the fresh epoch, so
    // clear once per 2^32 searches and restart above the zero-init.
    std::fill(scratch.node_state.begin(), scratch.node_state.end(),
              BfsScratch::NodeState{});
    scratch.epoch = 1;
  }
  scratch.fwd_current.clear();
  scratch.fwd_next.clear();
  scratch.bwd_current.clear();
  scratch.bwd_next.clear();
  return scratch;
}

/// Adjacency rows as the search reads them: straight off the flat CSR
/// arrays when no overlay row is live (the steady state after
/// begin_interval()), through the overlay-routing neighbors() otherwise.
/// Either way each row is one contiguous ascending slice.
struct SearchRows {
  const SocialGraph& g;
  const std::uint64_t* offsets;
  const NodeId* targets;
  bool pure_csr;

  std::span<const NodeId> operator()(NodeId v) const noexcept {
    if (!pure_csr) return g.neighbors(v);
    return {targets + offsets[v],
            static_cast<std::size_t>(offsets[v + 1] - offsets[v])};
  }
  /// Hides the two random fetches each frontier node costs — its offsets
  /// entry and its target row — by issuing them a little ahead of the
  /// expansion; visit order is untouched.
  void prefetch(const std::vector<NodeId>& frontier,
                std::size_t idx) const noexcept {
    if (idx + 2 < frontier.size()) ST_PREFETCH(offsets + frontier[idx + 2]);
    if (idx + 1 < frontier.size()) {
      ST_PREFETCH(targets + offsets[frontier[idx + 1]]);
    }
  }
};

/// Where the two searches met: `via` is the first node of forward level
/// `fwd_level`, in forward FIFO discovery order, with a neighbour at
/// backward level `bwd_level`. The a-b distance is fwd_level + bwd_level
/// + 1.
struct Meeting {
  NodeId via = 0;
  std::uint32_t fwd_level = 0;
  std::uint32_t bwd_level = 0;
};

/// Meet-in-the-middle search between a != b (DESIGN.md §15). Each round
/// expands one whole level of whichever frontier is smaller; the forward
/// side expands exactly as the classic FIFO BFS from `a` does (ascending
/// rows, first discovery wins), so its levels, their discovery order and
/// its parent links are that BFS's. The backward side from `b` records
/// only levels. No node is seen by both sides until the round that meets
/// them, so the first meeting fixes the distance; the round that finds it
/// also names `via`:
///   * forward round: the frontier node being expanded when its row first
///     shows a backward-seen neighbour — frontier order is FIFO order;
///   * backward round: the level is finished, which marks every forward
///     frontier node adjacent to it, and the first marked one in frontier
///     order is taken.
/// Returns nullopt when the distance exceeds max_hops or a frontier runs
/// dry first.
std::optional<Meeting> meet_in_the_middle(BfsScratch& s,
                                          const SearchRows& rows, NodeId a,
                                          NodeId b, std::size_t max_hops) {
  s.mark_fwd(a, a);
  s.mark_bwd(b, 0);
  s.fwd_current.push_back(a);
  s.bwd_current.push_back(b);
  std::uint32_t rf = 0;
  std::uint32_t rb = 0;
  while (std::size_t{rf} + rb < max_hops && !s.fwd_current.empty() &&
         !s.bwd_current.empty()) {
    if (s.fwd_current.size() <= s.bwd_current.size()) {
      s.fwd_next.clear();
      for (std::size_t idx = 0; idx < s.fwd_current.size(); ++idx) {
        const NodeId node = s.fwd_current[idx];
        rows.prefetch(s.fwd_current, idx);
        const std::span<const NodeId> row = rows(node);
        for (std::size_t k = 0; k < row.size(); ++k) {
          if (k + 4 < row.size()) ST_PREFETCH(&s.node_state[row[k + 4]]);
          const NodeId next = row[k];
          if (s.fwd_seen(next)) continue;
          if (s.bwd_seen(next)) return Meeting{node, rf, rb};
          s.mark_fwd(next, node);
          s.fwd_next.push_back(next);
        }
      }
      std::swap(s.fwd_current, s.fwd_next);
      ++rf;
    } else {
      s.bwd_next.clear();
      bool met = false;
      for (std::size_t idx = 0; idx < s.bwd_current.size(); ++idx) {
        const NodeId node = s.bwd_current[idx];
        rows.prefetch(s.bwd_current, idx);
        const std::span<const NodeId> row = rows(node);
        for (std::size_t k = 0; k < row.size(); ++k) {
          if (k + 4 < row.size()) ST_PREFETCH(&s.node_state[row[k + 4]]);
          const NodeId next = row[k];
          if (s.bwd_seen(next)) continue;
          met = met || s.fwd_seen(next);
          s.mark_bwd(next, rb + 1);
          s.bwd_next.push_back(next);
        }
      }
      if (met) {
        for (const NodeId node : s.fwd_current) {
          if (s.at_bwd_level(node, rb + 1)) return Meeting{node, rf, rb};
        }
      }
      std::swap(s.bwd_current, s.bwd_next);
      ++rb;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::size_t> SocialGraph::distance(
    NodeId a, NodeId b, std::size_t max_hops) const {
  // No shortest path repeats a node, so a cap past size() hops finds
  // nothing more, and the buffer never needs to be longer.
  std::vector<NodeId> path(std::min(max_hops, node_count_) + 1);
  const std::size_t count = shortest_path(a, b, std::span<NodeId>(path));
  if (count == 0) return std::nullopt;
  return count - 1;
}

std::optional<std::vector<NodeId>> SocialGraph::shortest_path(
    NodeId a, NodeId b, std::size_t max_hops) const {
  std::vector<NodeId> path(std::min(max_hops, node_count_) + 1);  // as above
  path.resize(shortest_path(a, b, std::span<NodeId>(path)));
  if (path.empty()) return std::nullopt;
  return path;
}

std::size_t SocialGraph::shortest_path(NodeId a, NodeId b,
                                       std::span<NodeId> out) const {
  check_node(a);
  check_node(b);
  if (out.empty()) return 0;
  if (a == b) {
    out[0] = a;
    return 1;
  }
  BfsScratch& s = bfs_scratch(node_count_);
  const SearchRows rows{*this, rel_.offsets(), rel_.targets(),
                        rel_.overlay_rows() == 0};
  const std::optional<Meeting> m =
      meet_in_the_middle(s, rows, a, b, out.size() - 1);
  if (!m) return 0;
  // The lexicographically smallest shortest path, which is exactly what
  // the forward FIFO BFS returns (DESIGN.md §13/§15): the lex-min path
  // to `via` along the forward parent links, then from `via` the
  // smallest-id neighbour one backward level nearer `b` at every step
  // (rows ascend, so the first hit is the smallest). The distance is at
  // most the cap, so the path fits in `out`.
  const std::size_t count = std::size_t{m->fwd_level} + m->bwd_level + 2;
  NodeId cur = m->via;
  for (std::size_t step = m->fwd_level + 1; step-- > 0;) {
    out[step] = cur;
    cur = s.parent_of(cur);
  }
  cur = m->via;
  for (std::size_t step = m->fwd_level + 1; step < count; ++step) {
    const auto level = static_cast<std::uint32_t>(count - 1 - step);
    for (const NodeId next : rows(cur)) {
      if (s.at_bwd_level(next, level)) {
        cur = next;
        break;
      }
    }
    out[step] = cur;
  }
  return count;
}

void SocialGraph::clear_node(NodeId node) {
  check_node(node);
  // Drop all relationships (removing from both endpoints). The friend
  // list is copied first: removing an edge resizes, and so moves, the
  // row it is read from.
  const std::span<const NodeId> row = neighbors(node);
  const std::vector<NodeId> friends(row.begin(), row.end());
  for (NodeId other : friends) {
    for (std::size_t r = 0; r < kRelationshipCount; ++r) {
      remove_relationship(node, other, static_cast<Relationship>(r));
    }
  }
  // Drop outgoing interactions: zero the counts in place (zero and
  // absent are indistinguishable through every accessor); the next
  // begin_interval() reclaims the tombstones.
  bool any = false;
  for (double& count : int_.payload(node)) {
    if (count > 0.0) {
      count = 0.0;
      ++int_tombstones_;
      any = true;
    }
  }
  if (any) interaction_totals_[node] = 0.0;
  // Drop incoming interactions; each affected rater's Eq. (2) total
  // shrinks with its row.
  for (NodeId from = 0; from < node_count_; ++from) {
    if (from == node) continue;
    const std::size_t idx = int_.find(from, node);
    if (idx == int_.npos) continue;
    double& count = int_.payload(from)[idx];
    if (count > 0.0) {
      interaction_totals_[from] -= count;
      count = 0.0;
      ++int_tombstones_;
    }
  }
}

SocialGraph::MemoryFootprint SocialGraph::memory_footprint() const noexcept {
  MemoryFootprint m;
  m.adjacency_bytes =
      rel_.flat_bytes() + node_epochs_.capacity() * sizeof(Revision);
  m.interaction_bytes = int_.flat_bytes() + interaction_totals_.capacity() *
                                                sizeof(double);
  m.overlay_bytes = rel_.overlay_bytes() + int_.overlay_bytes();
  return m;
}

}  // namespace st::graph
