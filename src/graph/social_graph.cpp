#include "graph/social_graph.hpp"

#include <algorithm>
#include <bit>
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
      rel_offsets_(node_count + 1, 0),
      rel_overlay_slot_(node_count, kNoOverlay),
      int_offsets_(node_count + 1, 0),
      int_overlay_slot_(node_count, kNoOverlay),
      interaction_totals_(node_count, 0.0),
      revisions_(node_count, 0),
      structure_revisions_(node_count, 0) {
  auto& registry = obs::Obs::instance().registry();
  obs_rebuilds_ = &registry.counter("social_graph.csr_rebuilds");
  obs_delta_edges_ = &registry.counter("social_graph.csr_delta_edges");
}

void SocialGraph::bump_structure(NodeId a, NodeId b) {
  ++structure_revisions_[a];
  ++structure_revisions_[b];
  ++revisions_[a];
  ++revisions_[b];
  ++structure_epoch_;
  ++epoch_;
}

void SocialGraph::bump_value(NodeId a) {
  ++revisions_[a];
  ++epoch_;
}

void SocialGraph::check_node(NodeId a) const {
  if (a >= node_count_)
    throw std::out_of_range("SocialGraph: node id out of range");
}

// --- row views ---------------------------------------------------------------

SocialGraph::RelRow SocialGraph::rel_row(NodeId a) const noexcept {
  const std::uint32_t slot = rel_overlay_slot_[a];
  if (slot != kNoOverlay) {
    const RelOverlayRow& row = rel_overlay_[slot];
    return {row.targets.data(), row.masks.data(), row.targets.size()};
  }
  const std::uint64_t begin = rel_offsets_[a];
  return {rel_targets_.data() + begin, rel_masks_.data() + begin,
          static_cast<std::size_t>(rel_offsets_[a + 1] - begin)};
}

SocialGraph::RelRowMut SocialGraph::rel_row_mut(NodeId a) noexcept {
  const std::uint32_t slot = rel_overlay_slot_[a];
  if (slot != kNoOverlay) {
    RelOverlayRow& row = rel_overlay_[slot];
    return {row.targets.data(), row.masks.data(), row.targets.size()};
  }
  const std::uint64_t begin = rel_offsets_[a];
  return {rel_targets_.data() + begin, rel_masks_.data() + begin,
          static_cast<std::size_t>(rel_offsets_[a + 1] - begin)};
}

SocialGraph::IntRow SocialGraph::int_row(NodeId a) const noexcept {
  const std::uint32_t slot = int_overlay_slot_[a];
  if (slot != kNoOverlay) {
    const IntOverlayRow& row = int_overlay_[slot];
    return {row.targets.data(), row.counts.data(), row.targets.size()};
  }
  const std::uint64_t begin = int_offsets_[a];
  return {int_targets_.data() + begin, int_counts_.data() + begin,
          static_cast<std::size_t>(int_offsets_[a + 1] - begin)};
}

SocialGraph::IntRowMut SocialGraph::int_row_mut(NodeId a) noexcept {
  const std::uint32_t slot = int_overlay_slot_[a];
  if (slot != kNoOverlay) {
    IntOverlayRow& row = int_overlay_[slot];
    return {row.targets.data(), row.counts.data(), row.targets.size()};
  }
  const std::uint64_t begin = int_offsets_[a];
  return {int_targets_.data() + begin, int_counts_.data() + begin,
          static_cast<std::size_t>(int_offsets_[a + 1] - begin)};
}

std::size_t SocialGraph::find_in(const NodeId* targets, std::size_t size,
                                 NodeId b) noexcept {
  const NodeId* end = targets + size;
  const NodeId* it = std::lower_bound(targets, end, b);
  return (it != end && *it == b) ? static_cast<std::size_t>(it - targets)
                                 : static_cast<std::size_t>(-1);
}

SocialGraph::RelOverlayRow& SocialGraph::materialize_rel(NodeId a) {
  std::uint32_t slot = rel_overlay_slot_[a];
  if (slot == kNoOverlay) {
    slot = static_cast<std::uint32_t>(rel_overlay_.size());
    rel_overlay_.emplace_back();
    RelOverlayRow& row = rel_overlay_.back();
    const std::uint64_t begin = rel_offsets_[a];
    const std::uint64_t end = rel_offsets_[a + 1];
    row.targets.assign(rel_targets_.begin() + static_cast<std::ptrdiff_t>(begin),
                       rel_targets_.begin() + static_cast<std::ptrdiff_t>(end));
    row.masks.assign(rel_masks_.begin() + static_cast<std::ptrdiff_t>(begin),
                     rel_masks_.begin() + static_cast<std::ptrdiff_t>(end));
    rel_overlay_slot_[a] = slot;
    rel_overlay_entries_ += row.targets.size();
    ++rel_overlay_live_;
  }
  return rel_overlay_[slot];
}

SocialGraph::IntOverlayRow& SocialGraph::materialize_int(NodeId a) {
  std::uint32_t slot = int_overlay_slot_[a];
  if (slot == kNoOverlay) {
    slot = static_cast<std::uint32_t>(int_overlay_.size());
    int_overlay_.emplace_back();
    IntOverlayRow& row = int_overlay_.back();
    const std::uint64_t begin = int_offsets_[a];
    const std::uint64_t end = int_offsets_[a + 1];
    row.targets.assign(int_targets_.begin() + static_cast<std::ptrdiff_t>(begin),
                       int_targets_.begin() + static_cast<std::ptrdiff_t>(end));
    row.counts.assign(int_counts_.begin() + static_cast<std::ptrdiff_t>(begin),
                      int_counts_.begin() + static_cast<std::ptrdiff_t>(end));
    int_overlay_slot_[a] = slot;
    int_overlay_entries_ += row.targets.size();
    ++int_overlay_live_;
  }
  return int_overlay_[slot];
}

// --- compaction --------------------------------------------------------------

void SocialGraph::rebuild() {
  const std::uint64_t delta =
      rel_overlay_entries_ + int_overlay_entries_ + int_tombstones_;

  // Adjacency: one node-ordered sweep, each row taken from its overlay
  // when routed there, from the old CSR slice otherwise. Rows are already
  // sorted, so the result is the canonical sorted CSR independent of the
  // mutation order that produced the overlay.
  {
    std::vector<std::uint64_t> offsets(node_count_ + 1, 0);
    std::uint64_t total = 0;
    for (NodeId a = 0; a < node_count_; ++a) {
      offsets[a] = total;
      total += rel_row(a).size;
    }
    offsets[node_count_] = total;
    std::vector<NodeId> targets(total);
    std::vector<std::uint8_t> masks(total);
    for (NodeId a = 0; a < node_count_; ++a) {
      const RelRow row = rel_row(a);
      std::copy(row.targets, row.targets + row.size,
                targets.begin() + static_cast<std::ptrdiff_t>(offsets[a]));
      std::copy(row.masks, row.masks + row.size,
                masks.begin() + static_cast<std::ptrdiff_t>(offsets[a]));
    }
    rel_offsets_ = std::move(offsets);
    rel_targets_ = std::move(targets);
    rel_masks_ = std::move(masks);
    rel_overlay_.clear();
    std::fill(rel_overlay_slot_.begin(), rel_overlay_slot_.end(), kNoOverlay);
    rel_overlay_entries_ = 0;
    rel_overlay_live_ = 0;
  }

  // Interactions: same sweep; zero-count tombstones (cleared targets) are
  // dropped — interaction() treats missing and zero identically, so this
  // is invisible to every accessor.
  {
    std::vector<std::uint64_t> offsets(node_count_ + 1, 0);
    std::uint64_t total = 0;
    for (NodeId a = 0; a < node_count_; ++a) {
      offsets[a] = total;
      const IntRow row = int_row(a);
      for (std::size_t k = 0; k < row.size; ++k) {
        if (row.counts[k] > 0.0) ++total;
      }
    }
    offsets[node_count_] = total;
    std::vector<NodeId> targets(total);
    std::vector<double> counts(total);
    std::uint64_t out = 0;
    for (NodeId a = 0; a < node_count_; ++a) {
      const IntRow row = int_row(a);
      for (std::size_t k = 0; k < row.size; ++k) {
        if (row.counts[k] > 0.0) {
          targets[out] = row.targets[k];
          counts[out] = row.counts[k];
          ++out;
        }
      }
    }
    int_offsets_ = std::move(offsets);
    int_targets_ = std::move(targets);
    int_counts_ = std::move(counts);
    int_overlay_.clear();
    std::fill(int_overlay_slot_.begin(), int_overlay_slot_.end(), kNoOverlay);
    int_overlay_entries_ = 0;
    int_overlay_live_ = 0;
    int_tombstones_ = 0;
  }

  ++rebuilds_;
  obs_rebuilds_->add(1);
  obs_delta_edges_->add(delta);
}

void SocialGraph::begin_interval() {
  if (delta_mass() > 0) rebuild();
}

// --- relationships -----------------------------------------------------------

bool SocialGraph::add_relationship(NodeId a, NodeId b, Relationship r) {
  check_node(a);
  check_node(b);
  if (a == b) return false;
  const auto mask = static_cast<std::uint8_t>(1U << static_cast<unsigned>(r));
  bool new_edge = false;
  auto insert_half = [&](NodeId from, NodeId to) {
    const RelRowMut row = rel_row_mut(from);
    const std::size_t idx = find_in(row.targets, row.size, to);
    if (idx != static_cast<std::size_t>(-1)) {
      if (row.masks[idx] & mask) return false;
      row.masks[idx] |= mask;  // in-place: row length is unchanged
      return true;
    }
    RelOverlayRow& overlay = materialize_rel(from);
    const auto it = std::lower_bound(overlay.targets.begin(),
                                     overlay.targets.end(), to);
    const auto pos = it - overlay.targets.begin();
    overlay.targets.insert(it, to);
    overlay.masks.insert(overlay.masks.begin() + pos, mask);
    ++rel_overlay_entries_;
    ++half_edges_;
    new_edge = true;
    return true;
  };
  const bool added = insert_half(a, b);
  const bool added_rev = insert_half(b, a);
  // The halves are symmetric, but bump on either so a broken half-edge
  // invariant can never strand an un-revisioned write.
  if (added || added_rev) bump_structure(a, b);
  // A brand-new adjacency (as opposed to one more type on an existing
  // edge) is the only mutation that can create or shorten paths.
  if (new_edge) ++addition_epoch_;
  maybe_rebuild();
  return added;
}

bool SocialGraph::remove_relationship(NodeId a, NodeId b, Relationship r) {
  check_node(a);
  check_node(b);
  const auto mask = static_cast<std::uint8_t>(1U << static_cast<unsigned>(r));
  auto remove_half = [&](NodeId from, NodeId to) {
    const RelRowMut row = rel_row_mut(from);
    const std::size_t idx = find_in(row.targets, row.size, to);
    if (idx == static_cast<std::size_t>(-1) || !(row.masks[idx] & mask))
      return false;
    const auto next =
        static_cast<std::uint8_t>(row.masks[idx] & ~unsigned{mask});
    if (next != 0) {
      row.masks[idx] = next;  // in-place: the edge survives
      return true;
    }
    // Last type on the edge: the entry disappears, which resizes the row
    // — materialise and erase from the overlay copy.
    RelOverlayRow& overlay = materialize_rel(from);
    const auto it = std::lower_bound(overlay.targets.begin(),
                                     overlay.targets.end(), to);
    const auto pos = it - overlay.targets.begin();
    overlay.targets.erase(it);
    overlay.masks.erase(overlay.masks.begin() + pos);
    --rel_overlay_entries_;
    --half_edges_;
    return true;
  };
  const bool removed = remove_half(a, b);
  const bool removed_rev = remove_half(b, a);
  if (removed || removed_rev) bump_structure(a, b);
  maybe_rebuild();
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
  const RelRow row = rel_row(a);
  const std::size_t idx = find_in(row.targets, row.size, b);
  return idx != static_cast<std::size_t>(-1) ? row.masks[idx] : 0;
}

std::span<const NodeId> SocialGraph::neighbors(NodeId a) const noexcept {
  if (a >= node_count_) return {};
  const RelRow row = rel_row(a);
  return {row.targets, row.size};
}

std::size_t SocialGraph::degree(NodeId a) const noexcept {
  return a < node_count_ ? rel_row(a).size : 0;
}

// --- interactions ------------------------------------------------------------

void SocialGraph::record_interaction(NodeId from, NodeId to, double count) {
  check_node(from);
  check_node(to);
  if (from == to || count <= 0.0) return;
  const IntRowMut row = int_row_mut(from);
  const std::size_t idx = find_in(row.targets, row.size, to);
  if (idx != static_cast<std::size_t>(-1)) {
    if (row.counts[idx] == 0.0 && int_tombstones_ > 0) --int_tombstones_;
    row.counts[idx] += count;  // in-place: counts are mutable CSR payload
  } else {
    IntOverlayRow& overlay = materialize_int(from);
    const auto it =
        std::lower_bound(overlay.targets.begin(), overlay.targets.end(), to);
    const auto pos = it - overlay.targets.begin();
    overlay.targets.insert(it, to);
    overlay.counts.insert(overlay.counts.begin() + pos, count);
    ++int_overlay_entries_;
  }
  interaction_totals_[from] += count;
  bump_value(from);
  maybe_rebuild();
}

double SocialGraph::interaction(NodeId from, NodeId to) const noexcept {
  if (from >= node_count_) return 0.0;
  const IntRow row = int_row(from);
  const std::size_t idx = find_in(row.targets, row.size, to);
  return idx != static_cast<std::size_t>(-1) ? row.counts[idx] : 0.0;
}

double SocialGraph::total_interactions(NodeId from) const noexcept {
  return from < node_count_ ? interaction_totals_[from] : 0.0;
}

SocialGraph::InteractionRow SocialGraph::interactions(
    NodeId from) const noexcept {
  if (from >= node_count_) return {};
  const IntRow row = int_row(from);
  return {{row.targets, row.size}, {row.counts, row.size}};
}

// --- derived structure -------------------------------------------------------

std::vector<NodeId> SocialGraph::common_friends(NodeId a, NodeId b) const {
  std::vector<NodeId> result;
  if (a >= node_count_ || b >= node_count_) return result;
  // Cache-linear merge over the two sorted CSR rows; a and b themselves
  // are not "common friends" even if the graph contains a triangle
  // through them.
  const RelRow ra = rel_row(a);
  const RelRow rb = rel_row(b);
  const NodeId* pa = ra.targets;
  const NodeId* ea = ra.targets + ra.size;
  const NodeId* pb = rb.targets;
  const NodeId* eb = rb.targets + rb.size;
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
  const auto path = shortest_path(a, b, max_hops);
  if (!path) return std::nullopt;
  return path->size() - 1;
}

std::optional<std::vector<NodeId>> SocialGraph::shortest_path(
    NodeId a, NodeId b, std::size_t max_hops) const {
  check_node(a);
  check_node(b);
  if (a == b) return std::vector<NodeId>{a};
  BfsScratch& s = bfs_scratch(node_count_);
  const SearchRows rows{*this, rel_offsets_.data(), rel_targets_.data(),
                        rel_overlay_live_ == 0};
  const std::optional<Meeting> m = meet_in_the_middle(s, rows, a, b, max_hops);
  if (!m) return std::nullopt;
  // The lexicographically smallest shortest path, which is exactly what
  // the forward FIFO BFS returns (DESIGN.md §13/§15): the lex-min path
  // to `via` along the forward parent links, then from `via` the
  // smallest-id neighbour one backward level nearer `b` at every step
  // (rows ascend, so the first hit is the smallest).
  std::vector<NodeId> path(std::size_t{m->fwd_level} + m->bwd_level + 2);
  NodeId cur = m->via;
  for (std::size_t step = m->fwd_level + 1; step-- > 0;) {
    path[step] = cur;
    cur = s.parent_of(cur);
  }
  cur = m->via;
  for (std::size_t step = m->fwd_level + 1; step < path.size(); ++step) {
    const auto level = static_cast<std::uint32_t>(path.size() - 1 - step);
    for (const NodeId next : rows(cur)) {
      if (s.at_bwd_level(next, level)) {
        cur = next;
        break;
      }
    }
    path[step] = cur;
  }
  return path;
}

void SocialGraph::clear_node(NodeId node) {
  check_node(node);
  // Drop all relationships (removing from both endpoints). The friend
  // list is copied first: remove_relationship may materialise overlays
  // or trigger a compaction, either of which moves the row.
  const RelRow row = rel_row(node);
  const std::vector<NodeId> friends(row.targets, row.targets + row.size);
  for (NodeId other : friends) {
    for (std::size_t r = 0; r < kRelationshipCount; ++r) {
      remove_relationship(node, other, static_cast<Relationship>(r));
    }
  }
  // Drop outgoing interactions: zero the counts in place (zero and
  // absent are indistinguishable through every accessor); the next
  // rebuild reclaims the tombstones.
  {
    const IntRowMut mine = int_row_mut(node);
    bool any = false;
    for (std::size_t k = 0; k < mine.size; ++k) {
      if (mine.counts[k] > 0.0) {
        mine.counts[k] = 0.0;
        ++int_tombstones_;
        any = true;
      }
    }
    if (any) {
      interaction_totals_[node] = 0.0;
      bump_value(node);
    }
  }
  // Drop incoming interactions. f(from, node) is part of `from`'s state
  // (Eq. 2 normalises by from's totals), so each affected rater bumps.
  for (NodeId from = 0; from < node_count_; ++from) {
    if (from == node) continue;
    const IntRowMut row_from = int_row_mut(from);
    const std::size_t idx = find_in(row_from.targets, row_from.size, node);
    if (idx != static_cast<std::size_t>(-1) && row_from.counts[idx] > 0.0) {
      interaction_totals_[from] -= row_from.counts[idx];
      row_from.counts[idx] = 0.0;
      ++int_tombstones_;
      bump_value(from);
    }
  }
  maybe_rebuild();
}

SocialGraph::MemoryFootprint SocialGraph::memory_footprint() const noexcept {
  auto vec_bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  MemoryFootprint m;
  m.adjacency_bytes =
      vec_bytes(rel_offsets_) + vec_bytes(rel_targets_) + vec_bytes(rel_masks_);
  m.interaction_bytes = vec_bytes(int_offsets_) + vec_bytes(int_targets_) +
                        vec_bytes(int_counts_) + vec_bytes(interaction_totals_);
  m.overlay_bytes =
      vec_bytes(rel_overlay_slot_) + vec_bytes(int_overlay_slot_);
  for (const RelOverlayRow& row : rel_overlay_) {
    m.overlay_bytes += vec_bytes(row.targets) + vec_bytes(row.masks) +
                       sizeof(RelOverlayRow);
  }
  for (const IntOverlayRow& row : int_overlay_) {
    m.overlay_bytes += vec_bytes(row.targets) + vec_bytes(row.counts) +
                       sizeof(IntOverlayRow);
  }
  m.revision_bytes = vec_bytes(revisions_) + vec_bytes(structure_revisions_);
  return m;
}

}  // namespace st::graph
