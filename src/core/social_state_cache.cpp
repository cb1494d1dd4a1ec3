#include "core/social_state_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace st::core {

namespace {

/// shortest_path() at its default hop cap (graph::kMaxPathHops), as a
/// path entry for `j`; hops == 0 = unreachable.
SocialStateCache::PathEntry search(const graph::SocialGraph& g,
                                   graph::NodeId i, graph::NodeId j) {
  SocialStateCache::PathEntry entry;
  entry.ratee = j;
  graph::NodeId path[graph::kMaxPathHops + 1];
  const std::size_t count = g.shortest_path(i, j, path);
  if (count != 0) {
    entry.hops = static_cast<std::uint8_t>(count - 1);
    std::copy(path + 1, path + count - 1, entry.interior);
    for (std::size_t s = 1; s < entry.hops; ++s) {
      entry.masks[s - 1] = g.relationship_mask(path[s], path[s + 1]);
    }
  }
  return entry;
}

/// Adds one to a per-instance total and its process-wide obs counter.
void count(std::atomic<std::uint64_t>& total, obs::Counter& counter) noexcept {
  total.fetch_add(1, std::memory_order_relaxed);
  counter.add(1);
}

}  // namespace

/// Per-thread row workspace, kept across rows and intervals. A slot is
/// the open row's exactly when its stamp equals the row's, so opening a
/// row never clears the O(n) array: it bumps the stamp and stamps the
/// rater's neighbours. thread_local keeps concurrent rows (one per
/// worker) disjoint; the scratch never leaks into results.
struct SocialStateCache::Row::Scratch {
  struct Slot {
    std::uint32_t stamp = 0;  ///< the open row's stamp iff a neighbour
    std::uint8_t mask = 0;    ///< relationship mask of the edge to it
    bool known = false;       ///< `value` holds the edge's Eq. 2 value
    double value = 0.0;
  };
  std::vector<Slot> slots;
  std::uint32_t stamp = 0;

  static Scratch& open(std::size_t n) {
    thread_local Scratch scratch;
    if (scratch.slots.size() < n) scratch.slots.resize(n);
    if (++scratch.stamp == 0) {
      // u32 stamp wrapped: stale slots could alias the fresh stamp, so
      // clear once per 2^32 rows and restart above the zero-init.
      std::fill(scratch.slots.begin(), scratch.slots.end(), Slot{});
      scratch.stamp = 1;
    }
    return scratch;
  }
};

SocialStateCache::SocialStateCache() {
  auto& registry = obs::Obs::instance().registry();
  obs_invalidations_ = &registry.counter("social_cache.invalidations");
  obs_structure_hits_ = &registry.counter("social_cache.structure_hits");
  obs_structure_misses_ = &registry.counter("social_cache.structure_misses");
}

SocialStateCache::Boundary SocialStateCache::open_interval(
    const graph::SocialGraph& g) {
  if (rows_.size() < g.size()) rows_.resize(g.size());
  const Revision epoch = g.structure_epoch();
  Boundary boundary;
  if (epoch_ && *epoch_ != epoch) boundary = release_reach(g, *epoch_);
  epoch_ = epoch;
  return boundary;
}

SocialStateCache::Boundary SocialStateCache::release_reach(
    const graph::SocialGraph& g, Revision since) {
  // Level by level from the changed nodes: level h holds the nodes whose
  // nearest changed row is h hops away. A source at level <= kMaxPathHops
  // - 1 has a changed row inside the BFS its entries came from, so any of
  // its paths may now be longer, broken or no longer lex-min; a source
  // past it read only unchanged rows, which give the same levels, order
  // and parents on the current graph.
  Boundary boundary;
  std::vector<bool> reached(g.size(), false);
  std::vector<NodeId> level, next;
  for (NodeId v = 0; v < g.size(); ++v) {
    if (g.node_epoch(v) > since) {
      reached[v] = true;
      level.push_back(v);
    }
  }
  boundary.changed_nodes = level.size();
  std::size_t released = 0;
  for (std::size_t hops = 0; !level.empty(); ++hops) {
    for (const NodeId v : level) {
      released += rows_[v].size();
      rows_[v].clear();
    }
    boundary.released_rows += level.size();
    if (hops + 1 == graph::kMaxPathHops) break;
    next.clear();
    for (const NodeId v : level) {
      for (const NodeId w : g.neighbors(v)) {
        if (reached[w]) continue;
        reached[w] = true;
        next.push_back(w);
      }
    }
    level.swap(next);
  }
  invalidations_.fetch_add(released, std::memory_order_relaxed);
  obs_invalidations_->add(released);
  return boundary;
}

const SocialStateCache::PathEntry& SocialStateCache::path(
    const graph::SocialGraph& g, NodeId i, NodeId j, PathEntry& fresh) {
  if (epoch_ != g.structure_epoch() || i >= rows_.size()) {
    // No boundary was opened, or a relationship changed since it was.
    count(structure_misses_, *obs_structure_misses_);
    fresh = search(g, i, j);
    return fresh;
  }
  std::vector<PathEntry>& row = rows_[i];
  const std::size_t idx = graph::lower_bound_index(
      row.data(), row.size(), j,
      [](const PathEntry& entry) { return entry.ratee; });
  if (idx != row.size() && row[idx].ratee == j) {
    count(structure_hits_, *obs_structure_hits_);
    return row[idx];
  }
  count(structure_misses_, *obs_structure_misses_);
  return *row.insert(row.begin() + static_cast<std::ptrdiff_t>(idx),
                     search(g, i, j));
}

SocialStateCache::Row::Row(SocialStateCache& cache,
                           const ClosenessModel& model,
                           const graph::SocialGraph& g, NodeId i)
    : cache_(cache),
      model_(model),
      g_(g),
      i_(i),
      scratch_(Scratch::open(g.size())),
      stamp_(scratch_.stamp),
      total_(g.total_interactions(i)) {
  // An out-of-range rater has an empty row, so nothing is stamped, and
  // closeness() throws before it reads a stamp.
  const graph::SocialGraph::AdjacencyRow row = g.adjacency(i);
  for (std::size_t idx = 0; idx < row.targets.size(); ++idx) {
    Scratch::Slot& slot = scratch_.slots[row.targets[idx]];
    slot.stamp = stamp_;
    slot.mask = row.masks[idx];
    slot.known = false;
  }
}

double SocialStateCache::Row::edge_value(NodeId k) {
  Scratch::Slot& slot = scratch_.slots[k];
  if (!slot.known) {
    slot.value = model_.edge_closeness(slot.mask, g_.interaction(i_, k), total_);
    slot.known = true;
  }
  return slot.value;
}

bool SocialStateCache::Row::edges_all_zero() {
  if (!edges_all_zero_) {
    // A friend missing from i's interaction row has f = 0 and so Eq. 2
    // value +0.0: only the row's stamped targets with a positive count
    // can carry more, and one of them may still underflow to +0.0.
    const graph::SocialGraph::InteractionRow row = g_.interactions(i_);
    edges_all_zero_ = true;
    for (std::size_t idx = 0; idx < row.targets.size(); ++idx) {
      const NodeId k = row.targets[idx];
      if (row.counts[idx] > 0.0 && scratch_.slots[k].stamp == stamp_ &&
          edge_value(k) != 0.0) {
        edges_all_zero_ = false;
        break;
      }
    }
  }
  return *edges_all_zero_;
}

double SocialStateCache::Row::closeness(NodeId j) {
  if (j == i_) return 0.0;  // as ClosenessModel::closeness()
  if (i_ >= g_.size() || j >= g_.size()) {
    throw std::out_of_range("SocialStateCache: node out of range");
  }
  assert(scratch_.stamp == stamp_ && "another Row opened on this thread");
  const std::vector<Scratch::Slot>& slots = scratch_.slots;

  // Eq. 2: adjacency is a stamp check.
  if (slots[j].stamp == stamp_) {
    ++adjacent_;
    return edge_value(j);
  }

  // Eq. 3: the stamped entries of j's ascending row are common_friends(i,
  // j) in its order (i is not in the row: i and j are not adjacent), so
  // each term and the sum from 0.0 are the reference's. The term
  // Omega_c(k, j) reads the edge's mask off j's row: masks are symmetric.
  const graph::SocialGraph::AdjacencyRow row = g_.adjacency(j);
  double sum = 0.0;
  bool common = false;
  for (std::size_t idx = 0; idx < row.targets.size(); ++idx) {
    const NodeId k = row.targets[idx];
    if (slots[k].stamp != stamp_) continue;
    common = true;
    sum += (edge_value(k) +
            model_.edge_closeness(row.masks[idx], g_.interaction(k, j),
                                  g_.total_interactions(k))) /
           2.0;
  }
  if (common) {
    ++fof_;
    return sum;
  }

  // Eq. 4: the bottleneck along the stored (or searched) lex-min path.
  // No Eq. 2 value is below +0.0 (ClosenessModel's lambda precondition),
  // and min returns its first argument unless the second is smaller, so
  // +0.0 absorbs the fold. When every edge out of i is +0.0, the path's
  // first edge is, and the pair is +0.0 whatever the path, reachable or
  // not: it needs no lookup.
  if (edges_all_zero()) {
    ++zero_side_;
    return 0.0;
  }
  // Its first edge leaves i, so its value is the row's; min is exact and
  // order-free, so starting from it is starting from +inf. Every later
  // edge is Eq. 2 from the entry's mask, as adjacent_closeness() would
  // compute it after probing the same mask; the fold stops once the
  // bottleneck is +0.0, which no later edge can lower.
  const PathEntry& found = cache_.path(g_, i_, j, fresh_);
  if (found.hops == 0) return 0.0;  // unreachable
  NodeId from = found.hops > 1 ? found.interior[0] : j;
  double bottleneck = edge_value(from);
  for (std::size_t step = 1; step < found.hops && bottleneck > 0.0; ++step) {
    const NodeId to = step + 1 < found.hops ? found.interior[step] : j;
    bottleneck = std::min(
        bottleneck,
        model_.edge_closeness(found.masks[step - 1], g_.interaction(from, to),
                              g_.total_interactions(from)));
    from = to;
  }
  return std::isfinite(bottleneck) ? bottleneck : 0.0;
}

double SocialStateCache::closeness(const ClosenessModel& model,
                                   const graph::SocialGraph& g, NodeId i,
                                   NodeId j) {
  return Row(*this, model, g, i).closeness(j);
}

void SocialStateCache::clear() {
  rows_.clear();
  epoch_.reset();
}

std::size_t SocialStateCache::size() const {
  std::size_t total = 0;
  for (const std::vector<PathEntry>& row : rows_) total += row.size();
  return total;
}

SocialStateCache::StatsSnapshot SocialStateCache::stats() const noexcept {
  StatsSnapshot snap;
  snap.invalidations = invalidations_.load(std::memory_order_relaxed);
  snap.structure_hits = structure_hits_.load(std::memory_order_relaxed);
  snap.structure_misses = structure_misses_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace st::core
