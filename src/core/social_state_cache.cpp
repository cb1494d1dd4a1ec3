#include "core/social_state_cache.hpp"

#include <algorithm>

namespace st::core {

SocialStateCache::SocialStateCache()
    : shards_(std::make_unique<Shard[]>(kShards)) {
  auto& registry = obs::Obs::instance().registry();
  obs_invalidations_ = &registry.counter("social_cache.invalidations");
  obs_structure_hits_ = &registry.counter("social_cache.structure_hits");
  obs_structure_misses_ = &registry.counter("social_cache.structure_misses");
}

void SocialStateCache::count_hit() noexcept {
  structure_hits_.fetch_add(1, std::memory_order_relaxed);
  obs_structure_hits_->add(1);
}

void SocialStateCache::count_miss(bool stale) noexcept {
  if (stale) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    obs_invalidations_->add(1);
  }
  structure_misses_.fetch_add(1, std::memory_order_relaxed);
  obs_structure_misses_->add(1);
}

std::vector<SocialStateCache::NodeId> SocialStateCache::common_cached(
    const graph::SocialGraph& g, NodeId i, NodeId j) {
  const NodeId lo = std::min(i, j);
  const NodeId hi = std::max(i, j);
  const std::uint64_t key = pack(lo, hi);
  Shard& shard = shards_[shard_of(key)];
  const Revision srev_lo = g.structure_revision(lo);
  const Revision srev_hi = g.structure_revision(hi);
  bool stale = false;
  {
    util::MutexLock lock(shard.mutex);
    auto it = shard.common_sets.find(key);
    if (it != shard.common_sets.end()) {
      if (it->second.srev_lo == srev_lo && it->second.srev_hi == srev_hi) {
        count_hit();
        return it->second.common;
      }
      stale = true;
    }
  }
  count_miss(stale);
  // common_friends is symmetric, so the canonical orientation returns the
  // same ascending set either direction was asked for.
  std::vector<NodeId> common = g.common_friends(lo, hi);
  {
    util::MutexLock lock(shard.mutex);
    shard.common_sets[key] = CommonEntry{common, srev_lo, srev_hi};
  }
  return common;
}

std::vector<SocialStateCache::NodeId> SocialStateCache::path_cached(
    const graph::SocialGraph& g, NodeId i, NodeId j, std::size_t max_hops) {
  const std::uint64_t key = pack(i, j);
  Shard& shard = shards_[shard_of(key)];
  const Revision aepoch = g.edge_addition_epoch();
  bool stale = false;
  {
    util::MutexLock lock(shard.mutex);
    auto it = shard.paths.find(key);
    if (it != shard.paths.end()) {
      const PathEntry& entry = it->second;
      bool ok = entry.addition_epoch == aepoch;
      for (std::size_t step = 0; ok && step < entry.node_srevs.size();
           ++step) {
        ok = g.structure_revision(entry.path[step]) == entry.node_srevs[step];
      }
      if (ok) {
        count_hit();
        return entry.path;
      }
      stale = true;
    }
  }
  count_miss(stale);
  auto found = g.shortest_path(i, j, max_hops);
  std::vector<NodeId> path = found ? std::move(*found) : std::vector<NodeId>{};
  // Witness the structural state of every path node but the sink: each
  // path edge bumps both its endpoints, so these revisions pin the path
  // itself; the addition epoch pins "no shorter / lex-smaller competitor
  // appeared anywhere".
  std::vector<Revision> srevs;
  if (!path.empty()) {
    srevs.reserve(path.size() - 1);
    for (std::size_t step = 0; step + 1 < path.size(); ++step) {
      srevs.push_back(g.structure_revision(path[step]));
    }
  }
  {
    util::MutexLock lock(shard.mutex);
    shard.paths[key] = PathEntry{path, aepoch, std::move(srevs)};
  }
  return path;
}

double SocialStateCache::closeness(const ClosenessModel& model,
                                   const graph::SocialGraph& g, NodeId i,
                                   NodeId j, std::size_t max_hops) {
  // Branch structure mirrors ClosenessModel::closeness() exactly; only the
  // common set and the path come from the structure layer.
  if (i == j) return 0.0;
  if (g.adjacent(i, j)) return model.adjacent_closeness(g, i, j);
  const std::vector<NodeId> common = common_cached(g, i, j);
  if (!common.empty()) return model.fof_closeness(g, i, j, common);
  // An empty (unreachable) path scores 0, as closeness() does.
  return model.bottleneck_closeness(g, path_cached(g, i, j, max_hops));
}

void SocialStateCache::invalidate_node(NodeId node) {
  invalidate_nodes(std::span<const NodeId>(&node, 1));
}

void SocialStateCache::invalidate_nodes(std::span<const NodeId> nodes) {
  if (nodes.empty()) return;
  // Membership is a binary search over the sorted, de-duplicated batch:
  // its cost and memory follow the batch, never the id values, so an id
  // no entry can mention (e.g. 0xFFFFFFFF) simply matches nothing.
  std::vector<NodeId> batch(nodes.begin(), nodes.end());
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  const auto named = [&batch](NodeId node) {
    return std::binary_search(batch.begin(), batch.end(), node);
  };
  const auto mentions = [&named](std::uint64_t key,
                                 const std::vector<NodeId>& ids) {
    return named(key_first(key)) || named(key_second(key)) ||
           std::any_of(ids.begin(), ids.end(), named);
  };
  std::uint64_t erased = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(shard.mutex);
    erased += std::erase_if(shard.common_sets, [&](const auto& kv) {
      return mentions(kv.first, kv.second.common);
    });
    erased += std::erase_if(shard.paths, [&](const auto& kv) {
      return mentions(kv.first, kv.second.path);
    });
  }
  if (erased > 0) {
    invalidations_.fetch_add(erased, std::memory_order_relaxed);
    obs_invalidations_->add(erased);
  }
}

void SocialStateCache::clear() {
  for (std::size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(shard.mutex);
    shard.common_sets.clear();
    shard.paths.clear();
  }
}

std::size_t SocialStateCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    util::MutexLock lock(shards_[s].mutex);
    total += shards_[s].common_sets.size() + shards_[s].paths.size();
  }
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
