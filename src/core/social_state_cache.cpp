#include "core/social_state_cache.hpp"

#include <utility>

namespace st::core {

namespace {

/// shortest_path() at its default hop cap; empty = unreachable.
std::vector<graph::NodeId> search(const graph::SocialGraph& g,
                                  graph::NodeId i, graph::NodeId j) {
  auto found = g.shortest_path(i, j);
  return found ? std::move(*found) : std::vector<graph::NodeId>{};
}

}  // namespace

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

void SocialStateCache::count_miss() noexcept {
  structure_misses_.fetch_add(1, std::memory_order_relaxed);
  obs_structure_misses_->add(1);
}

void SocialStateCache::open_interval(const graph::SocialGraph& g) {
  const Revision epoch = g.structure_epoch();
  storing_ = !epoch_ || *epoch_ == epoch;
  epoch_ = epoch;
  if (storing_) return;
  // Some relationship changed since these paths were computed; any of
  // them may now be longer, broken or no longer lex-min.
  const std::uint64_t dropped = drop_all();
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  obs_invalidations_->add(dropped);
}

std::vector<SocialStateCache::NodeId> SocialStateCache::path_cached(
    const graph::SocialGraph& g, NodeId i, NodeId j) {
  if (!storing_ || g.structure_epoch() != *epoch_) {
    // No store this interval (the topology moved at its boundary, or no
    // boundary was opened), or a relationship changed since the boundary.
    count_miss();
    return search(g, i, j);
  }
  const std::uint64_t key = pack(i, j);
  Shard& shard = shards_[shard_of(key)];
  {
    util::MutexLock lock(shard.mutex);
    const auto it = shard.paths.find(key);
    if (it != shard.paths.end()) {
      count_hit();
      return it->second;
    }
  }
  count_miss();
  std::vector<NodeId> path = search(g, i, j);
  {
    util::MutexLock lock(shard.mutex);
    shard.paths.try_emplace(key, path);
  }
  return path;
}

double SocialStateCache::closeness(const ClosenessModel& model,
                                   const graph::SocialGraph& g, NodeId i,
                                   NodeId j) {
  // Branch structure mirrors ClosenessModel::closeness() exactly; only the
  // path comes from the cache.
  if (i == j) return 0.0;
  if (g.adjacent(i, j)) return model.adjacent_closeness(g, i, j);
  const std::vector<NodeId> common = g.common_friends(i, j);
  if (!common.empty()) return model.fof_closeness(g, i, j, common);
  // An empty (unreachable) path scores 0, as closeness() does.
  return model.bottleneck_closeness(g, path_cached(g, i, j));
}

std::size_t SocialStateCache::drop_all() {
  std::size_t dropped = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(shard.mutex);
    dropped += shard.paths.size();
    shard.paths.clear();
  }
  return dropped;
}

void SocialStateCache::clear() {
  drop_all();
  epoch_.reset();
  storing_ = false;
}

std::size_t SocialStateCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    util::MutexLock lock(shards_[s].mutex);
    total += shards_[s].paths.size();
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
