#include "core/social_state_cache.hpp"

#include <algorithm>

namespace st::core {

SocialStateCache::SocialStateCache()
    : shards_(std::make_unique<Shard[]>(kShards)) {
  auto& registry = obs::Obs::instance().registry();
  obs_hits_ = &registry.counter("social_cache.hits");
  obs_misses_ = &registry.counter("social_cache.misses");
  obs_invalidations_ = &registry.counter("social_cache.invalidations");
  obs_structure_hits_ = &registry.counter("social_cache.structure_hits");
  obs_structure_misses_ = &registry.counter("social_cache.structure_misses");
}

bool SocialStateCache::Validity::valid(
    const graph::SocialGraph& g) const noexcept {
  if (addition_epoch != kNoGate && g.edge_addition_epoch() != addition_epoch)
    return false;
  if (full_epoch != kNoGate && g.epoch() != full_epoch) return false;
  for (const Witness& w : witnesses) {
    const Revision current =
        w.structure ? g.structure_revision(w.node) : g.revision(w.node);
    if (current != w.rev) return false;
  }
  return true;
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
        structure_hits_.fetch_add(1, std::memory_order_relaxed);
        obs_structure_hits_->add(1);
        return it->second.common;
      }
      stale = true;
    }
  }
  if (stale) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    obs_invalidations_->add(1);
  }
  structure_misses_.fetch_add(1, std::memory_order_relaxed);
  obs_structure_misses_->add(1);
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
        structure_hits_.fetch_add(1, std::memory_order_relaxed);
        obs_structure_hits_->add(1);
        return entry.path;
      }
      stale = true;
    }
  }
  if (stale) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    obs_invalidations_->add(1);
  }
  structure_misses_.fetch_add(1, std::memory_order_relaxed);
  obs_structure_misses_->add(1);
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

double SocialStateCache::compute_closeness(const ClosenessModel& model,
                                           const graph::SocialGraph& g,
                                           NodeId i, NodeId j,
                                           std::size_t max_hops,
                                           Validity& out) {
  // Branch structure mirrors ClosenessModel::closeness() exactly; each
  // branch records the weakest witness set that pins both the branch
  // choice and every value the branch read (see the header's table).
  if (i == j) return 0.0;  // constant: `out` stays gate- and witness-free

  if (g.adjacent(i, j)) {
    out.witnesses.push_back(Witness{i, false, g.revision(i)});
    return model.adjacent_closeness(g, i, j);
  }

  std::vector<NodeId> common = common_cached(g, i, j);
  if (!common.empty()) {
    if (common.size() + 2 > kMaxWitnesses) {
      out.full_epoch = g.epoch();
    } else {
      out.witnesses.reserve(common.size() + 2);
      out.witnesses.push_back(Witness{i, false, g.revision(i)});
      out.witnesses.push_back(Witness{j, true, g.structure_revision(j)});
      for (NodeId k : common) {
        out.witnesses.push_back(Witness{k, false, g.revision(k)});
      }
    }
    return model.fof_closeness(g, i, j, common);
  }

  std::vector<NodeId> path = path_cached(g, i, j, max_hops);
  if (path.size() < 2) {
    // Unreachable within max_hops: removals and type changes can never
    // make a pair reachable, so the entry lives until a brand-new
    // adjacency appears anywhere.
    out.addition_epoch = g.edge_addition_epoch();
    return 0.0;
  }
  if (path.size() - 1 > kMaxWitnesses) {
    out.full_epoch = g.epoch();
  } else {
    // Full revisions of the non-sink path nodes cover both the f(p, *)
    // reads of Eq. 4 and any structural change touching a path edge; the
    // addition gate covers shorter / lex-smaller paths appearing.
    out.addition_epoch = g.edge_addition_epoch();
    out.witnesses.reserve(path.size() - 1);
    for (std::size_t step = 0; step + 1 < path.size(); ++step) {
      out.witnesses.push_back(Witness{path[step], false, g.revision(path[step])});
    }
  }
  return model.bottleneck_closeness(g, path);
}

double SocialStateCache::closeness(const ClosenessModel& model,
                                   const graph::SocialGraph& g, NodeId i,
                                   NodeId j, std::size_t max_hops) {
  const std::uint64_t key = pack(i, j);
  Shard& shard = shards_[shard_of(key)];
  bool stale = false;
  {
    util::MutexLock lock(shard.mutex);
    auto it = shard.closeness.find(key);
    if (it != shard.closeness.end()) {
      if (it->second.validity.valid(g)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        obs_hits_->add(1);
        return it->second.value;
      }
      stale = true;
    }
  }
  if (stale) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    obs_invalidations_->add(1);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs_misses_->add(1);
  ClosenessEntry entry;
  entry.value = compute_closeness(model, g, i, j, max_hops, entry.validity);
  const double value = entry.value;
  {
    util::MutexLock lock(shard.mutex);
    shard.closeness[key] = std::move(entry);
  }
  return value;
}

double SocialStateCache::similarity(const InterestProfiles& profiles, NodeId a,
                                    NodeId b, bool weighted) {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  const std::uint64_t key = pack(lo, hi);
  Shard& shard = shards_[shard_of(key)];
  const Revision rev_lo = profiles.revision(lo);
  const Revision rev_hi = profiles.revision(hi);
  bool stale = false;
  {
    util::MutexLock lock(shard.mutex);
    auto it = shard.similarity.find(key);
    if (it != shard.similarity.end()) {
      if (it->second.rev_lo == rev_lo && it->second.rev_hi == rev_hi) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        obs_hits_->add(1);
        return it->second.value;
      }
      stale = true;
    }
  }
  if (stale) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    obs_invalidations_->add(1);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs_misses_->add(1);
  // Every similarity variant is symmetric term by term (ascending merge of
  // the two interest sets, min()/count per term), so evaluating the
  // canonical orientation is bit-identical to the asked-for one.
  const double value = weighted ? profiles.weighted_similarity(lo, hi)
                                : profiles.similarity(lo, hi);
  {
    util::MutexLock lock(shard.mutex);
    shard.similarity[key] = SimilarityEntry{value, rev_lo, rev_hi};
  }
  return value;
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
  const auto key_mentions = [&named](std::uint64_t key) {
    return named(key_first(key)) || named(key_second(key));
  };
  const auto any_named = [&named](const std::vector<NodeId>& ids) {
    return std::any_of(ids.begin(), ids.end(), named);
  };
  std::uint64_t erased = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(shard.mutex);
    erased += std::erase_if(shard.closeness, [&](const auto& kv) {
      const auto& witnesses = kv.second.validity.witnesses;
      return key_mentions(kv.first) ||
             std::any_of(witnesses.begin(), witnesses.end(),
                         [&named](const Witness& w) { return named(w.node); });
    });
    erased += std::erase_if(shard.similarity, [&](const auto& kv) {
      return key_mentions(kv.first);
    });
    erased += std::erase_if(shard.common_sets, [&](const auto& kv) {
      return key_mentions(kv.first) || any_named(kv.second.common);
    });
    erased += std::erase_if(shard.paths, [&](const auto& kv) {
      return key_mentions(kv.first) || any_named(kv.second.path);
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
    shard.closeness.clear();
    shard.similarity.clear();
    shard.common_sets.clear();
    shard.paths.clear();
  }
}

std::size_t SocialStateCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    util::MutexLock lock(shards_[s].mutex);
    total += shards_[s].closeness.size() + shards_[s].similarity.size();
  }
  return total;
}

std::size_t SocialStateCache::structure_size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    util::MutexLock lock(shards_[s].mutex);
    total += shards_[s].common_sets.size() + shards_[s].paths.size();
  }
  return total;
}

SocialStateCache::StatsSnapshot SocialStateCache::stats() const noexcept {
  StatsSnapshot snap;
  snap.hits = hits_.load(std::memory_order_relaxed);
  snap.misses = misses_.load(std::memory_order_relaxed);
  snap.invalidations = invalidations_.load(std::memory_order_relaxed);
  snap.structure_hits = structure_hits_.load(std::memory_order_relaxed);
  snap.structure_misses = structure_misses_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace st::core
