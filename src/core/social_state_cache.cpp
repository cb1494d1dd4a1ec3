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
  obs_evictions_ = &registry.counter("social_cache.evictions");
}

void SocialStateCache::begin_interval(std::size_t evict_after) {
  const std::uint64_t gen =
      generation_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (evict_after == 0) return;
  // An entry last touched in interval T has sat untouched through
  // intervals T+1 .. gen-1; evict once that exceeds the configured
  // budget. erase_if visits in hash order, but pure erasure is
  // order-independent: which entries survive depends only on their
  // stamps, never on visit order, so determinism holds trivially.
  std::uint64_t erased = 0;
  const auto expired = [&](std::uint64_t last_touch) {
    return gen - last_touch > evict_after;
  };
  for (std::size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(shard.mutex);
    // Evicted keys go to the erase log: the entries are valid right now,
    // but a consumer carrying their values would otherwise never hear
    // about a *later* state change (the revalidation sweep can only
    // report entries that still exist).
    erased += std::erase_if(shard.closeness, [&](const auto& kv) {
      if (!expired(kv.second.last_touch)) return false;
      if (tracking_) shard.dirty_closeness.push_back(kv.first);
      return true;
    });
    erased += std::erase_if(shard.similarity, [&](const auto& kv) {
      if (!expired(kv.second.last_touch)) return false;
      if (tracking_) shard.dirty_similarity.push_back(kv.first);
      return true;
    });
  }
  if (erased > 0) {
    evictions_.fetch_add(erased, std::memory_order_relaxed);
    obs_evictions_->add(erased);
  }
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

bool SocialStateCache::Validity::mentions(NodeId node) const noexcept {
  for (const Witness& w : witnesses) {
    if (w.node == node) return true;
  }
  return false;
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
        it->second.last_touch = generation_.load(std::memory_order_relaxed);
        hits_.fetch_add(1, std::memory_order_relaxed);
        obs_hits_->add(1);
        return it->second.value;
      }
      stale = true;
      // About to be replaced with a fresh value — log it so any carried
      // copy of the old value is re-derived (belt and braces: after a
      // collect_dirty() sweep no reachable entry can be stale, but the
      // tracking contract is "every erasure/replacement is logged").
      if (tracking_) shard.dirty_closeness.push_back(key);
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
  entry.last_touch = generation_.load(std::memory_order_relaxed);
  const double value = entry.value;
  // Index refs for the witness-targeted sweep, staged outside the lock so
  // the critical section only publishes. Refs for a replaced entry's old
  // witnesses go stale in place — collect_dirty() prunes any ref whose
  // entry no longer witnesses the node.
  std::vector<std::pair<NodeId, std::uint64_t>> new_refs;
  if (tracking_) {
    new_refs.reserve(entry.validity.witnesses.size());
    for (const Witness& w : entry.validity.witnesses) {
      new_refs.emplace_back(w.node, key);
    }
  }
  {
    util::MutexLock lock(shard.mutex);
    if (tracking_) {
      shard.witness_refs.insert(shard.witness_refs.end(), new_refs.begin(),
                                new_refs.end());
      if (entry.validity.addition_epoch != kNoGate ||
          entry.validity.full_epoch != kNoGate) {
        shard.gated_closeness.push_back(key);
      }
    }
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
        it->second.last_touch = generation_.load(std::memory_order_relaxed);
        hits_.fetch_add(1, std::memory_order_relaxed);
        obs_hits_->add(1);
        return it->second.value;
      }
      stale = true;
      if (tracking_) shard.dirty_similarity.push_back(key);
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
    if (tracking_) {
      // One ref per endpoint: whichever profile moves finds the entry.
      shard.sim_refs.emplace_back(lo, key);
      shard.sim_refs.emplace_back(hi, key);
    }
    shard.similarity[key] = SimilarityEntry{
        value, rev_lo, rev_hi,
        generation_.load(std::memory_order_relaxed)};
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
      if (!key_mentions(kv.first) &&
          std::none_of(witnesses.begin(), witnesses.end(),
                       [&named](const Witness& w) { return named(w.node); }))
        return false;
      if (tracking_) shard.dirty_closeness.push_back(kv.first);
      return true;
    });
    erased += std::erase_if(shard.similarity, [&](const auto& kv) {
      if (!key_mentions(kv.first)) return false;
      if (tracking_) shard.dirty_similarity.push_back(kv.first);
      return true;
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
    if (tracking_) {
      // Value-entry removals must hit the erase log even on a wholesale
      // drop, else a consumer could keep carrying values whose later
      // invalidation the revalidation sweep can no longer see. erase_if
      // visits in hash order, which is fine: collect_dirty() sorts the
      // drained log before anything order-sensitive consumes it.
      std::erase_if(shard.closeness, [&](const auto& kv) {
        shard.dirty_closeness.push_back(kv.first);
        return true;
      });
      std::erase_if(shard.similarity, [&](const auto& kv) {
        shard.dirty_similarity.push_back(kv.first);
        return true;
      });
    } else {
      shard.closeness.clear();
      shard.similarity.clear();
    }
    shard.common_sets.clear();
    shard.paths.clear();
    shard.witness_refs.clear();
    shard.sim_refs.clear();
    shard.gated_closeness.clear();
  }
}

void SocialStateCache::compact_closeness_index(Shard& shard) {
  // Refs go stale when entries are evicted, invalidated wholesale, or
  // re-stored via a different branch, and a stale ref is only pruned when
  // its node next changes. Rebuild from the live entries once the list
  // clearly outgrows them (a live entry owns at most kMaxWitnesses refs,
  // typically far fewer).
  if (shard.witness_refs.size() <= 256 ||
      shard.witness_refs.size() <= kMaxWitnesses * shard.closeness.size()) {
    return;
  }
  // Flatten the live keys and sort before rebuilding so the rebuilt index
  // is a pure function of the shard's contents, not of hash order.
  std::vector<std::uint64_t> keys;
  keys.reserve(shard.closeness.size());
  for (const auto& kv : shard.closeness) keys.push_back(kv.first);
  std::sort(keys.begin(), keys.end());
  shard.witness_refs.clear();
  shard.gated_closeness.clear();
  for (const std::uint64_t key : keys) {
    const Validity& v = shard.closeness.find(key)->second.validity;
    for (const Witness& w : v.witnesses) {
      shard.witness_refs.emplace_back(w.node, key);
    }
    if (v.addition_epoch != kNoGate || v.full_epoch != kNoGate) {
      shard.gated_closeness.push_back(key);
    }
  }
}

void SocialStateCache::compact_similarity_index(Shard& shard) {
  // Re-stores append a fresh endpoint pair each time, so stale refs
  // accumulate; rebuild once they dominate the live ones (each live entry
  // owns exactly two).
  if (shard.sim_refs.size() <= 64 ||
      shard.sim_refs.size() <= 6 * shard.similarity.size()) {
    return;
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(shard.similarity.size());
  for (const auto& kv : shard.similarity) keys.push_back(kv.first);
  std::sort(keys.begin(), keys.end());
  shard.sim_refs.clear();
  for (const std::uint64_t key : keys) {
    shard.sim_refs.emplace_back(key_first(key), key);
    shard.sim_refs.emplace_back(key_second(key), key);
  }
}

const SocialStateCache::RevisionDelta& SocialStateCache::RevisionTracker::
    collect(const graph::SocialGraph& g, const InterestProfiles& profiles) {
  // Sweep gates: while g.epoch() holds, no graph revision moved anywhere,
  // so every surviving closeness entry that was valid at the previous
  // collect is still valid and the sweep may be skipped exactly (same
  // argument for profiles.epoch() and similarity entries).
  delta_.sweep_closeness = g.epoch() != last_graph_epoch_;
  delta_.sweep_similarity = profiles.epoch() != last_profile_epoch_;
  last_graph_epoch_ = g.epoch();
  last_profile_epoch_ = profiles.epoch();
  // Changed-node bitmaps: diff every per-node revision against the
  // snapshot of the previous collect. An O(n) integer scan that makes the
  // cache's sweep proportional to the refs of *changed* nodes rather than
  // to its total entry count.
  if (delta_.sweep_closeness) {
    const std::size_t n = g.size();
    if (last_node_revs_.size() < n) last_node_revs_.resize(n, kNoGate);
    if (delta_.graph_changed.size() < n) delta_.graph_changed.resize(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      const Revision rev = g.revision(static_cast<NodeId>(v));
      delta_.graph_changed[v] = last_node_revs_[v] != rev ? 1 : 0;
      last_node_revs_[v] = rev;
    }
  }
  if (delta_.sweep_similarity) {
    const std::size_t n = profiles.node_count();
    if (last_profile_revs_.size() < n) last_profile_revs_.resize(n, kNoGate);
    if (delta_.profile_changed.size() < n) {
      delta_.profile_changed.resize(n, 0);
    }
    for (std::size_t v = 0; v < n; ++v) {
      const Revision rev = profiles.revision(static_cast<NodeId>(v));
      delta_.profile_changed[v] = last_profile_revs_[v] != rev ? 1 : 0;
      last_profile_revs_[v] = rev;
    }
  }
  return delta_;
}

SocialStateCache::DirtyKeys SocialStateCache::collect_dirty(
    const graph::SocialGraph& g, const InterestProfiles& profiles) {
  DirtyKeys out;
  if (!tracking_) return out;
  const RevisionDelta& delta = tracker_.collect(g, profiles);
  // The erase logs are drained unconditionally — eviction,
  // invalidate_nodes and clear remove entries without any epoch movement;
  // the revalidation sweeps run only when the delta says the matching
  // epoch moved.
  const bool sweep_closeness = delta.sweep_closeness;
  const bool sweep_similarity = delta.sweep_similarity;
  std::uint64_t swept = 0;
  // Swept keys are staged into a reused buffer with pre-reserved capacity
  // so the erase walks stay allocation-free under the shard lock, then
  // bulk-appended to `out`.
  std::vector<std::uint64_t> staged;
  for (std::size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(shard.mutex);
    out.closeness.insert(out.closeness.end(), shard.dirty_closeness.begin(),
                         shard.dirty_closeness.end());
    shard.dirty_closeness.clear();
    out.similarity.insert(out.similarity.end(),
                          shard.dirty_similarity.begin(),
                          shard.dirty_similarity.end());
    shard.dirty_similarity.clear();
    const std::size_t cap = shard.gated_closeness.size() +
                            shard.witness_refs.size() +
                            shard.sim_refs.size();
    if (staged.size() < cap) staged.resize(cap);
    if (sweep_closeness) {
      // Epoch-gated entries first: a full-epoch gate breaks on any change
      // (and the epoch moved, or we would not be here); an addition gate
      // only when the addition epoch moved — valid() distinguishes them.
      // A key whose entry lost its gates was re-stored via a witness-only
      // branch and is covered by the witness refs below.
      std::size_t n_staged = 0;
      std::size_t keep = 0;
      for (const std::uint64_t key : shard.gated_closeness) {
        auto it = shard.closeness.find(key);
        if (it == shard.closeness.end()) continue;
        const Validity& v = it->second.validity;
        if (v.addition_epoch == kNoGate && v.full_epoch == kNoGate) continue;
        if (v.valid(g)) {
          shard.gated_closeness[keep++] = key;
          continue;
        }
        staged[n_staged++] = key;
        shard.closeness.erase(it);
        ++swept;
      }
      shard.gated_closeness.resize(keep);
      // Witness refs: only refs whose node actually changed cost a map
      // lookup; a surviving entry keeps its ref, a dead or re-branched
      // one drops it.
      std::size_t wkeep = 0;
      for (const auto& ref : shard.witness_refs) {
        if (!delta.graph_changed[ref.first]) {
          shard.witness_refs[wkeep++] = ref;
          continue;
        }
        auto it = shard.closeness.find(ref.second);
        if (it == shard.closeness.end()) continue;
        const Validity& v = it->second.validity;
        if (!v.mentions(ref.first)) continue;
        if (v.valid(g)) {
          shard.witness_refs[wkeep++] = ref;
          continue;
        }
        staged[n_staged++] = ref.second;
        shard.closeness.erase(it);
        ++swept;
      }
      shard.witness_refs.resize(wkeep);
      out.closeness.insert(out.closeness.end(), staged.begin(),
                           staged.begin() + static_cast<std::ptrdiff_t>(
                                                n_staged));
      compact_closeness_index(shard);
    }
    if (sweep_similarity) {
      std::size_t n_staged = 0;
      std::size_t skeep = 0;
      for (const auto& ref : shard.sim_refs) {
        if (!delta.profile_changed[ref.first]) {
          shard.sim_refs[skeep++] = ref;
          continue;
        }
        auto it = shard.similarity.find(ref.second);
        if (it == shard.similarity.end()) continue;
        if (profiles.revision(key_first(ref.second)) == it->second.rev_lo &&
            profiles.revision(key_second(ref.second)) == it->second.rev_hi) {
          shard.sim_refs[skeep++] = ref;
          continue;
        }
        staged[n_staged++] = ref.second;
        shard.similarity.erase(it);
        ++swept;
      }
      shard.sim_refs.resize(skeep);
      out.similarity.insert(out.similarity.end(), staged.begin(),
                            staged.begin() + static_cast<std::ptrdiff_t>(
                                                 n_staged));
      compact_similarity_index(shard);
    }
  }
  if (swept > 0) {
    invalidations_.fetch_add(swept, std::memory_order_relaxed);
    obs_invalidations_->add(swept);
  }
  // Logs and sweep appends arrive in shard/hash order; sorting here pins
  // the order every downstream consumer sees, and duplicates (an entry
  // replaced twice, or logged then re-erased) collapse to one key.
  std::sort(out.closeness.begin(), out.closeness.end());
  out.closeness.erase(std::unique(out.closeness.begin(), out.closeness.end()),
                      out.closeness.end());
  std::sort(out.similarity.begin(), out.similarity.end());
  out.similarity.erase(
      std::unique(out.similarity.begin(), out.similarity.end()),
      out.similarity.end());
  return out;
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
  snap.evictions = evictions_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace st::core
