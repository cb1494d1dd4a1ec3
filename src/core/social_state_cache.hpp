#pragma once
// SocialStateCache — persistent, revision-validated memoisation of the
// social *structure* Omega_c reads: common-friend sets and shortest paths.
//
// In the paper's simulator (Section 5.1) every rating records an
// interaction, so every active rater's whole Omega_c row is new in each
// interval, and each rater's Omega_s moves with its request histogram.
// The values themselves therefore do not outlive an interval, and the
// plugin evaluates each (rater, ratee) coefficient exactly once per
// interval (SocialTrustPlugin::update, DESIGN.md §11/§13). What does
// survive is the structure those values are derived from: relationships
// change only at setup and on whitewashing, so the friend-of-friend sets
// of Eq. 3 and the bounded shortest-path search of Eq. 4 are redone only
// when their answer could actually differ.
//
//   * common-friend sets — canonical (min,max) key, witnessed by the
//     structure revisions of both endpoints. Interaction churn never
//     bumps a structure revision, so the set survives it.
//   * shortest paths — directional key. A cached path is the
//     lexicographically smallest shortest path, which is
//     SocialGraph::shortest_path()'s contract whatever traversal computes
//     it (a forward FIFO BFS over ascending rows returns it, and so does
//     today's meet-in-the-middle search — DESIGN.md §13/§15). Being a
//     graph-intrinsic value, not an algorithm accident, it is witnessed
//     precisely: it can only change if a brand-new adjacency appears
//     somewhere (the graph's edge-addition epoch — new edges can shorten
//     distances or create lex-smaller competitors) or if the structural
//     state of a non-sink node ON the path changes (every path edge bumps
//     both endpoints, so the sink adds nothing). An empty path records
//     "unreachable within max_hops" and needs only the addition gate:
//     removals never make a pair reachable.
//
// Bit-identity: closeness() runs ClosenessModel::closeness()'s branch
// code (fof_closeness / bottleneck_closeness over the memoised structure,
// in the order closeness() derives it), and a valid witness set proves
// the structure unchanged, so it returns the identical double a direct
// ClosenessModel::closeness() call would — at every thread count.
// Same-key races are benign: both racers compute the same entry from the
// frozen graph and the duplicate store is idempotent.
//
// Concurrency: the key space is striped over kShards independently-locked
// shards and entries are computed outside the shard lock ("compute
// outside, publish inside"). A lookup takes at most one shard lock at a
// time, so there is no lock ordering to get wrong.
//
// Lifetime: entries are validated lazily, at lookup. A stale entry stays
// in its map until a lookup finds and replaces it, a whitewash pass
// (invalidate_nodes) erases it, or clear() drops everything; nothing
// sweeps entries on an interval boundary, and there is no eviction.
//
// Observability: per-instance relaxed atomic counters (always on; the
// bench reads them to prove the hit rate) plus process-wide obs counters
// `social_cache.invalidations` / `.structure_hits` / `.structure_misses`
// (see docs/OBSERVABILITY.md).

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/closeness.hpp"
#include "graph/social_graph.hpp"
#include "obs/obs.hpp"
#include "util/thread_annotations.hpp"

namespace st::core {

class SocialStateCache {
 public:
  using NodeId = graph::NodeId;
  using Revision = graph::SocialGraph::Revision;

  SocialStateCache();

  /// Omega_c(i,j), bit-identical to model.closeness(g, i, j, max_hops),
  /// with the common-friend set and the shortest path served from (and
  /// memoised in) the structure layer. `max_hops` must be the same for
  /// every call on one cache instance — it is not part of the key.
  double closeness(const ClosenessModel& model, const graph::SocialGraph& g,
                   NodeId i, NodeId j, std::size_t max_hops = 6);

  /// Erases, in one pass over every shard, each entry whose key or
  /// contents (common set, path) mention any node of `nodes` — the
  /// whitewashing hook. The result is exactly the union of per-node
  /// passes: the same entries and the same `invalidations` count, since
  /// the predicates read only the entries, never the graph. The
  /// plugin queues its forgotten identities and calls this once, before
  /// the next lookup (SocialTrustPlugin::forget_node). Duplicates and
  /// ids no entry mentions are harmless.
  void invalidate_nodes(std::span<const NodeId> nodes);
  /// invalidate_nodes() for a single node.
  void invalidate_node(NodeId node);

  /// Drops everything (plugin reset, cold-cache tests).
  void clear();

  /// Entries across shards (common sets + paths). Diagnostics and tests
  /// only; takes every shard lock.
  std::size_t size() const;

  /// Monotone per-instance totals: structure_* count common-set and path
  /// lookups; invalidations counts entries a lookup found stale and
  /// entries erased by invalidate_nodes.
  struct StatsSnapshot {
    /// Always 0: these counted the per-pair value memo, which is gone
    /// (every coefficient is evaluated once per interval). Kept only
    /// because the cycle benchmark (perfbench/simbench.cpp) still reads
    /// them; they go when a benchmark change retires the metric built on
    /// them.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< always 0, see `hits`
    std::uint64_t invalidations = 0;
    std::uint64_t structure_hits = 0;
    std::uint64_t structure_misses = 0;
  };
  StatsSnapshot stats() const noexcept;

  /// Shard count; a power of two (shard_of masks with kShards - 1).
  static constexpr std::size_t kShards = 64;

 private:
  /// Packed directional pair key.
  static std::uint64_t pack(NodeId a, NodeId b) noexcept {
    return (static_cast<std::uint64_t>(a) << 32U) | b;
  }
  static NodeId key_first(std::uint64_t key) noexcept {
    return static_cast<NodeId>(key >> 32U);
  }
  static NodeId key_second(std::uint64_t key) noexcept {
    return static_cast<NodeId>(key & 0xFFFFFFFFU);
  }

  /// Memoised common-friend set, canonical (min,max) key (symmetric).
  struct CommonEntry {
    std::vector<NodeId> common;
    Revision srev_lo = 0;  ///< structure revision of min(a,b)
    Revision srev_hi = 0;  ///< structure revision of max(a,b)
  };

  /// Memoised shortest path, directional key (a path i->j is not a path
  /// j->i: the lex-min path from j need not be the reverse). An empty
  /// node list records "unreachable within max_hops" — negative results
  /// are exactly as expensive to rediscover. Valid while the
  /// edge-addition epoch holds and every non-sink path node's structure
  /// revision is unchanged (see the header notes); an unreachable record
  /// needs only the addition gate.
  struct PathEntry {
    std::vector<NodeId> path;
    Revision addition_epoch = 0;
    /// structure_revision of path[0..len-2] at compute time, same order.
    std::vector<Revision> node_srevs;
  };

  /// One stripe: its own mutex plus the slices of both maps whose keys
  /// hash here.
  struct Shard {
    mutable util::Mutex mutex;
    std::unordered_map<std::uint64_t, CommonEntry> common_sets
        ST_GUARDED_BY(mutex);
    std::unordered_map<std::uint64_t, PathEntry> paths
        ST_GUARDED_BY(mutex);
  };

  /// Fibonacci-hash mix before the mask so consecutive rater ids — the
  /// common case, raters being walked in ascending order — spread across
  /// shards.
  static std::size_t shard_of(std::uint64_t key) noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32U) &
           (kShards - 1);
  }

  /// Common-friend set of (i,j) via the structure layer (copied out of the
  /// shard so no lock is held during downstream work).
  std::vector<NodeId> common_cached(const graph::SocialGraph& g, NodeId i,
                                    NodeId j);

  /// Shortest path i -> j via the structure layer; empty = unreachable.
  std::vector<NodeId> path_cached(const graph::SocialGraph& g, NodeId i,
                                  NodeId j, std::size_t max_hops);

  /// Counts a lookup served from a valid entry.
  void count_hit() noexcept;
  /// Counts a lookup that re-derives its entry; `stale` when the entry it
  /// replaces was present but invalid.
  void count_miss(bool stale) noexcept;

  std::unique_ptr<Shard[]> shards_;

  // Per-instance totals (see StatsSnapshot). Relaxed: they order nothing;
  // observation-only, never fed back into cached values.
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> structure_hits_{0};
  std::atomic<std::uint64_t> structure_misses_{0};

  // Process-wide observability handles, resolved once at construction;
  // no-ops while the obs layer is disabled.
  obs::Counter* obs_invalidations_ = nullptr;
  obs::Counter* obs_structure_hits_ = nullptr;
  obs::Counter* obs_structure_misses_ = nullptr;
};

}  // namespace st::core
