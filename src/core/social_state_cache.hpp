#pragma once
// SocialStateCache — persistent memoisation of the one piece of social
// structure Omega_c reads that is expensive to re-derive: the shortest
// path of Eq. 4.
//
// In the paper's simulator (Section 5.1) every rating records an
// interaction, so every active rater's whole Omega_c row is new in each
// interval, and each rater's Omega_s moves with its request histogram.
// The values themselves therefore do not outlive an interval, and the
// plugin evaluates each (rater, ratee) coefficient exactly once per
// interval (SocialTrustPlugin::update, DESIGN.md §11/§13). What does
// survive is the structure those values are derived from: relationships
// change only at setup and on whitewashing. Of that structure, only the
// bounded shortest-path search of Eq. 4 costs more than a hashed lookup;
// adjacency (Eq. 2) is one CSR row probe and the common-friend set
// (Eq. 3) one merge of two short rows, so both are read off the graph.
//
//   * shortest paths — directional key (a path i->j is not a path j->i:
//     the lex-min path from j need not be the reverse). A cached path is
//     the lexicographically smallest shortest path, which is
//     SocialGraph::shortest_path()'s contract whatever traversal computes
//     it, so it is a function of the graph alone. An empty path records
//     "unreachable within shortest_path()'s default hop cap" — negative
//     results are exactly as expensive to rediscover.
//
// One witness, checked at the interval boundary: open_interval() reads
// the graph's structure_epoch() once. If it moved since the previous
// call, the topology changed, every entry is dropped, and the interval
// stores nothing: its searches go straight to shortest_path(), with no
// lock and no hash probe. Otherwise the interval serves and stores paths.
// The first call after construction or clear() stores too. Under
// whitewashing the epoch moves before nearly every interval, so a path
// stored there would never be read; on a graph whose topology holds, the
// paths of one interval serve every later one (DESIGN.md §13). A lookup
// also compares the graph's current epoch with the adopted one and
// bypasses the map when they differ, so no entry is ever served across a
// relationship change — in any call order, including tests that mutate
// the graph between direct lookups with no open_interval() call.
// Interactions, no-op mutators and CSR rebuilds leave the epoch alone, so
// a path survives all of them.
//
// Bit-identity: closeness() runs ClosenessModel::closeness()'s branch
// code (adjacent_closeness / fof_closeness / bottleneck_closeness, in the
// order closeness() derives them), and a served path is exactly what
// shortest_path() returns under the same epoch, so it returns the
// identical double a direct ClosenessModel::closeness() call would — at
// every thread count. Same-key races are benign: both racers compute the
// same path from the frozen graph and the duplicate store is idempotent.
//
// Concurrency: the key space is striped over kShards independently-locked
// shards and paths are computed outside the shard lock ("compute
// outside, publish inside"). A lookup takes at most one shard lock at a
// time, so there is no lock ordering to get wrong. open_interval() and
// clear() run serially, with the graph frozen and no lookup running; the
// two fields open_interval() sets are only read by lookups.
//
// Lifetime: entries are dropped all at once, by the open_interval() that
// sees the epoch move or by clear(); there is no eviction.
//
// Observability: per-instance relaxed atomic counters (always on; the
// bench reads them to prove the hit rate) plus process-wide obs counters
// `social_cache.invalidations` / `.structure_hits` / `.structure_misses`
// (see docs/OBSERVABILITY.md).

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
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

  /// Interval boundary: adopts g.structure_epoch(). If it moved since the
  /// previous call, drops every entry (counted in `invalidations`) and
  /// stores nothing until the next call; otherwise, and on the first call
  /// after construction or clear(), this interval serves and stores
  /// paths. Call it with the graph frozen and no lookup running.
  void open_interval(const graph::SocialGraph& g);

  /// Omega_c(i,j), bit-identical to model.closeness(g, i, j) at its
  /// default hop cap. The shortest path is served from (and memoised in)
  /// the path layer while this interval stores and g's structure epoch
  /// is the adopted one; otherwise it is searched afresh and not stored.
  double closeness(const ClosenessModel& model, const graph::SocialGraph& g,
                   NodeId i, NodeId j);

  /// Drops everything and forgets the adopted epoch: the cache is back in
  /// its constructed state (plugin reset, cold-cache tests).
  void clear();

  /// Path entries across shards. Diagnostics and tests only; takes every
  /// shard lock.
  std::size_t size() const;

  /// Monotone per-instance totals: structure_hits counts paths served,
  /// structure_misses every search, stored or not; invalidations counts
  /// the entries open_interval() dropped after the epoch moved.
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

  /// One stripe: its own mutex and the paths whose keys hash here (empty
  /// = unreachable).
  struct Shard {
    mutable util::Mutex mutex;
    std::unordered_map<std::uint64_t, std::vector<NodeId>> paths
        ST_GUARDED_BY(mutex);
  };

  /// Fibonacci-hash mix before the mask so consecutive rater ids — the
  /// common case, raters being walked in ascending order — spread across
  /// shards.
  static std::size_t shard_of(std::uint64_t key) noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32U) &
           (kShards - 1);
  }

  /// Shortest path i -> j via the path layer (copied out of the shard so
  /// no lock is held during downstream work); empty = unreachable.
  std::vector<NodeId> path_cached(const graph::SocialGraph& g, NodeId i,
                                  NodeId j);

  /// Empties every shard; returns the number of entries dropped.
  std::size_t drop_all();

  /// Counts a lookup served from the shard.
  void count_hit() noexcept;
  /// Counts a lookup that searches for its path.
  void count_miss() noexcept;

  std::unique_ptr<Shard[]> shards_;

  /// The structure epoch the last open_interval() adopted (none after
  /// construction or clear()), and whether this interval stores paths.
  /// Written only by open_interval() and clear(); lookups only read them.
  std::optional<Revision> epoch_;
  bool storing_ = false;

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
