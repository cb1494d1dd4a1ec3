#pragma once
// SocialStateCache — persistent, revision-validated memoisation of the
// social signals the adjustment reads every update interval.
//
// The paper runs SocialTrust "after each reputation-update interval", but
// the social substrate it reads — relationships, interaction frequencies,
// interest profiles — evolves slowly relative to the rating stream. The
// plugin used to wipe its closeness memo at the top of every update() and
// re-run friend-of-friend sums and shortest-path BFS for every active
// pair. This cache instead survives across intervals and revalidates each
// entry against the per-node revision counters of SocialGraph /
// InterestProfiles: an entry is reused iff re-deriving it would read
// exactly the same state, so warm results are bit-for-bit identical to a
// cold recompute.
//
// Two layers of entries:
//
//   * structure entries — common-friend sets (witnessed by the structure
//     revisions of both endpoints) and shortest paths. A cached path is
//     the lexicographically smallest shortest path, which is
//     SocialGraph::shortest_path()'s contract whatever traversal computes
//     it (a forward FIFO BFS over ascending rows returns it, and so does
//     today's meet-in-the-middle search — DESIGN.md §13/§15). Being a
//     graph-intrinsic value, not an algorithm accident, it is witnessed
//     precisely: it can only change if a brand-new adjacency appears
//     somewhere (the graph's edge-addition epoch — new edges can shorten
//     distances or create lex-smaller competitors) or if the structural
//     state of a node ON the path changes (edge removal / type change
//     touching the path). Removals and type churn elsewhere in the graph
//     leave every cached path exactly valid — the hop-capped search is
//     redone only when its answer could actually differ.
//
//   * value entries — full Omega_c(i,j) and Omega_s(a,b). Each carries the
//     exact witness set of nodes whose state the computation read, with
//     the weakest sufficient revision kind per node:
//       adjacent Omega_c    -> (i, full): the edge record lives in i's row
//                              (structural mutation of (i,j) bumps both
//                              endpoints) and Eq. 2/10 reads only f(i,*).
//       friend-of-friend    -> (i, full), (j, structure), (k, full) per
//                              common friend k: Eq. 3 sums
//                              adjacent_closeness(i,k) and (k,j), and the
//                              common set itself only changes when the
//                              neighbour list of i or j does.
//       bottleneck          -> edge-addition-epoch gate (no new edge =>
//                              this is still THE lex-min shortest path,
//                              unless the path itself was touched) plus
//                              (p, full) for every path node except the
//                              sink, whose outgoing interactions Eq. 4
//                              never reads (and whose full revision also
//                              covers structural changes to path edges).
//       unreachable         -> edge-addition-epoch gate alone (removals
//                              never make a pair reachable).
//       similarity          -> (a, profile), (b, profile): every variant
//                              is a pure symmetric function of the two
//                              profiles, so entries use a canonical
//                              (min,max) key shared by both directions.
//     Witness sets larger than kMaxWitnesses fall back to a conservative
//     full-epoch stamp (valid only while *nothing* changed — the old
//     per-interval memo behaviour).
//
// Bit-identity: closeness values are recomputed through the exact same
// ClosenessModel branch code (fof_closeness / bottleneck_closeness operate
// on the memoised structure in the same order closeness() derives it), and
// a valid witness set proves the inputs are unchanged, so a warm hit
// returns the identical double a cold recompute would produce — at every
// thread count. Same-key races are benign for the same reason as the old
// memo: both racers compute the same (value, validity) from the frozen
// graph and the duplicate store is idempotent.
//
// Concurrency mirrors the retired ShardedClosenessCache: the key space is
// striped over kShards independently-locked shards and values are computed
// outside the shard lock. Nested lookups (closeness -> common set / path)
// take at most one shard lock at a time, so there is no lock ordering to
// get wrong.
//
// Lifetime: entries are validated lazily, at lookup. A stale entry stays
// in its map until a lookup finds and replaces it, a whitewash pass
// (invalidate_nodes) erases it, or clear() drops everything; nothing
// sweeps entries on an interval boundary, and there is no eviction.
//
// Observability: per-instance relaxed atomic counters (always on; the
// bench reads them to prove the hit rate) plus process-wide obs counters
// `social_cache.hits` / `.misses` / `.invalidations` /
// `.structure_hits` / `.structure_misses` (see docs/OBSERVABILITY.md).

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/closeness.hpp"
#include "core/similarity.hpp"
#include "graph/social_graph.hpp"
#include "obs/obs.hpp"
#include "util/thread_annotations.hpp"

namespace st::core {

class SocialStateCache {
 public:
  using NodeId = graph::NodeId;
  using Revision = graph::SocialGraph::Revision;

  SocialStateCache();

  /// Cached Omega_c(i,j), revalidating against the graph's revisions and
  /// recomputing (and re-memoising) on miss. `max_hops` must be the same
  /// for every call on one cache instance — it is not part of the key.
  double closeness(const ClosenessModel& model, const graph::SocialGraph& g,
                   NodeId i, NodeId j, std::size_t max_hops = 6);

  /// Cached Omega_s(a,b) — weighted_similarity() when `weighted`, the
  /// declared-set Eq. 7 otherwise. The flag selects the computation, not
  /// the key, so one cache instance must not mix both variants (the
  /// plugin's config fixes the choice for its lifetime).
  double similarity(const InterestProfiles& profiles, NodeId a, NodeId b,
                    bool weighted);

  /// Erases, in one pass over every shard, each entry whose key or
  /// witness set (common set, path) mentions any node of `nodes` — the
  /// whitewashing hook. The result is exactly the union of per-node
  /// passes: the same entries and the same `invalidations` count, since
  /// the predicates read only the entries, never the graph. The
  /// plugin queues its forgotten identities and calls this once, before
  /// the next lookup (SocialTrustPlugin::forget_node). Duplicates and
  /// ids no entry mentions are harmless. Epoch-gated entries are
  /// untouched: they only stay valid while the corresponding graph epoch
  /// holds, and any actual state change (e.g. SocialGraph::clear_node)
  /// bumps it.
  void invalidate_nodes(std::span<const NodeId> nodes);
  /// invalidate_nodes() for a single node.
  void invalidate_node(NodeId node);

  /// Drops everything (plugin reset, cold-cache tests).
  void clear();

  /// Value entries across shards (closeness + similarity). Diagnostics
  /// and tests only; takes every shard lock.
  std::size_t size() const;

  /// Structure entries across shards (common sets + paths).
  std::size_t structure_size() const;

  /// Monotone per-instance totals. Hits/misses count value-level lookups
  /// (closeness + similarity); structure_* count the nested common-set and
  /// path lookups; invalidations counts entries dropped because a lookup
  /// found them stale and entries erased by invalidate_nodes.
  struct StatsSnapshot {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t structure_hits = 0;
    std::uint64_t structure_misses = 0;
  };
  StatsSnapshot stats() const noexcept;

  /// Shard count; a power of two (shard_of masks with kShards - 1).
  static constexpr std::size_t kShards = 64;

  /// Largest exact witness set a value entry keeps before degrading to a
  /// conservative full-epoch stamp. Bottleneck paths are capped by
  /// max_hops (7 nodes at the default 6), so only friend-of-friend
  /// entries with many common friends ever overflow.
  static constexpr std::size_t kMaxWitnesses = 16;

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

  /// One node whose state a value entry's computation read, at the
  /// weakest revision kind that still proves "unchanged".
  struct Witness {
    NodeId node = 0;
    bool structure = false;  ///< match structure_revision vs revision
    Revision rev = 0;
  };

  static constexpr Revision kNoGate = ~Revision{0};

  /// Validity stamp of a closeness entry: optional epoch gates plus the
  /// witness list. Valid iff every set gate equals the graph's current
  /// epoch and every witness matches its node's current revision.
  struct Validity {
    Revision addition_epoch = kNoGate;  ///< gate on g.edge_addition_epoch()
    Revision full_epoch = kNoGate;      ///< gate on g.epoch()
    std::vector<Witness> witnesses;

    bool valid(const graph::SocialGraph& g) const noexcept;
  };

  struct ClosenessEntry {
    double value = 0.0;
    Validity validity;
  };

  /// Similarity entries witness exactly the two profiles they read.
  struct SimilarityEntry {
    double value = 0.0;
    Revision rev_lo = 0;  ///< profile revision of min(a,b)
    Revision rev_hi = 0;  ///< profile revision of max(a,b)
  };

  /// Memoised common-friend set, canonical (min,max) key (symmetric).
  struct CommonEntry {
    std::vector<NodeId> common;
    Revision srev_lo = 0;  ///< structure revision of min(a,b)
    Revision srev_hi = 0;  ///< structure revision of max(a,b)
  };

  /// Memoised shortest path, directional key (a path i->j is not a path
  /// j->i: the lex-min path from j need not be the reverse). An empty
  /// node list records "unreachable within max_hops" — negative results
  /// are exactly as expensive to rediscover. `path` is the lex-min
  /// shortest path (SocialGraph::shortest_path()'s contract, which any
  /// traversal behind it must keep), so it is valid while the
  /// edge-addition epoch holds and every non-sink path node's structural
  /// state is untouched (see the structure-entry notes above); an
  /// unreachable record needs only the addition gate.
  struct PathEntry {
    std::vector<NodeId> path;
    Revision addition_epoch = 0;
    /// structure_revision of path[0..len-2] at compute time, same order.
    std::vector<Revision> node_srevs;
  };

  /// One stripe: its own mutex plus the slices of all four maps whose
  /// keys hash here. Striping trades memory for lock granularity, exactly
  /// as the retired per-interval memo did.
  struct Shard {
    mutable util::Mutex mutex;
    std::unordered_map<std::uint64_t, ClosenessEntry> closeness
        ST_GUARDED_BY(mutex);
    std::unordered_map<std::uint64_t, SimilarityEntry> similarity
        ST_GUARDED_BY(mutex);
    std::unordered_map<std::uint64_t, CommonEntry> common_sets
        ST_GUARDED_BY(mutex);
    std::unordered_map<std::uint64_t, PathEntry> paths
        ST_GUARDED_BY(mutex);
  };

  /// Fibonacci-hash mix before the mask so consecutive rater ids — the
  /// common case, the pair list being rater-sorted — spread across shards.
  static std::size_t shard_of(std::uint64_t key) noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32U) &
           (kShards - 1);
  }

  /// Computes Omega_c(i,j) through the memoised structure layer, filling
  /// `out` with the witness set / epoch gates the computation depends on.
  double compute_closeness(const ClosenessModel& model,
                           const graph::SocialGraph& g, NodeId i, NodeId j,
                           std::size_t max_hops, Validity& out);

  /// Common-friend set of (i,j) via the structure layer (copied out of the
  /// shard so no lock is held during downstream work).
  std::vector<NodeId> common_cached(const graph::SocialGraph& g, NodeId i,
                                    NodeId j);

  /// Shortest path i -> j via the structure layer; empty = unreachable.
  std::vector<NodeId> path_cached(const graph::SocialGraph& g, NodeId i,
                                  NodeId j, std::size_t max_hops);

  std::unique_ptr<Shard[]> shards_;

  // Per-instance totals (see StatsSnapshot). Relaxed: they order nothing;
  // observation-only, never fed back into cached values.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> structure_hits_{0};
  std::atomic<std::uint64_t> structure_misses_{0};

  // Process-wide observability handles, resolved once at construction;
  // no-ops while the obs layer is disabled.
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_invalidations_ = nullptr;
  obs::Counter* obs_structure_hits_ = nullptr;
  obs::Counter* obs_structure_misses_ = nullptr;
};

}  // namespace st::core
