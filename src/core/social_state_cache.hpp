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
//     today's meet-in-the-middle search — DESIGN.md §14/§15). Being a
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
// Observability: per-instance relaxed atomic counters (always on; the
// bench reads them to prove the hit rate) plus process-wide obs counters
// `social_cache.hits` / `.misses` / `.invalidations` /
// `.structure_hits` / `.structure_misses` / `.evictions`
// (see docs/OBSERVABILITY.md).
//
// Dirty tracking (opt-in, DESIGN.md §14): with enable_dirty_tracking()
// the cache answers the plugin's "which value keys went dirty since I
// last asked?" question so the dirty-pair scheduler never re-derives
// witness logic. Two mechanisms compose into that answer:
//   * erase logs — every removal of a closeness/similarity entry
//     (eviction sweep, invalidate_nodes, clear, stale replacement at
//     lookup) appends the key to a per-shard log, so a carried value can
//     never go silently stale just because its cache entry vanished
//     before the state changed;
//   * witness-indexed revalidation sweep — collect_dirty() first diffs
//     the per-node revision counters against its previous snapshot (an
//     O(n) scan of plain integers, skipped entirely while the global
//     epoch holds still), then walks the per-shard (witness node, key)
//     ref lists appended at store time, looking up and revalidating only
//     the refs whose node changed. Epoch-gated entries (bottleneck /
//     unreachable / witness-overflow) live on a separate per-shard key
//     list, and every sweep looks up and revalidates each of them —
//     where rated pairs are far apart, that is most closeness entries.
//     Ref lists carry stale refs (erased or re-branched entries)
//     harmlessly — a ref is dropped when its key no longer resolves or
//     no longer witnesses the node — and are rebuilt from the live
//     entries when staleness outgrows them. A sweep therefore reads
//     O(nodes + gated keys + refs) but does map lookups only for gated
//     keys and refs of changed nodes; an interval in which neither epoch
//     moved costs O(1).

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

  /// Interval tick + generation-based eviction sweep. The plugin calls
  /// this at the top of every update(); it advances the cache's
  /// generation counter and, when `evict_after > 0`, drops every
  /// *value-layer* entry (closeness + similarity) that no lookup has
  /// touched for more than `evict_after` consecutive intervals.
  /// `evict_after == 0` (the default config) disables the sweep
  /// entirely. Structure entries are exempt: they are the expensive
  /// BFS/set-intersection layer whose persistence is the cache's whole
  /// point, and they carry no per-interval touch stamp.
  ///
  /// Bit-identity is unaffected by construction: eviction only ever
  /// *removes* entries, and a removed entry is recomputed through the
  /// exact same code path a cold miss takes, producing the identical
  /// double (see the revalidation contract above). The sweep trades
  /// recompute time for bounded memory on long runs, never results.
  void begin_interval(std::size_t evict_after);

  /// Erases, in one pass over every shard, each entry whose key or
  /// witness set (common set, path) mentions any node of `nodes` — the
  /// whitewashing hook. The result is exactly the union of per-node
  /// passes: the same entries, erase-log keys and `invalidations` count,
  /// since the predicates read only the entries, never the graph. The
  /// plugin queues its forgotten identities and calls this once, before
  /// the next lookup (SocialTrustPlugin::forget_node). Duplicates and
  /// ids no entry mentions are harmless. Epoch-gated entries are
  /// untouched: they only stay valid while the corresponding graph epoch
  /// holds, and any actual state change (e.g. SocialGraph::clear_node)
  /// bumps it.
  void invalidate_nodes(std::span<const NodeId> nodes);
  /// invalidate_nodes() for a single node.
  void invalidate_node(NodeId node);

  /// Drops everything (plugin reset). With dirty tracking enabled every
  /// dropped value key is logged, so a consumer that carried values
  /// derived from the dropped entries re-derives them next interval.
  void clear();

  /// Value-layer keys invalidated since the previous collect_dirty()
  /// call, sorted ascending and deduplicated. Closeness keys are
  /// directional pack(i, j); similarity keys are canonical
  /// pack(min, max) — both sides of a similarity key are affected.
  struct DirtyKeys {
    std::vector<std::uint64_t> closeness;
    std::vector<std::uint64_t> similarity;
  };

  /// Opts this instance into dirty tracking. Must be called before the
  /// first lookup (the plugin does so at construction); without it the
  /// erase logs stay empty and collect_dirty() returns nothing.
  void enable_dirty_tracking() noexcept { tracking_ = true; }
  bool dirty_tracking() const noexcept { return tracking_; }

  /// Drains the per-shard erase logs and — only when the corresponding
  /// epoch moved since the last call — sweeps the surviving value
  /// entries, erasing and reporting the ones whose witnesses no longer
  /// hold. Afterwards every remaining value entry is valid against the
  /// current graph/profiles, so a key absent from the result is
  /// guaranteed to re-derive to its carried value. Call from the
  /// coordinator between parallel regions (it takes each shard lock).
  DirtyKeys collect_dirty(const graph::SocialGraph& g,
                          const InterestProfiles& profiles);

  /// The changed-node view one revision scan produces: which sweep gates
  /// opened and, per node, whether its (full / profile) revision moved
  /// since the scan before. The bitmaps are meaningful only while the
  /// matching sweep flag is set.
  struct RevisionDelta {
    bool sweep_closeness = false;
    bool sweep_similarity = false;
    std::vector<std::uint8_t> graph_changed;    ///< per graph node
    std::vector<std::uint8_t> profile_changed;  ///< per profile node
  };

  /// Owns the epoch watermarks and per-node revision snapshots that turn
  /// "current graph/profile state" into a RevisionDelta. The cache embeds
  /// one and collects it once per collect_dirty() call, so the sweep looks
  /// up only refs of changed nodes. Coordinator-only, between parallel
  /// regions.
  class RevisionTracker {
   public:
    const RevisionDelta& collect(const graph::SocialGraph& g,
                                 const InterestProfiles& profiles);

   private:
    Revision last_graph_epoch_ = ~Revision{0};
    Revision last_profile_epoch_ = ~Revision{0};
    std::vector<Revision> last_node_revs_;
    std::vector<Revision> last_profile_revs_;
    RevisionDelta delta_;
  };

  /// Packed directional pair key — public so the plugin's dirty-pair
  /// worklist speaks the same key language as collect_dirty().
  static std::uint64_t pack(NodeId a, NodeId b) noexcept {
    return (static_cast<std::uint64_t>(a) << 32U) | b;
  }
  static NodeId key_first(std::uint64_t key) noexcept {
    return static_cast<NodeId>(key >> 32U);
  }
  static NodeId key_second(std::uint64_t key) noexcept {
    return static_cast<NodeId>(key & 0xFFFFFFFFU);
  }

  /// Value entries across shards (closeness + similarity). Diagnostics
  /// and tests only; takes every shard lock.
  std::size_t size() const;

  /// Structure entries across shards (common sets + paths).
  std::size_t structure_size() const;

  /// Monotone per-instance totals. Hits/misses count value-level lookups
  /// (closeness + similarity); structure_* count the nested common-set and
  /// path lookups; invalidations counts entries dropped because a lookup
  /// found them stale, entries the collect_dirty() sweep erased and
  /// entries erased by invalidate_nodes; evictions counts value entries
  /// dropped by the begin_interval() sweep.
  struct StatsSnapshot {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t structure_hits = 0;
    std::uint64_t structure_misses = 0;
    std::uint64_t evictions = 0;
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
    bool mentions(NodeId node) const noexcept;
  };

  struct ClosenessEntry {
    double value = 0.0;
    Validity validity;
    std::uint64_t last_touch = 0;  ///< generation of the last hit/store
  };

  /// Similarity entries witness exactly the two profiles they read.
  struct SimilarityEntry {
    double value = 0.0;
    Revision rev_lo = 0;  ///< profile revision of min(a,b)
    Revision rev_hi = 0;  ///< profile revision of max(a,b)
    std::uint64_t last_touch = 0;  ///< generation of the last hit/store
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
  /// as the retired per-interval memo did. The dirty_* vectors are the
  /// erase logs of the tracking contract above, guarded by the same
  /// mutex and drained (then sorted) by collect_dirty().
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
    std::vector<std::uint64_t> dirty_closeness ST_GUARDED_BY(mutex);
    std::vector<std::uint64_t> dirty_similarity ST_GUARDED_BY(mutex);
    // Witness index of the tracking contract (kept only while tracking_):
    // one (witness node, key) ref per witness of each stored closeness
    // entry, one (endpoint, key) ref per side of each similarity entry,
    // and the keys of epoch-gated closeness entries. Append-only between
    // sweeps; collect_dirty() prunes refs it visits and compacts
    // wholesale when stale refs dominate.
    std::vector<std::pair<NodeId, std::uint64_t>> witness_refs
        ST_GUARDED_BY(mutex);
    std::vector<std::pair<NodeId, std::uint64_t>> sim_refs
        ST_GUARDED_BY(mutex);
    std::vector<std::uint64_t> gated_closeness ST_GUARDED_BY(mutex);
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

  /// Rebuild a shard's closeness witness/gate index (resp. similarity
  /// endpoint index) from its live entries once stale refs dominate.
  /// Caller holds the shard lock.
  static void compact_closeness_index(Shard& shard)
      ST_REQUIRES(shard.mutex);
  static void compact_similarity_index(Shard& shard)
      ST_REQUIRES(shard.mutex);

  std::unique_ptr<Shard[]> shards_;

  /// Dirty tracking opted in? Set once, before any concurrent use (the
  /// plugin enables it at construction), so a plain bool suffices.
  bool tracking_ = false;

  /// Watermarks + snapshots backing collect_dirty() (the
  /// kNoGate-equivalent sentinels inside the tracker force a trivially
  /// cheap sweep on the first collect). Coordinator-only, between
  /// parallel regions.
  RevisionTracker tracker_;

  /// Update-interval counter driving the eviction sweep; bumped by
  /// begin_interval(). Relaxed: begin_interval runs on the coordinator
  /// between parallel regions, and a touch stamp that is off by one
  /// interval only shifts *when* an entry is recomputed, never what the
  /// recompute produces.
  std::atomic<std::uint64_t> generation_{0};

  // Per-instance totals (see StatsSnapshot). Relaxed: they order nothing;
  // observation-only, never fed back into cached values.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> structure_hits_{0};
  std::atomic<std::uint64_t> structure_misses_{0};
  std::atomic<std::uint64_t> evictions_{0};

  // Process-wide observability handles, resolved once at construction;
  // no-ops while the obs layer is disabled.
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_invalidations_ = nullptr;
  obs::Counter* obs_structure_hits_ = nullptr;
  obs::Counter* obs_structure_misses_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
};

}  // namespace st::core
