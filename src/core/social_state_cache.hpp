#pragma once
// SocialStateCache — the rater walk's view of Omega_c: persistent
// memoisation of the one piece of social structure that is expensive to
// re-derive (the shortest path of Eq. 4), and the per-rater row context
// every coefficient is evaluated through.
//
// In the paper's simulator (Section 5.1) every rating records an
// interaction, so every active rater's whole Omega_c row is new in each
// interval, and each rater's Omega_s moves with its request histogram.
// The values themselves therefore do not outlive an interval, and the
// plugin evaluates each (rater, ratee) coefficient exactly once per
// interval (SocialTrustPlugin::update, DESIGN.md §11/§13). What does
// survive is the structure those values are derived from: relationships
// change only at setup and on whitewashing. Of that structure, only the
// bounded shortest-path search of Eq. 4 costs more than reading a row;
// adjacency (Eq. 2) and the common friends (Eq. 3) are read off the
// graph through the row context below.
//
//   * path rows — rows_[i] holds source i's stored paths, sorted by
//     ratee, each path inline in a PathEntry (the hop count, up to
//     kMaxPathHops - 1 interior nodes and the masks of the edges after
//     the first). A path i->j is not a path j->i:
//     the lex-min path from j need not be the reverse. A stored path is
//     the lexicographically smallest shortest path, which is
//     SocialGraph::shortest_path()'s contract whatever traversal computes
//     it, so it is a function of the graph alone. A hop count of 0
//     records "unreachable within kMaxPathHops" — negative results are
//     exactly as expensive to rediscover. A lookup binary-searches row i
//     and reads a served path in place; a miss runs shortest_path() and
//     inserts the entry in sorted position.
//
//   * row context (Row) — one per active rater i. Opening it stamps i's
//     neighbours, with their relationship masks, in per-thread scratch
//     that is kept across intervals (stamp-gated, no O(n) clear), so
//     opening costs O(deg(i)). Each neighbour's Eq. 2 value is computed at
//     most once, on first use. A ratee j then costs only its own side:
//     adjacency is a stamp check; Eq. 3 walks j's ascending adjacency row
//     and keeps the stamped entries, which (i and j not being adjacent)
//     are exactly common_friends(i, j) in the same order; Eq. 4 starts its
//     min from the first edge's row value and folds the rest of the path
//     with the entry's masks, stopping once the min is +0.0. On its first
//     Eq. 4 pair the row works out, once, whether every edge out of i has
//     Eq. 2 value +0.0 (as when i has rated none of its friends); if so,
//     each Eq. 4 pair is +0.0 with no path lookup, and nothing is stored.
//
// Two witnesses, both read off the graph. At the interval boundary,
// open_interval() reads the graph's structure_epoch(). If it moved since
// the previous call, it releases only the rows the change can reach: a
// source's row holds what a FIFO BFS from that source returns to depth
// kMaxPathHops, and that BFS reads only the adjacency rows of nodes at
// most kMaxPathHops - 1 hops away. So one multi-source BFS over the
// current rows, from every node whose node_epoch() is newer than the
// adopted epoch and capped at kMaxPathHops - 1 hops, empties the row of
// each source it reaches and keeps the rest: none of those keeps a path
// (or an unreachable record) whose BFS read a changed row (DESIGN.md
// §13). The interval then serves and stores like any other; so does the
// first after construction or clear(). Within an interval a lookup also
// compares the graph's current epoch with the adopted one and searches
// without storing when they differ, so no entry is served across a
// relationship change made after the boundary — in any call order,
// including tests that mutate the graph between direct lookups with no
// open_interval() call — and a lookup before any boundary stores
// nothing. Interactions, no-op mutators and CSR rebuilds stamp nothing,
// so a path survives all of them.
//
// Bit-identity: every branch evaluates the same terms as
// ClosenessModel::closeness(), in the same order, through the same Eq. 2
// expression (ClosenessModel::edge_closeness); a served path is exactly
// what shortest_path() returns on the current graph; and Eq. 4's min is
// exact and order-free, so starting it from the first edge's value
// instead of +inf changes no bit. Zero is absorbing in that min: no Eq. 2
// value is below +0.0 (counts and totals are finite and non-negative,
// and ClosenessModel rejects a lambda that would make a mass negative),
// and std::min keeps its first argument unless the second is smaller. So
// a min that has reached +0.0 ends at +0.0, and a pair whose every first
// edge is +0.0 is +0.0, as is an unreachable one. A Row therefore returns
// the identical double a direct ClosenessModel::closeness() call would,
// at every thread count (DESIGN.md §13, "zero is absorbing in Eq. 4").
//
// Concurrency: no locks. Lookups with distinct sources may run
// concurrently — each touches only its own source's row; lookups with
// the same source may not. The rater walk guarantees this: each active
// rater is walked by exactly one worker, which opens that rater's Row.
// At most one Row is live per thread at a time (the scratch is per
// thread), and the graph must not change while one is open.
// open_interval() and clear() run serially, with the graph frozen and no
// lookup running; the fields open_interval() sets are only read by
// lookups.
//
// Lifetime: a row is emptied by the open_interval() whose change
// reaches its source, and every row by clear(); there is no eviction.
//
// Observability: per-instance relaxed atomic counters (always on; the
// bench reads them to prove the hit rate) plus process-wide obs counters
// `social_cache.invalidations` / `.structure_hits` / `.structure_misses`;
// open_interval() returns what its boundary changed and released, which
// the plugin reports per interval (see docs/OBSERVABILITY.md).

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/closeness.hpp"
#include "graph/social_graph.hpp"
#include "obs/obs.hpp"

namespace st::core {

class SocialStateCache {
 public:
  using NodeId = graph::NodeId;
  using Revision = graph::SocialGraph::Revision;

  SocialStateCache();

  /// What one open_interval() did: the nodes whose adjacency row changed
  /// since the adopted epoch, and the source rows it emptied because
  /// such a node lies within kMaxPathHops - 1 hops of them. Both are 0
  /// when the epoch held, and on the first call after construction or
  /// clear().
  struct Boundary {
    std::size_t changed_nodes = 0;
    std::size_t released_rows = 0;
  };

  /// Interval boundary: sizes the path rows to g, empties the row of
  /// every source a relationship change since the previous call can
  /// reach (the entries counted in `invalidations`), and adopts
  /// g.structure_epoch(). The interval then serves and stores paths.
  /// Call it with the graph frozen and no lookup running.
  Boundary open_interval(const graph::SocialGraph& g);

  /// One stored path from a row's source: the hop count (0 = unreachable
  /// within graph::kMaxPathHops), the interior nodes (source and ratee
  /// excluded), and the relationship masks of every edge but the first,
  /// which the source's Row holds: masks[s - 1] is the mask of edge s.
  /// Masks are structure, so the epoch that witnesses the path witnesses
  /// them too, and Eq. 4's fold reads no adjacency row.
  struct PathEntry {
    NodeId ratee = 0;
    std::uint8_t hops = 0;
    std::uint8_t masks[graph::kMaxPathHops - 1] = {};
    NodeId interior[graph::kMaxPathHops - 1] = {};
  };
  static_assert(graph::kMaxPathHops >= 2 && graph::kMaxPathHops <= 0xFF,
                "PathEntry holds a capped path inline: its hop count in a "
                "byte, up to kMaxPathHops - 1 masks and interior nodes");
  static_assert(sizeof(PathEntry) <=
                    sizeof(NodeId) * (graph::kMaxPathHops + 1) +
                        graph::kMaxPathHops,
                "PathEntry is packed: ratee, hop count and masks, interior "
                "nodes");

  /// Rater i's side of Omega_c, opened once per active rater; closeness(j)
  /// then costs only j's side (see the header comment). Opening stamps
  /// this thread's scratch, so at most one Row may be live per thread, and
  /// the graph must not change while it is.
  class Row {
   public:
    Row(SocialStateCache& cache, const ClosenessModel& model,
        const graph::SocialGraph& g, NodeId i);
    Row(const Row&) = delete;
    Row& operator=(const Row&) = delete;

    /// Omega_c(i, j), bit-identical to model.closeness(g, i, j) at its
    /// default hop cap. Throws std::out_of_range when i != j and either
    /// id is not a node of g, before any stamp is read.
    double closeness(NodeId j);

    /// How many closeness() calls took the Eq. 2 and the Eq. 3 branch, and
    /// how many Eq. 4 calls returned +0.0 with no path lookup because
    /// every edge out of i has Eq. 2 value +0.0. Every other call with
    /// i != j took Eq. 4 and made exactly one path lookup, counted in
    /// stats() as a structure hit or miss.
    std::uint64_t adjacent() const noexcept { return adjacent_; }
    std::uint64_t fof() const noexcept { return fof_; }
    std::uint64_t zero_side() const noexcept { return zero_side_; }

   private:
    struct Scratch;

    /// Omega_c(i, k) of the stamped neighbour k (Eq. 2), computed on
    /// first use.
    double edge_value(NodeId k);

    /// Whether every edge out of i has Eq. 2 value +0.0 (true when i has
    /// no edge), worked out on the first call.
    bool edges_all_zero();

    SocialStateCache& cache_;
    const ClosenessModel& model_;
    const graph::SocialGraph& g_;
    NodeId i_;
    Scratch& scratch_;
    std::uint32_t stamp_;
    double total_;  ///< i's total interactions, the Eq. 2 denominator
    PathEntry fresh_;  ///< a path searched but not stored
    std::optional<bool> edges_all_zero_;
    std::uint64_t adjacent_ = 0;
    std::uint64_t fof_ = 0;
    std::uint64_t zero_side_ = 0;
  };

  /// Omega_c(i,j) through a Row opened for this one pair: the same code
  /// the rater walk runs. Same contract as Row::closeness().
  double closeness(const ClosenessModel& model, const graph::SocialGraph& g,
                   NodeId i, NodeId j);

  /// Drops everything and forgets the adopted epoch: the cache is back in
  /// its constructed state (plugin reset, cold-cache tests).
  void clear();

  /// Stored path entries over every row. Diagnostics and tests only; call
  /// it with no lookup running.
  std::size_t size() const;

  /// Monotone per-instance totals: structure_hits counts paths served,
  /// structure_misses every search, stored or not; invalidations counts
  /// the entries open_interval() released after the epoch moved.
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

 private:
  /// Shortest path i -> j (i != j, both nodes of g): row i's entry, read
  /// in place, while g's epoch is the adopted one (inserted on a miss);
  /// otherwise searched into `fresh`.
  const PathEntry& path(const graph::SocialGraph& g, NodeId i, NodeId j,
                        PathEntry& fresh);

  /// The multi-source BFS of open_interval(): empties the row of every
  /// source within kMaxPathHops - 1 hops of a node stamped after `since`.
  Boundary release_reach(const graph::SocialGraph& g, Revision since);

  /// rows_[i]: source i's stored paths, sorted by ratee.
  std::vector<std::vector<PathEntry>> rows_;

  /// The structure epoch the last open_interval() adopted (none after
  /// construction or clear()). Written only by open_interval() and
  /// clear(); lookups only read it.
  std::optional<Revision> epoch_;

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
