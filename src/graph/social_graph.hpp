#pragma once
// Social-network substrate on a compact, epoch-rebuilt CSR core.
//
// SocialTrust reads four things off the social network (paper Sections 3-4):
//   1. adjacency + the *set of typed relationships* on each edge
//      (Eq. 2 counts them, Eq. 10 weights them by type),
//   2. directed interaction frequencies f(i,j) (resource-request counts),
//   3. common-friend sets (friend-of-friend closeness, Eq. 3),
//   4. shortest social distance in hops (suspicious-behaviour B1, Fig. 3).
// SocialGraph stores exactly that, nothing more: it is the "personal
// network" of the Overstock analysis, decoupled from the P2P overlay.
//
// Storage layout (DESIGN.md §15, docs/ARCHITECTURE.md). Both the typed
// adjacency and the directed interaction rows live in flat CSR arrays —
// one offsets array indexed by node, plus parallel structure-of-arrays
// payload slices (`targets` + `relationship mask` for adjacency,
// `targets` + `double count` for interactions), each row sorted by
// target id. Every closeness BFS, common-friend intersection and
// interaction-row read therefore walks contiguous memory instead of
// chasing one heap allocation per node. Mutations between rebuilds are absorbed
// by a small per-node *delta overlay*: the first row-resizing mutation
// of a node copies its CSR row into a private sorted overlay row and
// the node reads from there until the next rebuild (mask flips and
// count increments on existing entries edit the flat arrays in place —
// no overlay needed). Once the delta mass (overlay entries + cleared
// tombstones) crosses a deterministic threshold — or explicitly at
// begin_interval() — the overlay is compacted back into fresh CSR
// arrays by a single node-ordered sweep.
//
// Rebuilds are representation-only: every accessor reads rows through
// the same sorted-row view before and after, so results are
// bit-identical and no revision/epoch counter moves. Rebuild timing is
// a pure function of the mutation sequence (the counters that trigger
// it never depend on representation), so runs are reproducible.
//
// Span stability: neighbors() spans are invalidated by ANY mutating
// method — not just mutations of the same node — because a mutation may
// trigger a compaction that moves every row. Callers must not hold a
// span across a non-const call (the pre-CSR contract was per-node; the
// repo's call sites already satisfied the stronger rule).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace st::obs {
class Counter;
}  // namespace st::obs

namespace st::graph {

using NodeId = std::uint32_t;

/// Typed social relationships. The hardened closeness metric (Eq. 10)
/// weights relationship types unequally — e.g. kinship counts for more
/// than an online friendship.
enum class Relationship : std::uint8_t {
  kFriendship = 0,
  kColleague,
  kClassmate,
  kNeighbor,
  kKinship,
  kBusiness,
};

inline constexpr std::size_t kRelationshipCount = 6;

/// Default per-type weights used by Eq. (10). Kinship is strongest; a plain
/// online friendship is the baseline (1.0). Callers may supply their own.
double default_relationship_weight(Relationship r) noexcept;

/// Undirected multigraph over a fixed node set with typed parallel edges
/// and directed interaction counters, on the CSR core described above.
///
/// Node ids are dense indices [0, size()). The node count is fixed at
/// construction — reputation experiments run on closed populations — but
/// relationships and interactions mutate freely.
class SocialGraph {
 public:
  /// Monotone change counter. Per-node revisions and global epochs never
  /// decrease and bump exactly when the corresponding state actually
  /// changes (no-op mutator calls and representation rebuilds leave them
  /// untouched), so equality of a revision witnessed at compute time with
  /// the current revision proves a derived value would come out identical
  /// if re-derived.
  using Revision = std::uint64_t;

  explicit SocialGraph(std::size_t node_count);

  std::size_t size() const noexcept { return node_count_; }

  /// Adds a typed relationship between a and b (undirected). Parallel
  /// relationships of distinct types accumulate on the same edge; adding a
  /// duplicate type is a no-op. Self-relationships are rejected (returns
  /// false), matching the paper's model where closeness is pairwise.
  bool add_relationship(NodeId a, NodeId b, Relationship r);

  /// Removes one relationship type; returns true if it existed. The edge
  /// disappears once its last relationship is removed.
  bool remove_relationship(NodeId a, NodeId b, Relationship r);

  bool adjacent(NodeId a, NodeId b) const noexcept;

  /// Number of distinct relationship types on edge (a,b) — the m(i,j)
  /// of Eq. (2). Zero when not adjacent.
  std::size_t relationship_count(NodeId a, NodeId b) const noexcept;

  /// The relationship types on edge (a,b), unspecified order.
  std::vector<Relationship> relationships(NodeId a, NodeId b) const;

  /// The same type set as a packed bitmask — bit i set iff Relationship(i)
  /// is present; 0 when not adjacent. Allocation-free alternative to
  /// relationships() for hot closeness evaluation (the mask has only
  /// 2^kRelationshipCount states, so derived quantities are tabulable).
  std::uint8_t relationship_mask(NodeId a, NodeId b) const noexcept;

  /// Neighbour ids of `a` (ascending order). Invalidated by any mutating
  /// method (see the span-stability note above).
  std::span<const NodeId> neighbors(NodeId a) const noexcept;

  std::size_t degree(NodeId a) const noexcept;

  /// Records `count` interactions from `from` to `to` — in the P2P mapping,
  /// "an interaction is an action that a peer requests a resource from
  /// another peer" (Section 4.1). Interactions are directed and need not be
  /// between adjacent nodes.
  void record_interaction(NodeId from, NodeId to, double count = 1.0);

  /// Directed interaction count f(i,j).
  double interaction(NodeId from, NodeId to) const noexcept;

  /// Sum of f(i, *) over everyone `from` interacted with — the denominator
  /// of Eq. (2).
  double total_interactions(NodeId from) const noexcept;

  /// Directed interaction row of `from`: parallel spans of target ids
  /// (ascending) and counts. Entries with zero count may appear (cleared
  /// targets awaiting the next rebuild); callers treat them as absent.
  /// Same span-stability contract as neighbors().
  struct InteractionRow {
    std::span<const NodeId> targets;
    std::span<const double> counts;
  };
  InteractionRow interactions(NodeId from) const noexcept;

  /// Nodes appearing in both neighbour lists (the k of Eq. 3), ascending.
  std::vector<NodeId> common_friends(NodeId a, NodeId b) const;

  /// Hop distance between a and b if it is at most `max_hops`, else
  /// nullopt. distance(a,a) == 0. Answered by the same search as
  /// shortest_path(), so it always equals shortest_path()->size() - 1.
  std::optional<std::size_t> distance(NodeId a, NodeId b,
                                      std::size_t max_hops = 6) const;

  /// The lexicographically smallest of all shortest paths a -> ... -> b
  /// (both endpoints included; compared node id by node id from `a`), or
  /// nullopt when the distance exceeds `max_hops`. shortest_path(a,a) ==
  /// {a}. Used by the bottleneck-closeness fallback of Eq. (4).
  ///
  /// The result is a function of the graph alone — it is the path a FIFO
  /// BFS over ascending rows returns — whatever traversal computes it
  /// (today a meet-in-the-middle search, DESIGN.md §15). Cached path
  /// entries rely on that: the path can change only through an edit at
  /// one of its own nodes or a brand-new adjacency somewhere
  /// (edge_addition_epoch(), DESIGN.md §13). It is direction-dependent:
  /// shortest_path(b, a) need not be the reverse.
  std::optional<std::vector<NodeId>> shortest_path(
      NodeId a, NodeId b, std::size_t max_hops = 6) const;

  /// Total number of undirected edges (distinct adjacent pairs).
  std::size_t edge_count() const noexcept { return half_edges_ / 2; }

  /// Erases every trace of `node` from the graph — all its relationships
  /// and all interactions to and from it — as when a peer discards its
  /// identity (whitewashing). The node id itself remains valid (the node
  /// set is fixed) but is socially blank afterwards.
  void clear_node(NodeId node);

  /// Interval hook: compacts any pending delta overlay (and interaction
  /// tombstones) into fresh flat CSR arrays. Representation-only — no
  /// accessor result and no revision counter changes — so callers may
  /// invoke it at any quiescent point; the Simulator does so at the top
  /// of every reputation-update interval so the parallel closeness
  /// passes always read pure CSR rows. Invalidates outstanding spans.
  void begin_interval();

  /// Revision of *all* social state owned by `node`: its neighbour list,
  /// edge types, and outgoing interaction row f(node, *). Bumped by every
  /// mutator that changes any of those.
  Revision revision(NodeId node) const noexcept {
    return node < revisions_.size() ? revisions_[node] : 0;
  }

  /// Revision of `node`'s *structural* state only — its neighbour list and
  /// the relationship types on its edges. Interaction counters do not bump
  /// this, so structure-derived values (common-friend sets, adjacency) can
  /// be witnessed without churning on the rating stream.
  Revision structure_revision(NodeId node) const noexcept {
    return node < structure_revisions_.size() ? structure_revisions_[node] : 0;
  }

  /// Global epoch: bumps whenever any node's state changes at all.
  Revision epoch() const noexcept { return epoch_; }

  /// Structural epoch: bumps only when some edge appears, disappears, or
  /// changes type anywhere. While it holds still, every BFS distance and
  /// shortest path in the graph is unchanged.
  Revision structure_epoch() const noexcept { return structure_epoch_; }

  /// Edge-addition epoch: bumps only when a brand-new adjacency appears
  /// anywhere (the first relationship between a previously non-adjacent
  /// pair). Removals and type changes never bump it. While it holds
  /// still, no distance anywhere has shrunk and no new path exists, so a
  /// previously computed shortest path can only have been affected by
  /// changes touching its own nodes — the precise gate the path cache
  /// pairs with per-node structure witnesses.
  Revision edge_addition_epoch() const noexcept { return addition_epoch_; }

  // --- CSR maintenance diagnostics (tests, bench, docs) ---------------------

  /// Compactions performed so far (adjacency + interaction rebuilds).
  std::uint64_t rebuild_count() const noexcept { return rebuilds_; }

  /// Current delta mass: overlay entries + materialised overlay rows +
  /// interaction tombstones — the quantity the rebuild threshold watches.
  std::size_t delta_mass() const noexcept {
    return rel_overlay_entries_ + rel_overlay_live_ + int_overlay_entries_ +
           int_overlay_live_ + int_tombstones_;
  }

  /// Heap bytes of the graph representation, split by component. Measures
  /// vector capacities (allocated, not just used bytes); used by the
  /// bench_csr_graph memory table and the README footprint numbers.
  struct MemoryFootprint {
    std::size_t adjacency_bytes = 0;     ///< CSR offsets + targets + masks
    std::size_t interaction_bytes = 0;   ///< CSR offsets + targets + counts
    std::size_t overlay_bytes = 0;       ///< delta rows awaiting compaction
    std::size_t revision_bytes = 0;      ///< per-node revision counters
    std::size_t total() const noexcept {
      return adjacency_bytes + interaction_bytes + overlay_bytes +
             revision_bytes;
    }
  };
  MemoryFootprint memory_footprint() const noexcept;

  /// Minimum delta mass before a mutator may compact. A rebuild also
  /// requires delta mass * kRebuildFraction >= CSR entries + node count
  /// (the node count being a proxy for the O(n) offset sweep a rebuild
  /// pays regardless of edge count), so rebuild cost stays amortised
  /// O(1) per mutation at every scale.
  static constexpr std::size_t kRebuildMinDelta = 256;
  static constexpr std::size_t kRebuildFraction = 4;

 private:
  static constexpr std::uint32_t kNoOverlay = 0xFFFFFFFFU;

  /// Materialised delta row for one node's adjacency: the CSR row copied
  /// out, then mutated in place. SoA (targets/masks) so neighbors() can
  /// return the target slice directly.
  struct RelOverlayRow {
    std::vector<NodeId> targets;
    std::vector<std::uint8_t> masks;
  };
  /// Same, for one node's directed interaction row.
  struct IntOverlayRow {
    std::vector<NodeId> targets;
    std::vector<double> counts;
  };

  /// Read-only view of a node's adjacency row (CSR or overlay).
  struct RelRow {
    const NodeId* targets = nullptr;
    const std::uint8_t* masks = nullptr;
    std::size_t size = 0;
  };
  /// Mutable view of the same (masks editable in place).
  struct RelRowMut {
    const NodeId* targets = nullptr;
    std::uint8_t* masks = nullptr;
    std::size_t size = 0;
  };
  struct IntRow {
    const NodeId* targets = nullptr;
    const double* counts = nullptr;
    std::size_t size = 0;
  };
  struct IntRowMut {
    const NodeId* targets = nullptr;
    double* counts = nullptr;
    std::size_t size = 0;
  };

  RelRow rel_row(NodeId a) const noexcept;
  RelRowMut rel_row_mut(NodeId a) noexcept;
  IntRow int_row(NodeId a) const noexcept;
  IntRowMut int_row_mut(NodeId a) noexcept;

  /// Index of `b` in a's sorted row, or npos.
  static std::size_t find_in(const NodeId* targets, std::size_t size,
                             NodeId b) noexcept;

  /// Copies a's CSR adjacency (resp. interaction) row into a fresh
  /// overlay row and routes the node there. No-op if already routed.
  RelOverlayRow& materialize_rel(NodeId a);
  IntOverlayRow& materialize_int(NodeId a);

  void maybe_rebuild() {
    const std::size_t mass = delta_mass();
    if (mass >= kRebuildMinDelta &&
        mass * kRebuildFraction >=
            rel_targets_.size() + int_targets_.size() + node_count_) {
      rebuild();
    }
  }

  /// Compacts both overlays into fresh CSR arrays (node-ordered sweep;
  /// zero-count interaction entries are dropped). Representation-only.
  void rebuild();

  void check_node(NodeId a) const;
  void bump_structure(NodeId a, NodeId b);
  void bump_value(NodeId a);

  std::size_t node_count_ = 0;

  // Adjacency CSR: row a is rel_targets_[rel_offsets_[a] ..
  // rel_offsets_[a+1]) sorted ascending, rel_masks_ parallel.
  std::vector<std::uint64_t> rel_offsets_;
  std::vector<NodeId> rel_targets_;
  std::vector<std::uint8_t> rel_masks_;
  // Delta overlay: rel_overlay_slot_[a] routes a's reads/writes to
  // rel_overlay_[slot] until the next rebuild.
  std::vector<std::uint32_t> rel_overlay_slot_;
  std::vector<RelOverlayRow> rel_overlay_;
  std::size_t rel_overlay_entries_ = 0;  ///< half-edges living in overlay rows
  std::size_t rel_overlay_live_ = 0;     ///< materialised overlay rows

  // Interaction CSR (directed), same scheme; counts are mutable payload
  // (+= edits the flat array in place). Cleared entries become 0-count
  // tombstones until the next rebuild drops them.
  std::vector<std::uint64_t> int_offsets_;
  std::vector<NodeId> int_targets_;
  std::vector<double> int_counts_;
  std::vector<std::uint32_t> int_overlay_slot_;
  std::vector<IntOverlayRow> int_overlay_;
  std::size_t int_overlay_entries_ = 0;
  std::size_t int_overlay_live_ = 0;
  std::size_t int_tombstones_ = 0;

  std::vector<double> interaction_totals_;
  std::size_t half_edges_ = 0;

  // Change tracking (see Revision). structure_revisions_[n] <= revisions_[n]
  // in bump count: every structural bump also bumps the full revision.
  std::vector<Revision> revisions_;
  std::vector<Revision> structure_revisions_;
  Revision epoch_ = 0;
  Revision structure_epoch_ = 0;
  Revision addition_epoch_ = 0;

  std::uint64_t rebuilds_ = 0;

  // Process-wide observability handles (docs/OBSERVABILITY.md), resolved
  // once at construction; no-ops while the obs layer is disabled.
  obs::Counter* obs_rebuilds_ = nullptr;
  obs::Counter* obs_delta_edges_ = nullptr;
};

}  // namespace st::graph
