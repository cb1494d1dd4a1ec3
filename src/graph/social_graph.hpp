#pragma once
// Social-network substrate on a compact CSR core.
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
// Storage layout (DESIGN.md §15, docs/ARCHITECTURE.md). The typed
// adjacency and the directed interaction rows are two instances of one
// row store (csr_rows.hpp): flat CSR arrays — one offsets array indexed
// by node, plus parallel `targets` and payload slices (the relationship
// mask for adjacency, the `double` count for interactions), each row
// sorted by target id. Every closeness BFS, common-friend intersection
// and interaction-row read therefore walks contiguous memory instead of
// chasing one heap allocation per node. A mutation that changes a row's
// length moves that node's row into a sorted overlay row (mask flips and
// count increments on existing entries edit the row in place), and
// clear_node() zeroes interaction counts in place, leaving tombstones.
// Mutators never compact. begin_interval(), which the Simulator calls
// before each reputation update, is the one place that folds a store's
// overlay rows (and the interaction tombstones) back into fresh flat
// arrays, and it rewrites only a store with pending changes: relationships
// change at setup and on whitewashing, interactions every query cycle.
//
// Compaction is representation-only: every accessor reads the same
// sorted rows before and after, so results are bit-identical and the
// structure epoch does not move.
//
// The rater walk reads adjacency(), interaction() and
// total_interactions() once or more per rated pair, so they are defined
// in this header and inline into it; a row lookup behind interaction()
// and relationship_mask() is csr_rows.hpp's branch-free binary search
// (DESIGN.md §13, "branch-free walk kernels"). record_interaction()
// drops a count that would overflow the sender's total, so every Eq. (2)
// count and total stays finite.
//
// Change tracking covers adjacency only (DESIGN.md §13): one graph-wide
// structure_epoch() witnesses every cached shortest path, and each
// node's node_epoch() names the epoch at which its adjacency row last
// changed, so the path cache can tell which rows a change touched.
// Interaction counts carry no epoch — the plugin re-reads every Eq. (2)
// row each interval.
//
// Span stability: neighbors() spans are invalidated by ANY mutating
// method — not just mutations of the same node — because begin_interval()
// moves every row of a store it compacts, and a mutator moves each row
// it resizes, which for a relationship is the other endpoint's too and
// for clear_node() every former friend's. Callers must not hold a span
// across a non-const call (the pre-CSR contract was per-node; the repo's
// call sites already satisfied the stronger rule).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/csr_rows.hpp"

namespace st::obs {
class Counter;
}  // namespace st::obs

namespace st::graph {

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

/// Default hop cap of the bounded shortest-path search, and so of Eq. 4's
/// bottleneck fallback: a pair farther apart than this is unreachable.
/// SocialStateCache sizes its inline path entries by it.
inline constexpr std::size_t kMaxPathHops = 6;

/// Per-type weights used by Eq. (10). Kinship is strongest; a plain
/// online friendship is the baseline (1.0).
double default_relationship_weight(Relationship r) noexcept;

/// Undirected multigraph over a fixed node set with typed parallel edges
/// and directed interaction counters, on the CSR core described above.
///
/// Node ids are dense indices [0, size()). The node count is fixed at
/// construction — reputation experiments run on closed populations — but
/// relationships and interactions mutate freely.
class SocialGraph {
 public:
  /// Monotone change counter for adjacency. The structure epoch never
  /// decreases and bumps exactly when some adjacency actually changes
  /// (no-op mutator calls, interaction edits and compactions leave it
  /// untouched), so equality of the epoch witnessed at compute time with
  /// the current one proves a structure-derived value would come out
  /// identical if re-derived.
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

  /// Adjacency row of `a`: parallel spans of neighbour ids (ascending, as
  /// neighbors() returns them) and each edge's relationship mask (never
  /// 0). Masks are symmetric: mask(a, b) == mask(b, a). Same
  /// span-stability contract as neighbors().
  struct AdjacencyRow {
    std::span<const NodeId> targets;
    std::span<const std::uint8_t> masks;
  };
  AdjacencyRow adjacency(NodeId a) const noexcept {
    if (a >= node_count_) return {};
    const auto row = rel_.row(a);
    return {row.targets, row.payload};
  }

  /// Records `count` interactions from `from` to `to` — in the P2P mapping,
  /// "an interaction is an action that a peer requests a resource from
  /// another peer" (Section 4.1). Interactions are directed and need not be
  /// between adjacent nodes. A self-interaction, a count that is not
  /// finite and positive, and a count that would make `from`'s total
  /// non-finite are ignored.
  void record_interaction(NodeId from, NodeId to, double count = 1.0);

  /// Directed interaction count f(i,j).
  double interaction(NodeId from, NodeId to) const noexcept {
    return from < node_count_ ? int_.at(from, to) : 0.0;
  }

  /// Sum of f(i, *) over everyone `from` interacted with — the denominator
  /// of Eq. (2).
  double total_interactions(NodeId from) const noexcept {
    return from < node_count_ ? interaction_totals_[from] : 0.0;
  }

  /// Directed interaction row of `from`: parallel spans of target ids
  /// (ascending) and counts. Entries with zero count may appear (cleared
  /// targets awaiting the next begin_interval()); callers treat them as
  /// absent. Same span-stability contract as neighbors().
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
  std::optional<std::size_t> distance(
      NodeId a, NodeId b, std::size_t max_hops = kMaxPathHops) const;

  /// The lexicographically smallest of all shortest paths a -> ... -> b
  /// (both endpoints included; compared node id by node id from `a`), or
  /// nullopt when the distance exceeds `max_hops`. shortest_path(a,a) ==
  /// {a}. Used by the bottleneck-closeness fallback of Eq. (4).
  ///
  /// The result is a function of the graph alone — it is the path a FIFO
  /// BFS over ascending rows returns — whatever traversal computes it
  /// (today a meet-in-the-middle search, DESIGN.md §15). Cached path
  /// entries rely on that: the path from `a` can change only through a
  /// change to the row of a node at most max_hops - 1 hops from `a`,
  /// which stamps that node's node_epoch() (DESIGN.md §13).
  /// It is direction-dependent: shortest_path(b, a) need not be the
  /// reverse.
  std::optional<std::vector<NodeId>> shortest_path(
      NodeId a, NodeId b, std::size_t max_hops = kMaxPathHops) const;

  /// The same search, allocation-free: writes the path into `out`, whose
  /// size is max_hops + 1, and returns its node count; 0 means none within
  /// out.size() - 1 hops (an empty `out` finds nothing). Entries of `out`
  /// past the count are left as they were. The vector form and
  /// distance() wrap this one.
  std::size_t shortest_path(NodeId a, NodeId b, std::span<NodeId> out) const;

  /// Total number of undirected edges (distinct adjacent pairs).
  std::size_t edge_count() const noexcept { return half_edges_ / 2; }

  /// Erases every trace of `node` from the graph — all its relationships
  /// and all interactions to and from it — as when a peer discards its
  /// identity (whitewashing). The node id itself remains valid (the node
  /// set is fixed) but is socially blank afterwards.
  void clear_node(NodeId node);

  /// Interval hook and the graph's one compaction point: rewrites the
  /// flat CSR arrays of each store with pending changes — overlay rows,
  /// or for interactions also tombstones — and leaves the other store's
  /// arrays where they are. Representation-only — no accessor result
  /// changes and the structure epoch stays — so callers may invoke it at
  /// any quiescent point; the Simulator does so at the top of every
  /// reputation-update interval so the parallel closeness passes always
  /// read pure CSR rows. Invalidates outstanding spans.
  void begin_interval();

  /// Graph-wide structure epoch: bumps on every relationship add or
  /// remove that changes something — a new edge, a new type on an
  /// existing edge, a removed type or edge, and so every clear_node() of
  /// a node with a relationship. Interactions, no-op mutator calls and
  /// compactions leave it alone. While it holds still, every structure-
  /// derived value (common-friend sets, distances, lex-min paths) is
  /// unchanged; the path cache's rows are witnessed by it.
  Revision structure_epoch() const noexcept { return structure_epoch_; }

  /// The structure epoch at which a's adjacency row last changed (a
  /// neighbour or an edge's type set): every bump of structure_epoch()
  /// stamps both endpoints of the edge it changed, so clear_node(a)
  /// stamps a and every former friend. 0 for a row that never changed
  /// and for an out-of-range id.
  Revision node_epoch(NodeId a) const noexcept {
    return a < node_count_ ? node_epochs_[a] : 0;
  }

  // --- CSR maintenance diagnostics (tests, bench, docs) ---------------------

  /// begin_interval() calls that compacted at least one store.
  std::uint64_t rebuild_count() const noexcept { return rebuilds_; }

  /// Changes the next begin_interval() compacts: overlay rows of both
  /// stores plus interaction tombstones. 0 on a compacted graph.
  std::size_t pending_delta() const noexcept {
    return rel_.overlay_rows() + int_.overlay_rows() + int_tombstones_;
  }

  /// Heap bytes of the graph representation, split by component. Measures
  /// vector capacities (allocated, not just used bytes); used by the
  /// bench_csr_graph memory table and the README footprint numbers.
  struct MemoryFootprint {
    std::size_t adjacency_bytes = 0;     ///< CSR arrays + node epochs
    std::size_t interaction_bytes = 0;   ///< CSR offsets + targets + counts
    std::size_t overlay_bytes = 0;       ///< delta rows awaiting compaction
    std::size_t total() const noexcept {
      return adjacency_bytes + interaction_bytes + overlay_bytes;
    }
  };
  MemoryFootprint memory_footprint() const noexcept;

 private:
  void check_node(NodeId a) const;
  /// Moves the structure epoch for a change to edge (a, b) and stamps
  /// both endpoints' rows with it.
  void bump_structure(NodeId a, NodeId b) noexcept {
    ++structure_epoch_;
    node_epochs_[a] = structure_epoch_;
    node_epochs_[b] = structure_epoch_;
  }

  std::size_t node_count_ = 0;

  // Adjacency: each row holds the node's neighbours with the edge's
  // relationship mask (never 0).
  CsrRows<std::uint8_t> rel_;
  // Directed interactions with their counts. clear_node() zeroes counts
  // in place; those 0-count tombstones stay until begin_interval().
  CsrRows<double> int_;
  std::size_t int_tombstones_ = 0;

  std::vector<double> interaction_totals_;
  std::size_t half_edges_ = 0;

  // Change tracking (see Revision): adjacency only.
  Revision structure_epoch_ = 0;
  std::vector<Revision> node_epochs_;  ///< node_epoch(), per node

  std::uint64_t rebuilds_ = 0;

  // Process-wide observability handles (docs/OBSERVABILITY.md), resolved
  // once at construction; no-ops while the obs layer is disabled.
  obs::Counter* obs_rebuilds_ = nullptr;
  obs::Counter* obs_delta_edges_ = nullptr;
};

}  // namespace st::graph
