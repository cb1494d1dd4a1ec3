#pragma once
// One node-indexed row store: the CSR-plus-overlay scheme SocialGraph
// keeps its adjacency (relationship masks) and its directed interactions
// (counts) in (DESIGN.md §15).
//
// Every node's row is a run of target ids in ascending order, each with
// one payload value. At rest the rows live in three flat arrays —
// offsets (n + 1), targets and payload — so a row is one contiguous
// slice. A mutation that changes a row's length copies the row into a
// private sorted overlay row, and the node reads from there until the
// next compact(); an edit of an existing entry's payload writes in place,
// wherever the row lives. compact() folds every row back into fresh flat
// arrays in one node-ordered sweep and releases the overlay. Rows are
// sorted in both places, so reads are the same before and after.
//
// An overlay row is copied with kOverlayHeadroom free slots, so a row
// that grows by a few entries between compactions — a node gaining its
// friends at set-up, a rater's new interaction targets in a query cycle —
// grows in place instead of through capacities 1, 2, 4, 8 and 16.
//
// A lookup is lower_bound_index(), a binary search that compiles to
// conditional moves: rows hold unique ascending ids, and the rater walk
// probes them with keys it cannot predict (DESIGN.md §13, "branch-free
// walk kernels").

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

namespace st::graph {

using NodeId = std::uint32_t;

/// std::lower_bound's index over the `n` ascending keys key_of(first[0]),
/// ..., key_of(first[n - 1]), found with no branch on the data: each step
/// keeps the upper or the lower half of the range by a conditional move,
/// and the last compare adds one. The loop's trip count depends on `n`
/// alone.
template <typename T, typename Key, typename KeyOf = std::identity>
std::size_t lower_bound_index(const T* first, std::size_t n, const Key& key,
                              KeyOf key_of = {}) noexcept {
  if (n == 0) return 0;
  const T* base = first;
  while (n > 1) {
    const std::size_t half = n / 2;
    base = key_of(base[half]) < key ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - first) + (key_of(*base) < key);
}

template <typename Payload>
class CsrRows {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  struct Row {
    std::span<const NodeId> targets;
    std::span<const Payload> payload;
  };

  explicit CsrRows(std::size_t node_count)
      : offsets_(node_count + 1, 0), slot_(node_count, kNoOverlay) {}

  Row row(NodeId a) const noexcept {
    const std::uint32_t slot = slot_[a];
    if (slot != kNoOverlay) {
      const OverlayRow& r = overlay_[slot];
      return {r.targets, r.payload};
    }
    const std::uint64_t begin = offsets_[a];
    const auto size = static_cast<std::size_t>(offsets_[a + 1] - begin);
    return {{targets_.data() + begin, size}, {payload_.data() + begin, size}};
  }

  /// Index of `b` in a's row, or npos.
  std::size_t find(NodeId a, NodeId b) const noexcept {
    return index_of(row(a).targets, b);
  }

  /// The payload of `b` in a's row; Payload{} when b is not in it.
  Payload at(NodeId a, NodeId b) const noexcept {
    const Row r = row(a);
    const std::size_t idx = index_of(r.targets, b);
    return idx != npos ? r.payload[idx] : Payload{};
  }

  /// a's payload, editable in place: an edit keeps the row's length, so
  /// it copies nothing.
  std::span<Payload> payload(NodeId a) noexcept {
    const std::uint32_t slot = slot_[a];
    if (slot != kNoOverlay) return overlay_[slot].payload;
    const std::uint64_t begin = offsets_[a];
    return {payload_.data() + begin,
            static_cast<std::size_t>(offsets_[a + 1] - begin)};
  }

  /// Adds `b`, which must not be in a's row yet, with `value`.
  void insert(NodeId a, NodeId b, Payload value) {
    OverlayRow& r = overlay_row(a);
    const auto it = std::lower_bound(r.targets.begin(), r.targets.end(), b);
    r.payload.insert(r.payload.begin() + (it - r.targets.begin()), value);
    r.targets.insert(it, b);
  }

  /// Removes entry `idx` (as find() returned it) from a's row.
  void erase(NodeId a, std::size_t idx) {
    OverlayRow& r = overlay_row(a);
    r.targets.erase(r.targets.begin() + static_cast<std::ptrdiff_t>(idx));
    r.payload.erase(r.payload.begin() + static_cast<std::ptrdiff_t>(idx));
  }

  /// Overlay rows awaiting compact(); 0 means every row is a flat slice.
  std::size_t overlay_rows() const noexcept { return overlay_.size(); }

  /// The flat arrays, which hold every node's row while overlay_rows()
  /// is 0.
  const std::uint64_t* offsets() const noexcept { return offsets_.data(); }
  const NodeId* targets() const noexcept { return targets_.data(); }

  /// Rewrites the flat arrays from every node's current row, in node
  /// order, keeping the entries whose payload satisfies `keep`, then
  /// releases the overlay's storage. Returns the entries the overlay rows
  /// held. Invalidates every Row.
  template <typename Keep>
  std::size_t compact(Keep keep) {
    const std::size_t n = slot_.size();
    std::vector<std::uint64_t> offsets(n + 1, 0);
    std::uint64_t total = 0;
    for (std::size_t a = 0; a < n; ++a) {
      offsets[a] = total;
      for (const Payload& value : row(static_cast<NodeId>(a)).payload) {
        if (keep(value)) ++total;
      }
    }
    offsets[n] = total;
    std::vector<NodeId> targets(total);
    std::vector<Payload> payload(total);
    std::uint64_t out = 0;
    for (std::size_t a = 0; a < n; ++a) {
      const Row r = row(static_cast<NodeId>(a));
      for (std::size_t k = 0; k < r.targets.size(); ++k) {
        if (!keep(r.payload[k])) continue;
        targets[out] = r.targets[k];
        payload[out] = r.payload[k];
        ++out;
      }
    }
    std::size_t absorbed = 0;
    for (const OverlayRow& r : overlay_) absorbed += r.targets.size();
    offsets_ = std::move(offsets);
    targets_ = std::move(targets);
    payload_ = std::move(payload);
    std::vector<OverlayRow>().swap(overlay_);
    std::fill(slot_.begin(), slot_.end(), kNoOverlay);
    return absorbed;
  }

  /// Heap bytes (capacities) of the flat arrays.
  std::size_t flat_bytes() const noexcept {
    return bytes(offsets_) + bytes(targets_) + bytes(payload_);
  }
  /// Heap bytes of the overlay: the slot array and each live row.
  std::size_t overlay_bytes() const noexcept {
    std::size_t total = bytes(slot_);
    for (const OverlayRow& r : overlay_) {
      total += bytes(r.targets) + bytes(r.payload) + sizeof(OverlayRow);
    }
    return total;
  }

 private:
  static constexpr std::uint32_t kNoOverlay = 0xFFFFFFFFU;
  /// Free slots an overlay row is copied with.
  static constexpr std::size_t kOverlayHeadroom = 16;

  struct OverlayRow {
    std::vector<NodeId> targets;
    std::vector<Payload> payload;
  };

  static std::size_t index_of(std::span<const NodeId> targets,
                              NodeId b) noexcept {
    const std::size_t idx =
        lower_bound_index(targets.data(), targets.size(), b);
    return idx != targets.size() && targets[idx] == b ? idx : npos;
  }

  template <typename T>
  static std::size_t bytes(const std::vector<T>& v) noexcept {
    return v.capacity() * sizeof(T);
  }

  /// a's overlay row, copied out of the flat arrays on first use with
  /// kOverlayHeadroom free slots.
  OverlayRow& overlay_row(NodeId a) {
    if (slot_[a] == kNoOverlay) {
      const Row r = row(a);
      OverlayRow copy;
      copy.targets.reserve(r.targets.size() + kOverlayHeadroom);
      copy.targets.assign(r.targets.begin(), r.targets.end());
      copy.payload.reserve(r.payload.size() + kOverlayHeadroom);
      copy.payload.assign(r.payload.begin(), r.payload.end());
      overlay_.push_back(std::move(copy));
      slot_[a] = static_cast<std::uint32_t>(overlay_.size() - 1);
    }
    return overlay_[slot_[a]];
  }

  std::vector<std::uint64_t> offsets_;
  std::vector<NodeId> targets_;
  std::vector<Payload> payload_;
  /// slot_[a] indexes a's row in overlay_, or is kNoOverlay.
  std::vector<std::uint32_t> slot_;
  std::vector<OverlayRow> overlay_;
};

}  // namespace st::graph
