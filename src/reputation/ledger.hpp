#pragma once
// Rating ledger: the per-cycle event store feeding reputation updates,
// and the one grouping of an interval's ratings by directed pair.
//
// The paper's resource managers "keep track of the rating frequencies and
// values of other nodes for the nodes [they] manage" (Section 4.3); the
// ledger is that record, centralised here and sliced per manager by
// st::core::ResourceManager. It stores each cycle's rating stream.
// group_pairs() turns a stream into its active pairs: the SocialTrust
// plugin reads each pair's t+ / t- and the interval's average pair
// frequency F off them (Section 4.1), and the eBay and paper-EigenTrust
// baselines collapse each pair's ratings into one contribution.

#include <cstdint>
#include <span>
#include <vector>

#include "reputation/rating.hpp"

namespace st::reputation {

/// Directed rater->ratee pair key.
struct PairKey {
  NodeId rater;
  NodeId ratee;
  bool operator==(const PairKey&) const = default;
};

/// An interval's ratings grouped by directed pair (group_pairs()).
struct PairRuns {
  /// The active pairs in canonical (rater, ratee) order.
  std::vector<PairKey> keys;
  /// Stream indices of the grouped ratings: pair by pair in `keys` order,
  /// and in stream order within each pair.
  std::vector<std::uint32_t> indices;
  /// Pair p's ratings are indices[starts[p]] .. indices[starts[p + 1]];
  /// one entry more than `keys`.
  std::vector<std::uint32_t> starts;

  std::size_t size() const noexcept { return keys.size(); }
  std::span<const std::uint32_t> run(std::size_t p) const noexcept {
    return std::span<const std::uint32_t>(indices).subspan(
        starts[p], starts[p + 1] - starts[p]);
  }
};

/// Groups the ratings of `ratings` that pass valid_rating(r, n) by
/// directed pair: a stable counting sort, first by ratee and then by
/// rater, so O(ratings + n) with no hashing and no comparison sort.
/// Invalid ratings appear in no run. Throws std::length_error when the
/// stream has more ratings than a 32-bit index can name.
PairRuns group_pairs(std::span<const Rating> ratings, std::size_t n);

class RatingLedger {
 public:
  /// Appends a rating to the current (open) cycle.
  void record(const Rating& rating);

  /// Closes the current cycle: the buffered ratings become the last
  /// completed cycle, retrievable via last_cycle(), and a new empty cycle
  /// opens in the buffer the previous last cycle held. Returns the index
  /// of the cycle just closed.
  std::uint32_t close_cycle();

  /// Ratings of the most recently closed cycle (empty before first close).
  std::span<const Rating> last_cycle() const noexcept { return last_; }

  /// Ratings buffered in the currently open cycle.
  std::span<const Rating> open_cycle() const noexcept { return open_; }

  std::uint32_t current_cycle() const noexcept { return cycle_; }

  /// Lifetime number of ratings recorded.
  std::uint64_t total_ratings() const noexcept { return total_; }

  void clear();

 private:
  std::vector<Rating> open_;
  std::vector<Rating> last_;
  std::uint32_t cycle_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace st::reputation
