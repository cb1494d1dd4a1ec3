#include "reputation/ledger.hpp"

#include <limits>
#include <numeric>
#include <stdexcept>

namespace st::reputation {

PairRuns group_pairs(std::span<const Rating> ratings, std::size_t n) {
  if (ratings.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("group_pairs: more ratings than 32-bit indices");
  }
  const auto size = static_cast<std::uint32_t>(ratings.size());
  // Each node's first slot in ratee order and in rater order: counts at
  // [node + 1], prefix-summed.
  std::vector<std::uint32_t> ratee_slot(n + 1, 0);
  std::vector<std::uint32_t> rater_slot(n + 1, 0);
  for (const Rating& r : ratings) {
    if (!valid_rating(r, n)) continue;
    ++ratee_slot[r.ratee + 1];
    ++rater_slot[r.rater + 1];
  }
  std::partial_sum(ratee_slot.begin(), ratee_slot.end(), ratee_slot.begin());
  std::partial_sum(rater_slot.begin(), rater_slot.end(), rater_slot.begin());
  const std::uint32_t valid = ratee_slot[n];

  // Both passes are stable: stream order within a ratee, then ratee order
  // within a rater, which leaves stream order within each pair.
  std::vector<std::uint32_t> by_ratee(valid);
  for (std::uint32_t i = 0; i < size; ++i) {
    if (!valid_rating(ratings[i], n)) continue;
    by_ratee[ratee_slot[ratings[i].ratee]++] = i;
  }
  PairRuns out;
  out.indices.resize(valid);
  for (std::uint32_t i : by_ratee) {
    out.indices[rater_slot[ratings[i].rater]++] = i;
  }

  for (std::uint32_t k = 0; k < valid; ++k) {
    const Rating& r = ratings[out.indices[k]];
    const PairKey key{r.rater, r.ratee};
    if (out.keys.empty() || out.keys.back() != key) {
      out.keys.push_back(key);
      out.starts.push_back(k);
    }
  }
  out.starts.push_back(valid);
  return out;
}

void RatingLedger::record(const Rating& rating) {
  Rating r = rating;
  r.cycle = cycle_;
  open_.push_back(r);
  ++total_;
}

std::uint32_t RatingLedger::close_cycle() {
  // A swap, not a move: the open cycle records into the buffer the
  // previous close retired, with its capacity, so a steady stream does
  // not regrow it from empty every cycle.
  last_.swap(open_);
  open_.clear();
  return cycle_++;
}

void RatingLedger::clear() {
  open_.clear();
  last_.clear();
  cycle_ = 0;
  total_ = 0;
}

}  // namespace st::reputation
