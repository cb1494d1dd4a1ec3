#pragma once
// SocialTrustPlugin — the paper's contribution, as a wrapper around any
// ReputationSystem (Section 4).
//
// On every reputation-update interval the plugin:
//   1. tallies per-pair positive/negative rating counts (t+, t-),
//   2. computes each active rater's social closeness Omega_c and interest
//      similarity Omega_s to the nodes it has rated (cumulative history),
//   3. runs the B1-B4 detector on every high-frequency pair,
//   4. rescales flagged ratings with the Gaussian filter (Eqs. 6/8/9),
//   5. hands the adjusted rating stream to the wrapped system.
//
// The plugin is itself a ReputationSystem, so "EigenTrust + SocialTrust"
// and "eBay + SocialTrust" are literally `SocialTrustPlugin(EigenTrust)` /
// `SocialTrustPlugin(EbayReputation)` — the construction the evaluation
// section compares.
//
// Parallel execution: with SocialTrustConfig::threads != 1 the three
// per-pair passes of update() (baseline coefficient collection, per-rater
// leave-one-out aggregates, detect-and-adjust) fan across a ThreadPool in
// fixed-size blocks of the pair list sorted by (rater, ratee). Per-block
// partial results (report counters, weight sum, flagged pairs) are reduced
// in block-index order, and block boundaries depend only on the pair count
// — never on the worker count — so the outcome is bit-for-bit identical
// for every `threads` value, serial included. See DESIGN.md, "Parallel
// update interval".
//
// Incremental social state: closeness and similarity lookups go through a
// persistent SocialStateCache that survives across update intervals and
// revalidates entries against the per-node revision counters of the graph
// and profiles — an entry is reused iff re-deriving it would read the same
// state, so warm results stay bit-identical to a cold recompute while the
// expensive BFS / friend-of-friend work is only redone for pairs whose
// social neighbourhood actually changed (DESIGN.md §13).
//
// Dirty-pair scheduling: with SocialTrustConfig::schedule == kDirtyPairs
// (the default) the interval is O(changed), not O(all pairs). Every
// cumulative (rater, ratee) pair owns a stable dense *slot* id (assigned
// when the pair first appears in rated_history_, never reused), and the
// per-pair closeness/similarity coefficients and per-rater leave-one-out
// aggregates persist across intervals in slot-indexed arrays. Each
// interval the plugin asks the cache which value keys went dirty since
// the last interval (collect_dirty: erase logs + epoch-gated witness
// sweep) and marks only those slots invalid; every clean pair carries
// its coefficients forward with one array read — no hashing, no sort
// (the canonical pair order falls out of walking raters ascending and
// their sorted histories), and no sharded-cache traffic. Detection, the
// robust system-wide baselines and the Gaussian adjustment still run
// over *all* active pairs from the (identical) coefficient arrays, so
// the output is bit-identical to schedule == kFullWalk at every thread
// count — the property the differential harness in
// tests/incremental_state_test.cpp and tests/dirty_pair_property_test.cpp
// pins down. See DESIGN.md §14.
//
// Observability: when the st::obs layer is enabled, update() times its
// four stages (invalidate / collect / leave-one-out / adjust), tallies
// pair and rating counters, and emits one "socialtrust.update" interval
// event per call. Instrumentation is observation-only — it never feeds
// back into the adjustment, so enabling it preserves the bit-identity
// contract above (DESIGN.md §12, docs/OBSERVABILITY.md).

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/closeness.hpp"
#include "core/config.hpp"
#include "core/detector.hpp"
#include "core/similarity.hpp"
#include "core/social_state_cache.hpp"
#include "obs/obs.hpp"
#include "reputation/ledger.hpp"
#include "reputation/reputation_system.hpp"
#include "util/thread_pool.hpp"

namespace st::core {

/// One detector hit: the pair, what it matched, and the applied weight.
struct FlaggedPair {
  reputation::NodeId rater = 0;
  reputation::NodeId ratee = 0;
  Behavior behavior = Behavior::kNone;
  double weight = 1.0;
};

/// Diagnostics for one update interval (inspection + tests + benches).
struct AdjustmentReport {
  std::size_t pairs_total = 0;       ///< active rating pairs this interval
  std::size_t pairs_flagged = 0;     ///< pairs matching any of B1-B4
  std::size_t ratings_adjusted = 0;  ///< individual ratings rescaled
  std::size_t b1 = 0, b2 = 0, b3 = 0, b4 = 0;  ///< per-behaviour pair counts
  double mean_weight = 1.0;  ///< mean Gaussian weight over adjusted ratings
  std::vector<FlaggedPair> flagged;  ///< every detector hit this interval
};

class SocialTrustPlugin final : public reputation::ReputationSystem {
 public:
  /// Wraps `inner`. The social graph and interest profiles are shared,
  /// caller-owned state (the simulator mutates them as peers interact);
  /// the plugin only reads them.
  SocialTrustPlugin(std::unique_ptr<reputation::ReputationSystem> inner,
                    const graph::SocialGraph& graph,
                    const InterestProfiles& profiles,
                    SocialTrustConfig config = {});

  std::string_view name() const noexcept override { return name_; }
  std::size_t size() const noexcept override { return inner_->size(); }
  void update(std::span<const reputation::Rating> cycle_ratings) override;
  double reputation(reputation::NodeId node) const override {
    return inner_->reputation(node);
  }
  std::span<const double> reputations() const noexcept override {
    return inner_->reputations();
  }
  void reset() override;
  void forget_node(reputation::NodeId node) override;

  const AdjustmentReport& last_report() const noexcept { return report_; }
  const SocialTrustConfig& config() const noexcept { return config_; }
  reputation::ReputationSystem& inner() noexcept { return *inner_; }

  /// The adjusted rating stream of the last update (tests/diagnostics).
  std::span<const reputation::Rating> last_adjusted() const noexcept {
    return adjusted_;
  }

  /// Worker count the update interval actually runs with (the config knob
  /// with 0 resolved to hardware concurrency).
  std::size_t effective_threads() const noexcept;

  /// What the dirty-pair scheduler did in the last update() — cost-side
  /// diagnostics only; never part of the bit-identity contract (the
  /// differential tests compare AdjustmentReport, which deliberately
  /// excludes these). Under kFullWalk every active pair counts as dirty.
  struct DirtyStats {
    std::size_t pairs_dirty = 0;    ///< pairs recomputed through the cache
    std::size_t pairs_carried = 0;  ///< pairs served from carried state
    std::size_t raters_rebuilt = 0;  ///< LOO aggregates rebuilt
    std::size_t raters_carried = 0;  ///< LOO aggregates carried forward
    double scan_us = 0.0;  ///< collect_dirty + worklist application time
  };
  const DirtyStats& last_dirty_stats() const noexcept { return dirty_stats_; }

  /// The persistent social-state cache (tests, benches, diagnostics).
  /// First drains the whitewash invalidations forget_node queued, so the
  /// caller sees the cache update() would see (the drain allocates, hence
  /// not noexcept). Mutable access is deliberate: dropping it
  /// (`social_cache().clear()`) must never change update() output, only
  /// its cost — that is the cold-vs-warm property the incremental tests
  /// pin down.
  SocialStateCache& social_cache() const {
    drain_invalidations();
    return social_cache_;
  }

  /// Pair-block grain of the parallel passes. A fixed constant — not a
  /// function of the worker count — so the block reduction tree, and with
  /// it every floating-point sum, is identical for every `threads` value.
  static constexpr std::size_t kPairBlock = 128;

  /// Multiset aggregate supporting O(1) leave-one-out statistics: tracking
  /// the two smallest and two largest values lets us remove any single
  /// value and still know the min/max of the rest. The paper centres each
  /// rater's Gaussian on its closeness/similarity "to *other* nodes it has
  /// rated" (Section 4.1), i.e. excluding the pair under evaluation —
  /// without the exclusion a lone extreme pair would stretch the width
  /// |max - min| around itself and cap its own attenuation at exp(-1/2).
  struct LooAggregate {
    std::size_t n = 0;
    double sum = 0.0;
    double sum_sq = 0.0;
    double min1 = 0.0, min2 = 0.0;  // smallest, second smallest
    double max1 = 0.0, max2 = 0.0;  // largest, second largest

    void add(double v) noexcept;
    /// Stats of the multiset with one instance of `v` removed. Returns
    /// false when nothing remains (caller falls back to system stats).
    bool without(double v, CoefficientStats& out) const noexcept;
    /// Stats of the full multiset.
    CoefficientStats full() const noexcept;
  };

 private:
  /// Per-pair evidence accumulated in pass 1: the interval's positive and
  /// negative rating counts t+/t- (the detector's frequency inputs, kept
  /// as doubles because thresholds are fractional multiples of the system
  /// average F), plus the indices of this pair's ratings in the
  /// interval's stream. The index list is what makes the parallel
  /// detect-and-adjust pass race-free: a rating index appears in exactly
  /// one pair's list, so rescaling writes to adjusted_ are disjoint.
  struct PairTally {
    double positive = 0.0;
    double negative = 0.0;
    std::vector<std::size_t> rating_indices;  // into the interval's stream
  };
  /// One active pair of the interval: its directed (rater, ratee) key and
  /// the tally above. update() flattens the PairMap into a
  /// std::vector<PairWork> sorted by (rater, ratee) — the canonical order
  /// every pass iterates in, the order blocks partition, and the order
  /// report_.flagged keeps. All three parallel passes index this vector
  /// by position, so "pair i" means the same pair on every thread count.
  struct PairWork {
    reputation::PairKey key;
    PairTally tally;
  };
  using PairMap = std::unordered_map<reputation::PairKey, PairTally,
                                     reputation::PairKeyHash>;

  /// Per-block partial of the detect-and-adjust pass — the private
  /// accumulator of one kPairBlock-sized block. Each worker writes only
  /// its own block's partial (no sharing, no atomics); after the join the
  /// partials are reduced into report_ serially in block-index order, so
  /// the integer counters, the order-sensitive floating-point weight_sum,
  /// and the concatenated flagged list never depend on thread scheduling.
  struct BlockPartial {
    std::size_t pairs_flagged = 0;
    std::size_t ratings_adjusted = 0;
    std::size_t b1 = 0, b2 = 0, b3 = 0, b4 = 0;  ///< per-behaviour counts
    double weight_sum = 0.0;           ///< sum of applied Gaussian weights
    std::vector<FlaggedPair> flagged;  ///< detector hits, pair-key order
  };

  double closeness_cached(reputation::NodeId i, reputation::NodeId j) const;
  double similarity_of(reputation::NodeId i, reputation::NodeId j) const;
  LooAggregate aggregate_over(reputation::NodeId rater,
                              const std::vector<reputation::NodeId>& ratees,
                              bool closeness) const;

  /// Runs fn(begin, end) over kPairBlock-sized blocks of [0, n): serially
  /// in block order when the plugin is single-threaded, across the pool
  /// otherwise. fn must only touch per-index or per-block state.
  void run_blocks(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn);

  std::unique_ptr<reputation::ReputationSystem> inner_;
  const graph::SocialGraph& graph_;
  const InterestProfiles& profiles_;
  SocialTrustConfig config_;
  ClosenessModel closeness_model_;
  BehaviorDetector detector_;
  std::string name_;

  /// Workers for the update-interval passes; null when threads == 1 (the
  /// serial path shares the exact same blocked code, minus the pool).
  std::unique_ptr<util::ThreadPool> pool_;

  /// Cumulative per-rater rated sets (sorted); the population over which
  /// the per-rater Gaussian statistics are computed.
  std::vector<std::vector<reputation::NodeId>> rated_history_;

  /// Persistent closeness/similarity memo, revalidated per entry against
  /// graph/profile revisions — NOT per-update scratch; it survives across
  /// intervals (DESIGN.md §13). Mutable because closeness_cached() /
  /// similarity_of() are logically-const reads shared by the concurrent
  /// passes; the sharded cache makes them physically thread-safe.
  mutable SocialStateCache social_cache_;

  /// Identities forget_node discarded whose cache entries are not erased
  /// yet, in forget order (duplicates allowed). Mutable because the const
  /// social_cache() accessor drains it; coordinator-only, like forget_node.
  mutable std::vector<reputation::NodeId> forgotten_;
  /// One SocialStateCache::invalidate_nodes() pass over forgotten_, then
  /// clears it. No-op while nothing is queued.
  void drain_invalidations() const;

  /// Carried per-pair coefficients of the dirty scheduler. slot_valid_
  /// is set iff the slot's pair was computed in some earlier interval
  /// and no dirty key (or history edit) has hit it since, so its values
  /// are exactly what closeness_cached/similarity_of would return today
  /// (the cache's revision-witness contract). Only the coordinator
  /// mutates validity (clear on dirty, set after the recompute pass);
  /// the parallel carry pass does read-only indexed loads.
  struct PairCoeff {
    double closeness = 0.0;
    double similarity = 0.0;
  };

  /// Dirty-mode slot plumbing. hist_slots_[r][k] is the stable slot id
  /// of pair (r, rated_history_[r][k]) — parallel to rated_history_, so
  /// a history insertion inserts a fresh id at the same position and no
  /// existing slot ever moves or remaps. Slots freed by forget_node leak
  /// (marked invalid, never reused); bounded by total distinct pairs
  /// ever rated, the same asymptote as rated_history_ itself.
  std::vector<std::vector<std::uint32_t>> hist_slots_;
  std::vector<PairCoeff> slot_coeff_;     ///< carried coefficients
  std::vector<std::uint8_t> slot_valid_;  ///< 1 = slot_coeff_ is current

  /// Per-slot interval scratch, stamp-gated by interval_seq_ so nothing
  /// is cleared between intervals: a slot's tally fields are meaningful
  /// iff slot_stamp_[slot] == interval_seq_ (i.e. the pair was rated in
  /// the current interval).
  std::vector<std::uint64_t> slot_stamp_;
  std::vector<double> slot_pos_, slot_neg_;      ///< interval t+/t- tallies
  std::vector<std::uint32_t> slot_ratings_;      ///< interval rating count
  std::vector<std::uint32_t> slot_active_idx_;   ///< slot -> active index
  std::uint64_t interval_seq_ = 0;

  /// Appends a fresh slot (invalid, unstamped) and returns its id.
  std::uint32_t new_slot();
  /// The slot of pair (rater, ratee), or kNoSlot when the ratee is not in
  /// the rater's history.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFU;
  std::uint32_t slot_of(reputation::NodeId rater,
                        reputation::NodeId ratee) const noexcept;

  /// Carried per-rater leave-one-out aggregates (indexed by rater id).
  /// valid means: rebuilt over the rater's current rated_history_ with
  /// coefficients no dirty key has touched since — so a rebuild would
  /// replay the identical add() sequence and produce the identical
  /// struct. Invalidated by history growth (pass 1), history shrink
  /// (forget_node) and dirty closeness/similarity keys naming the rater.
  struct RaterAggregates {
    LooAggregate closeness;
    LooAggregate similarity;
    bool valid = false;
  };
  std::vector<RaterAggregates> rater_agg_;

  // Per-update scratch (rebuilt each call).
  std::vector<reputation::Rating> adjusted_;
  AdjustmentReport report_;
  DirtyStats dirty_stats_;

  /// Cache totals already reported in earlier intervals; the delta against
  /// the cache's cumulative stats gives this interval's hit rate.
  std::uint64_t cache_hits_reported_ = 0;
  std::uint64_t cache_misses_reported_ = 0;

  /// Observability handles, resolved once at construction (process-wide
  /// metrics; no-ops while the obs layer is disabled). Stage histograms
  /// record microseconds; counters accumulate across intervals.
  struct ObsHandles {
    obs::Histogram* total_us = nullptr;    ///< socialtrust.update.total_us
    /// socialtrust.update.invalidate_us
    obs::Histogram* invalidate_us = nullptr;
    obs::Histogram* collect_us = nullptr;  ///< socialtrust.update.collect_us
    obs::Histogram* tally_us = nullptr;    ///< socialtrust.update.tally_us
    obs::Histogram* coeff_us = nullptr;    ///< socialtrust.update.coeff_us
    obs::Histogram* baseline_us = nullptr;  ///< socialtrust.update.baseline_us
    obs::Histogram* loo_us = nullptr;      ///< socialtrust.update.loo_us
    obs::Histogram* adjust_us = nullptr;   ///< socialtrust.update.adjust_us
    obs::Counter* intervals = nullptr;     ///< socialtrust.intervals
    obs::Counter* ratings_seen = nullptr;  ///< socialtrust.ratings_seen
    obs::Counter* pairs_total = nullptr;   ///< socialtrust.pairs_total
    obs::Counter* pairs_flagged = nullptr;  ///< socialtrust.pairs_flagged
    obs::Counter* ratings_adjusted = nullptr;  ///< socialtrust.ratings_adjusted
    obs::Counter* pairs_dirty = nullptr;    ///< socialtrust.pairs_dirty
    obs::Counter* pairs_carried = nullptr;  ///< socialtrust.pairs_carried
    obs::Histogram* dirty_scan_us = nullptr;  ///< socialtrust.dirty_scan_us
    obs::Gauge* cache_hit_rate = nullptr;  ///< social_cache.hit_rate_pct
  };
  ObsHandles obs_;
};

}  // namespace st::core
