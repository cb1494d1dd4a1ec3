#pragma once
// SocialTrustPlugin — the paper's contribution, as a wrapper around any
// ReputationSystem (Section 4).
//
// On every reputation-update interval the plugin:
//   1. groups the interval's ratings by pair (reputation::group_pairs) and
//      counts each pair's positive/negative ratings (t+, t-),
//   2. computes each active rater's social closeness Omega_c and interest
//      similarity Omega_s to the nodes it has rated (cumulative history),
//   3. runs the B1-B4 detector on every high-frequency pair,
//   4. rescales flagged ratings with the Gaussian filter (Eqs. 6/8/9),
//   5. hands the adjusted rating stream to the wrapped system.
// Every step walks every active pair of the interval; nothing is carried
// from one interval to the next except the cumulative rated history and
// the social-state cache below. In the paper's model every rating is also
// an interaction, so every active rater's closeness row goes stale each
// interval and there is nothing else to carry (DESIGN.md §14).
//
// The plugin is itself a ReputationSystem, so "EigenTrust + SocialTrust"
// and "eBay + SocialTrust" are literally `SocialTrustPlugin(EigenTrust)` /
// `SocialTrustPlugin(EbayReputation)` — the construction the evaluation
// section compares.
//
// Parallel execution: with SocialTrustConfig::threads != 1 the two
// passes of update() fan across a ThreadPool in fixed-size blocks: the
// rater walk (each active rater's Omega_c/Omega_s row and leave-one-out
// aggregates) over the sorted list of active raters, and detect-and-adjust
// over the pair list in group_pairs' canonical (rater, ratee) order.
// Per-block partial results (report counters, weight sum, flagged pairs)
// are reduced in block-index order, and block boundaries depend only on
// the rater and pair counts — never on the worker count — so the outcome
// is bit-for-bit identical for every `threads` value, serial included.
// See DESIGN.md, "Parallel update interval".
//
// Social structure: the rater walk is rater-major, and so is its data.
// For each active rater it opens one SocialStateCache::Row (the rater's
// neighbours and their Eq. 2 values), so each ratee costs only its own
// side of Omega_c; Omega_s is one pass over two dense profile rows. The cache
// persists only what survives an interval and is expensive to recompute
// — the shortest paths Eq. 4 reads, one sorted row per source. update()
// opens the cache's interval first: if the graph's structure epoch moved
// since the previous update(), the cache releases the rows of the
// sources the change can reach (those within kMaxPathHops - 1 hops of a
// changed adjacency row) and keeps the rest; every interval then stores
// and serves paths, so the bounded path search is not redone for a
// source the topology change did not reach (DESIGN.md §13). Each
// coefficient itself is evaluated once per interval by the rater walk.
// The cold-vs-warm gates in tests/incremental_state_test.cpp and
// tests/warm_cold_property_test.cpp pin bit-identity with a cleared cache
// at every interval and thread count, and a from-scratch oracle there
// recomputes an interval without the cache.
//
// Observability: when the st::obs layer is enabled, update() times its
// two stages (collect / adjust), tallies pair and rating counters, and
// emits one "socialtrust.update" interval event per call, which also
// says what the cache's boundary changed and released.
// Instrumentation is observation-only — it never feeds back into the
// adjustment, so enabling it preserves the bit-identity contract above
// (DESIGN.md §12, docs/OBSERVABILITY.md).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/closeness.hpp"
#include "core/config.hpp"
#include "core/detector.hpp"
#include "core/similarity.hpp"
#include "core/social_state_cache.hpp"
#include "obs/obs.hpp"
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

  /// The last update()'s work counts in the shape the deleted dirty-pair
  /// scheduler reported them: the rater walk recomputes every active pair
  /// and rebuilds every active rater's leave-one-out aggregates, so both
  /// carried counts are always 0. Kept only because the cycle benchmark
  /// (perfbench/simbench.cpp) still reads it; it goes when a benchmark
  /// change retires the metrics built on it.
  struct DirtyStats {
    std::size_t pairs_dirty = 0;     ///< active pairs (all recomputed)
    std::size_t pairs_carried = 0;   ///< always 0
    /// active raters (all rebuilt); 0 under kSystemWide, which builds
    /// no per-rater aggregate
    std::size_t raters_rebuilt = 0;
    std::size_t raters_carried = 0;  ///< always 0
  };
  const DirtyStats& last_dirty_stats() const noexcept { return dirty_stats_; }

  /// The persistent social-state cache (tests, benches, diagnostics).
  /// Mutable access is deliberate: dropping it (`social_cache().clear()`)
  /// must never change update() output, only its cost — that is the
  /// cold-vs-warm property the incremental tests pin down.
  SocialStateCache& social_cache() const noexcept { return social_cache_; }

  /// Block grain of the parallel passes (raters in the walk, pairs in
  /// detect-and-adjust). A fixed constant — not a function of the worker
  /// count — so the block reduction tree, and with it every
  /// floating-point sum, is identical for every `threads` value.
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

  /// Persistent shortest-path memo, opened at the start of every update(),
  /// which releases only the rows a relationship change can reach — NOT
  /// per-update scratch; it survives across intervals (DESIGN.md §13).
  /// The walk's workers share it without locks: each opens the rows of
  /// the raters it walks, and no rater is walked by two workers. Mutable
  /// because social_cache() hands it out from a const accessor.
  mutable SocialStateCache social_cache_;

  // Per-update scratch (rebuilt each call).
  std::vector<reputation::Rating> adjusted_;
  AdjustmentReport report_;
  DirtyStats dirty_stats_;

  /// Structure-layer totals already reported in earlier intervals; the
  /// delta against the cache's cumulative stats gives this interval's hit
  /// rate.
  std::uint64_t structure_hits_reported_ = 0;
  std::uint64_t structure_misses_reported_ = 0;

  /// Observability handles, resolved once at construction (process-wide
  /// metrics; no-ops while the obs layer is disabled). Stage histograms
  /// record microseconds; counters accumulate across intervals.
  struct ObsHandles {
    obs::Histogram* total_us = nullptr;    ///< socialtrust.update.total_us
    obs::Histogram* collect_us = nullptr;  ///< socialtrust.update.collect_us
    obs::Histogram* tally_us = nullptr;    ///< socialtrust.update.tally_us
    obs::Histogram* coeff_us = nullptr;    ///< socialtrust.update.coeff_us
    obs::Histogram* baseline_us = nullptr;  ///< socialtrust.update.baseline_us
    obs::Histogram* adjust_us = nullptr;   ///< socialtrust.update.adjust_us
    obs::Counter* intervals = nullptr;     ///< socialtrust.intervals
    obs::Counter* ratings_seen = nullptr;  ///< socialtrust.ratings_seen
    obs::Counter* pairs_total = nullptr;   ///< socialtrust.pairs_total
    obs::Counter* pairs_flagged = nullptr;  ///< socialtrust.pairs_flagged
    obs::Counter* ratings_adjusted = nullptr;  ///< socialtrust.ratings_adjusted
    obs::Counter* walk_adjacent = nullptr;  ///< socialtrust.walk.adjacent
    obs::Counter* walk_fof = nullptr;       ///< socialtrust.walk.fof
    obs::Counter* walk_zero_side = nullptr;  ///< socialtrust.walk.zero_side
    obs::Gauge* cache_hit_rate = nullptr;  ///< social_cache.hit_rate_pct
  };
  ObsHandles obs_;
};

}  // namespace st::core
