#pragma once
// SocialTrust configuration: every threshold and variant knob from
// Section 4 of the paper in one aggregate, so experiments and ablations can
// be expressed as config deltas.

#include <cstddef>
#include <cstdint>

namespace st::core {

/// Which deviation terms enter the Gaussian exponent (Eqs. 6, 8, 9).
enum class AdjustmentComponents : std::uint8_t {
  kClosenessOnly,   ///< Eq. (6): social closeness deviation only
  kSimilarityOnly,  ///< Eq. (8): interest similarity deviation only
  kCombined,        ///< Eq. (9): both deviations summed (paper default)
};

/// How the Gaussian width c is derived from the baseline population.
/// Eq. (6) writes c = |max - min|, but the range statistic is fragile:
/// a single moderately-large closeness among the rater's other ratees
/// stretches c and caps the attenuation of a true outlier (the weight can
/// never drop below ~exp(-1/2) relative to the range). Using the standard
/// deviation of the same population gives the near-zero corner weights the
/// paper's Figure 6 depicts and its results require. kStdDev is therefore
/// the default; kRange implements the literal equation and is compared in
/// the ablation bench.
enum class GaussianWidth : std::uint8_t {
  kRange,   ///< c = |max - min| (Eq. 6 as printed)
  kStdDev,  ///< c = stddev of the baseline population (default)
};

/// Where the Gaussian centre/width statistics come from. The paper allows
/// either "the average social closeness of n_i to the nodes that n_i has
/// rated" or "the average Omega of a pair of transaction peers in the
/// system based on the empirical result" (Sections 4.1-4.2).
enum class BaselineSource : std::uint8_t {
  kPerRater,    ///< per-rater mean/min/max over the rater's rating history
  kSystemWide,  ///< global empirical mean/min/max over all rating pairs
  /// Both baselines, taking the stronger attenuation (minimum weight).
  /// The per-rater baseline alone is self-poisoned by colluders with many
  /// conspirators: a rater whose history is mostly colluding pairs makes
  /// "very close + zero-similarity" look normal for itself. The
  /// system-wide baseline alone is blind to legitimate per-rater
  /// idiosyncrasy. Taking the minimum weight is robust to both; this is
  /// the default.
  kHybrid,
};

/// How update() schedules the per-pair coefficient work across intervals
/// (DESIGN.md §14).
enum class UpdateSchedule : std::uint8_t {
  /// Recompute closeness/similarity for every active pair each interval.
  /// This is the exact-by-construction oracle the differential test
  /// harness compares the dirty scheduler against.
  kFullWalk,
  /// Carry clean pairs' coefficients and per-rater leave-one-out
  /// aggregates forward across intervals and recompute only the pairs
  /// whose cached social state was invalidated since the last interval.
  /// Bit-identical to kFullWalk at every thread count (the carried values
  /// are exactly what a recompute would return while their revision
  /// witnesses hold); only the cost differs. Default.
  kDirtyPairs,
};

struct SocialTrustConfig {
  // --- Gaussian filter (Eqs. 5-9) ---
  /// Peak height alpha; paper Section 5.1 sets alpha = 1.
  double alpha = 1.0;

  // --- Frequency thresholds (Section 4.3) ---
  /// Scaling factor theta > 1 over the system average rating frequency F:
  /// a pair is "high frequency" when it exceeds theta * F.
  double theta = 2.0;
  /// Absolute floors for the positive/negative per-pair per-cycle counts
  /// (T+_t and T-_t). The effective threshold is
  /// max(floor, theta * F) so tiny systems don't flag everything.
  double positive_count_floor = 3.0;
  double negative_count_floor = 3.0;

  // --- Reputation / closeness / similarity thresholds (Section 4.3) ---
  /// T_R: a ratee below this (normalised) reputation is "low-reputed" (B2).
  double low_reputation = 0.01;
  /// T_ch / T_cl: high/low closeness cut points, expressed as multiples of
  /// the rater's own mean closeness (adaptive, since closeness is not
  /// normalised across raters).
  double closeness_high_factor = 2.0;
  double closeness_low_factor = 0.5;
  /// T_sh / T_sl: absolute interest-similarity cut points in [0, 1].
  /// Defaults follow the Overstock empirical values quoted in Section 4.2
  /// (average pair similarity 0.423, minimum 0.13).
  double similarity_high = 0.7;
  double similarity_low = 0.45;

  // --- Variant selection ---
  AdjustmentComponents components = AdjustmentComponents::kCombined;
  BaselineSource baseline = BaselineSource::kHybrid;
  GaussianWidth width = GaussianWidth::kStdDev;
  /// When true, only ratings from pairs flagged by the B1-B4 detector are
  /// re-weighted (paper behaviour). When false the Gaussian applies to all
  /// ratings (ablation).
  bool gate_on_detector = true;
  /// Use the relationship-weighted closeness of Eq. (10) instead of the
  /// plain count of Eq. (2) (Section 4.4 hardening).
  bool weighted_relationships = true;
  /// Use the request-weighted interest similarity of Eq. (11) instead of
  /// the set overlap of Eq. (7) (Section 4.4 hardening).
  bool weighted_interests = true;
  /// Relationship scaling weight lambda in [0.5, 1] of Eq. (10).
  double lambda = 0.8;

  // --- Execution ---
  /// Worker threads for the per-interval adjustment passes (closeness/
  /// similarity baseline collection, per-rater leave-one-out aggregates,
  /// detect-and-adjust). 1 = serial (default), 0 = hardware concurrency,
  /// n > 1 = a pool of n workers. The result is bit-for-bit identical for
  /// every value: work is split into fixed-size pair blocks and reduced in
  /// block-index order regardless of the worker count.
  std::size_t threads = 1;

  /// Per-pair work scheduling across update intervals. kDirtyPairs (the
  /// default) maintains a persistent dirty-pair worklist — pairs with new
  /// ratings plus pairs whose cached closeness/similarity witnesses were
  /// invalidated by graph/profile revision bumps — and carries every
  /// clean pair forward; kFullWalk recomputes every active pair and
  /// serves as the differential-test oracle. Outputs are bit-identical
  /// either way (tests/incremental_state_test.cpp pins this).
  UpdateSchedule schedule = UpdateSchedule::kDirtyPairs;

  /// Generation-based eviction for the social-state cache's value layer
  /// (closeness/similarity memos). 0 (default) = never evict; n > 0 =
  /// at the top of each update interval, drop value entries no lookup
  /// has touched for more than n consecutive intervals. Structure
  /// entries (common-friend sets, BFS paths) are never swept. Purely a
  /// memory/recompute trade on long runs: an evicted entry is recomputed
  /// through the identical code path, so results are bit-for-bit
  /// unchanged at any setting.
  std::size_t cache_evict_intervals = 0;
};

}  // namespace st::core
