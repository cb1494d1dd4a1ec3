#pragma once
// The Gaussian reputation filter of Eqs. (5), (6), (8), (9).
//
// A rating r(i,j) is rescaled by
//     w = alpha * exp( -(x - b)^2 / (2 c^2) )
// where x is the rater's closeness/similarity to the ratee, b the rater's
// "normal" value of that coefficient over the *other* nodes it has rated,
// and c a width statistic of the same population (range per the literal
// Eq. 6, standard deviation by default — see GaussianWidth in config.hpp).
// Ratings between pairs whose coefficients sit far from the rater's norm
// are exponentially attenuated; pairs near the norm keep (almost) full
// weight.

#include <vector>

#include "core/config.hpp"

namespace st::core {

/// Centre/width statistics of one coefficient for one rater (or the whole
/// system, depending on BaselineSource).
struct CoefficientStats {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;

  /// The Gaussian width c under the chosen mode.
  double width(GaussianWidth mode) const noexcept {
    if (mode == GaussianWidth::kStdDev) return stddev;
    return max > min ? max - min : min - max;
  }
};

/// One-dimensional weight of Eq. (6)/(8): alpha * exp(-(x-b)^2 / (2 c^2)).
/// A degenerate width (c == 0, e.g. a rater who has rated only one other
/// node) yields weight alpha when x == mean and alpha * exp(-1/2)
/// otherwise — the limit of treating the unknown width as |x - mean|.
double gaussian_weight(double x, const CoefficientStats& stats, double alpha,
                       GaussianWidth mode = GaussianWidth::kStdDev) noexcept;

/// Two-dimensional weight of Eq. (9): the exponents of both coefficients
/// add inside a single exponential.
double gaussian_weight2(double closeness, const CoefficientStats& c_stats,
                        double similarity, const CoefficientStats& s_stats,
                        double alpha,
                        GaussianWidth mode = GaussianWidth::kStdDev) noexcept;

/// Dispatches on the configured components: Eq. (6), Eq. (8) or Eq. (9).
double adjustment_weight(AdjustmentComponents components, double closeness,
                         const CoefficientStats& c_stats, double similarity,
                         const CoefficientStats& s_stats, double alpha,
                         GaussianWidth mode = GaussianWidth::kStdDev) noexcept;

/// Population standard deviation from running sums (sum, sum of squares,
/// count); 0 for an empty or degenerate population.
double population_stddev(double sum, double sum_sq, std::size_t n) noexcept;

/// Median/MAD-based CoefficientStats — the system-wide baseline of the
/// detect-and-adjust pass. `values` is consumed (permuted in place by the
/// nth_element selections). The width is the normal-consistent
/// 1.4826 * MAD; when the MAD degenerates to zero (over half the values
/// identical) it falls back to the population stddev so genuinely spread
/// data still gets a width. The stddev fallback sums in input order, so
/// the result is reproducible only for an identically ordered input (the
/// plugin passes its coefficients in canonical pair order).
CoefficientStats robust_stats(std::vector<double>& values);

}  // namespace st::core
