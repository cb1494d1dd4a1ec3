#pragma once
// Suspicious-collusion-behaviour detector — the B1-B4 patterns identified
// from the Overstock trace (Section 3) with the threshold logic of
// Section 4.3.
//
//   B1: high-frequency positive ratings across a *long* social distance
//       (low closeness).
//   B2: high-frequency positive ratings toward a *low-reputed* but
//       socially very close node.
//   B3: high-frequency positive ratings between nodes sharing *few*
//       interests.
//   B4: high-frequency *negative* ratings between nodes sharing *many*
//       interests (competitor bad-mouthing).
//
// A pair is investigated only when its per-interval rating count exceeds
// the frequency threshold max(count_floor, theta * F), where F is the
// system-average per-pair rating frequency of the interval — "SocialTrust
// uses theta*F (theta > 1) as the threshold to determine whether the
// rating frequency is high" (Section 4.1).

#include <cstdint>

#include "core/config.hpp"
#include "core/gaussian_filter.hpp"
#include "obs/obs.hpp"

namespace st::core {

/// Bitmask of matched suspicious behaviours.
enum class Behavior : std::uint8_t {
  kNone = 0,
  kB1 = 1U << 0U,
  kB2 = 1U << 1U,
  kB3 = 1U << 2U,
  kB4 = 1U << 3U,
};

constexpr Behavior operator|(Behavior a, Behavior b) noexcept {
  return static_cast<Behavior>(static_cast<std::uint8_t>(a) |
                               static_cast<std::uint8_t>(b));
}
constexpr Behavior operator&(Behavior a, Behavior b) noexcept {
  return static_cast<Behavior>(static_cast<std::uint8_t>(a) &
                               static_cast<std::uint8_t>(b));
}
constexpr bool any(Behavior b) noexcept {
  return b != Behavior::kNone;
}

/// Everything the detector needs to know about one directed rating pair
/// within one update interval.
struct PairEvidence {
  double positive_count = 0.0;   ///< t+(i,j) this interval
  double negative_count = 0.0;   ///< t-(i,j) this interval
  double closeness = 0.0;        ///< Omega_c(i,j)
  double similarity = 0.0;       ///< Omega_s(i,j)
  double ratee_reputation = 0.0; ///< normalised global reputation of j
  /// The rater's own closeness statistics (centre of its Gaussian); the
  /// adaptive closeness thresholds scale off this mean.
  CoefficientStats rater_closeness;
};

class BehaviorDetector {
 public:
  explicit BehaviorDetector(const SocialTrustConfig& config) noexcept;

  /// Effective high-frequency threshold for this interval given the
  /// system-average pair frequency F.
  double positive_threshold(double mean_pair_frequency) const noexcept;
  double negative_threshold(double mean_pair_frequency) const noexcept;

  /// Classifies one pair. `mean_pair_frequency` is the interval's F.
  Behavior classify(const PairEvidence& evidence,
                    double mean_pair_frequency) const noexcept;

 private:
  SocialTrustConfig config_;

  // Observability handles: every classify() call bumps pairs_checked_,
  // and each matched pattern bumps its flag counter — `detector.b1_flags`
  // … `detector.b4_flags` are the per-behaviour hit rates the evaluation
  // figures cannot show (process-wide relaxed-atomic counters, no-ops
  // while the obs layer is disabled; see docs/OBSERVABILITY.md).
  obs::Counter* pairs_checked_ = nullptr;
  obs::Counter* b1_flags_ = nullptr;
  obs::Counter* b2_flags_ = nullptr;
  obs::Counter* b3_flags_ = nullptr;
  obs::Counter* b4_flags_ = nullptr;
};

}  // namespace st::core
