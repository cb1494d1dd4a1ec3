#include "core/detector.hpp"

#include <algorithm>

namespace st::core {

BehaviorDetector::BehaviorDetector(const SocialTrustConfig& config) noexcept
    : config_(config) {
  auto& registry = obs::Obs::instance().registry();
  pairs_checked_ = &registry.counter("detector.pairs_checked");
  b1_flags_ = &registry.counter("detector.b1_flags");
  b2_flags_ = &registry.counter("detector.b2_flags");
  b3_flags_ = &registry.counter("detector.b3_flags");
  b4_flags_ = &registry.counter("detector.b4_flags");
}

double BehaviorDetector::positive_threshold(
    double mean_pair_frequency) const noexcept {
  return std::max(config_.positive_count_floor,
                  config_.theta * mean_pair_frequency);
}

double BehaviorDetector::negative_threshold(
    double mean_pair_frequency) const noexcept {
  return std::max(config_.negative_count_floor,
                  config_.theta * mean_pair_frequency);
}

Behavior BehaviorDetector::classify(
    const PairEvidence& e, double mean_pair_frequency) const noexcept {
  Behavior result = Behavior::kNone;

  // Adaptive closeness cut points: closeness is not normalised across
  // raters, so "very high"/"very low" is judged relative to the rater's
  // own average closeness to the nodes it rates.
  const double mean_c = e.rater_closeness.mean;
  const double high_c = mean_c * config_.closeness_high_factor;
  const double low_c = mean_c * config_.closeness_low_factor;

  if (e.positive_count > positive_threshold(mean_pair_frequency)) {
    // B1: frequent positive ratings across a weak social tie.
    if (e.closeness < low_c) result = result | Behavior::kB1;
    // B2: frequent positive ratings toward a low-reputed, very close node.
    if (e.closeness > high_c && e.ratee_reputation < config_.low_reputation)
      result = result | Behavior::kB2;
    // B3: frequent positive ratings despite few shared interests.
    if (e.similarity < config_.similarity_low) result = result | Behavior::kB3;
  }

  if (e.negative_count > negative_threshold(mean_pair_frequency)) {
    // B4: frequent negative ratings despite many shared interests —
    // the competitor-suppression pattern.
    if (e.similarity > config_.similarity_high)
      result = result | Behavior::kB4;
  }

  pairs_checked_->add(1);
  if (any(result & Behavior::kB1)) b1_flags_->add(1);
  if (any(result & Behavior::kB2)) b2_flags_->add(1);
  if (any(result & Behavior::kB3)) b3_flags_->add(1);
  if (any(result & Behavior::kB4)) b4_flags_->add(1);
  return result;
}

}  // namespace st::core
