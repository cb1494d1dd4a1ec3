#include "core/socialtrust.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "reputation/ledger.hpp"

namespace st::core {

using reputation::NodeId;
using reputation::PairKey;
using reputation::Rating;

SocialTrustPlugin::SocialTrustPlugin(
    std::unique_ptr<reputation::ReputationSystem> inner,
    const graph::SocialGraph& graph, const InterestProfiles& profiles,
    SocialTrustConfig config)
    : inner_(std::move(inner)),
      graph_(graph),
      profiles_(profiles),
      config_(config),
      closeness_model_(config.weighted_relationships, config.lambda),
      detector_(config) {
  if (!inner_) throw std::invalid_argument("SocialTrustPlugin: null inner");
  if (graph_.size() < inner_->size() ||
      profiles_.node_count() < inner_->size()) {
    throw std::invalid_argument(
        "SocialTrustPlugin: graph/profiles smaller than reputation domain");
  }
  name_ = std::string(inner_->name()) + "+SocialTrust";
  rated_history_.resize(inner_->size());
  if (effective_threads() > 1) {
    pool_ = std::make_unique<util::ThreadPool>(effective_threads());
  }
  auto& registry = obs::Obs::instance().registry();
  obs_.total_us = &registry.histogram("socialtrust.update.total_us");
  obs_.collect_us = &registry.histogram("socialtrust.update.collect_us");
  obs_.tally_us = &registry.histogram("socialtrust.update.tally_us");
  obs_.coeff_us = &registry.histogram("socialtrust.update.coeff_us");
  obs_.baseline_us = &registry.histogram("socialtrust.update.baseline_us");
  obs_.adjust_us = &registry.histogram("socialtrust.update.adjust_us");
  obs_.intervals = &registry.counter("socialtrust.intervals");
  obs_.ratings_seen = &registry.counter("socialtrust.ratings_seen");
  obs_.pairs_total = &registry.counter("socialtrust.pairs_total");
  obs_.pairs_flagged = &registry.counter("socialtrust.pairs_flagged");
  obs_.ratings_adjusted = &registry.counter("socialtrust.ratings_adjusted");
  obs_.walk_adjacent = &registry.counter("socialtrust.walk.adjacent");
  obs_.walk_fof = &registry.counter("socialtrust.walk.fof");
  obs_.walk_zero_side = &registry.counter("socialtrust.walk.zero_side");
  obs_.cache_hit_rate = &registry.gauge("social_cache.hit_rate_pct");
}

std::size_t SocialTrustPlugin::effective_threads() const noexcept {
  if (config_.threads != 0) return config_.threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void SocialTrustPlugin::run_blocks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (pool_) {
    pool_->parallel_for(n, kPairBlock, fn);
    return;
  }
  for (std::size_t begin = 0; begin < n; begin += kPairBlock) {
    fn(begin, std::min(begin + kPairBlock, n));
  }
}

// --- LooAggregate -----------------------------------------------------------

void SocialTrustPlugin::LooAggregate::add(double v) noexcept {
  if (n == 0) {
    min1 = min2 = max1 = max2 = v;
  } else {
    if (v < min1) {
      min2 = min1;
      min1 = v;
    } else if (n == 1 || v < min2) {
      min2 = v;
    }
    if (v > max1) {
      max2 = max1;
      max1 = v;
    } else if (n == 1 || v > max2) {
      max2 = v;
    }
  }
  sum += v;
  sum_sq += v * v;
  ++n;
}

bool SocialTrustPlugin::LooAggregate::without(
    double v, CoefficientStats& out) const noexcept {
  if (n <= 1) return false;
  out.mean = (sum - v) / static_cast<double>(n - 1);
  out.min = (v == min1) ? min2 : min1;
  out.max = (v == max1) ? max2 : max1;
  out.stddev = population_stddev(sum - v, sum_sq - v * v, n - 1);
  return true;
}

CoefficientStats SocialTrustPlugin::LooAggregate::full() const noexcept {
  CoefficientStats out;
  if (n == 0) return out;
  out.mean = sum / static_cast<double>(n);
  out.min = min1;
  out.max = max1;
  out.stddev = population_stddev(sum, sum_sq, n);
  return out;
}

// --- update -----------------------------------------------------------------

void SocialTrustPlugin::update(std::span<const Rating> cycle_ratings) {
  // Stage timers (no-ops when st::obs is disabled). The two stage spans
  // cover: collect = pair grouping and tally + rater walk + system baseline;
  // adjust = detect-and-adjust + ordered reduction. Inside collect, tally
  // (pass 1), coeff (the rater walk, pass 3) and baseline (pass 4) time
  // its sub-stages.
  obs::ScopedTimer total_timer(*obs_.total_us);
  obs::ScopedTimer collect_timer(*obs_.collect_us);
  double collect_us = 0.0, adjust_us = 0.0;
  double tally_us = 0.0, coeff_us = 0.0, baseline_us = 0.0;

  // The cache's interval boundary: if a relationship changed since the
  // previous update() (whitewash re-wiring, say), the rows of the sources
  // the change can reach are released; every other stored path, and
  // every path this interval stores, is served without redoing the
  // bounded search.
  const SocialStateCache::Boundary boundary =
      social_cache_.open_interval(graph_);
  adjusted_.assign(cycle_ratings.begin(), cycle_ratings.end());
  report_ = AdjustmentReport{};

  // 1. Group the interval's ratings by pair, count each pair's t+/t-, and
  // extend per-rater rating history (serial: mutates rated_history_,
  // which every later pass reads concurrently). The pairs come in the
  // canonical (rater, ratee) order every pass iterates in, the order
  // blocks partition, and the order report_.flagged keeps, so "pair i"
  // means the same pair on every thread count. A rating index belongs to
  // exactly one pair's run, which makes the rescaling writes to adjusted_
  // in pass 5 disjoint.
  obs::ScopedTimer tally_timer(*obs_.tally_us);
  const reputation::PairRuns pairs =
      reputation::group_pairs(cycle_ratings, inner_->size());
  const std::size_t n_pairs = pairs.size();
  report_.pairs_total = n_pairs;
  // t+/t-: the detector's frequency inputs, kept as doubles because its
  // thresholds are fractional multiples of the system average F.
  std::vector<double> pair_pos(n_pairs, 0.0), pair_neg(n_pairs, 0.0);
  for (std::size_t i = 0; i < n_pairs; ++i) {
    for (std::uint32_t idx : pairs.run(i)) {
      if (cycle_ratings[idx].value > 0.0) {
        pair_pos[i] += 1.0;
      } else if (cycle_ratings[idx].value < 0.0) {
        pair_neg[i] += 1.0;
      }
    }
    const PairKey key = pairs.keys[i];
    auto& hist = rated_history_[key.rater];
    auto it = std::lower_bound(hist.begin(), hist.end(), key.ratee);
    if (it == hist.end() || *it != key.ratee) hist.insert(it, key.ratee);
  }
  tally_us = tally_timer.stop();

  // 2. System-average per-pair frequency F for this interval.
  double total_count = 0.0;
  for (std::size_t i = 0; i < n_pairs; ++i)
    total_count += pair_pos[i] + pair_neg[i];
  double avg_freq =
      n_pairs == 0 ? 0.0 : total_count / static_cast<double>(n_pairs);

  // 3. The rater walk: one pass per active rater over its sorted
  // cumulative rated set (parallel over raters; each rater is walked by
  // one thread and owns its aggregates and its run of pair slots, so
  // every write is scheduling-free). Each (rater, ratee) coefficient is
  // evaluated once. It enters the rater's leave-one-out aggregates in
  // rated_history_ order, and a merge against the rater's sorted run of
  // pairs stores it in the pair's slot when the ratee is active this
  // interval (pass 1 put every active ratee in the history).
  // kSystemWide reads no per-rater aggregate, so its walk visits only the
  // active ratees.
  obs::ScopedTimer coeff_timer(*obs_.coeff_us);
  const bool use_per_rater = config_.baseline != BaselineSource::kSystemWide;
  // rater_runs[r] .. rater_runs[r + 1] are the r-th active rater's pairs.
  std::vector<std::size_t> rater_runs;
  for (std::size_t i = 0; i < n_pairs; ++i) {
    if (i == 0 || pairs.keys[i].rater != pairs.keys[i - 1].rater) {
      rater_runs.push_back(i);
    }
  }
  const std::size_t n_raters = rater_runs.size();
  rater_runs.push_back(n_pairs);
  std::vector<double> pair_c(n_pairs), pair_s(n_pairs);
  std::vector<LooAggregate> rater_c_agg(use_per_rater ? n_raters : 0);
  std::vector<LooAggregate> rater_s_agg(use_per_rater ? n_raters : 0);
  run_blocks(n_raters, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      // The rater's side of Omega_c, opened once; each ratee below costs
      // only its own side. Omega_s is one pass over two profile rows; both
      // variants are symmetric term by term, so (rater, ratee) gives the
      // bits of either orientation.
      const NodeId rater = pairs.keys[rater_runs[r]].rater;
      SocialStateCache::Row closeness_row(social_cache_, closeness_model_,
                                          graph_, rater);
      const auto similarity = [&](NodeId ratee) {
        return config_.weighted_interests
                   ? profiles_.weighted_similarity(rater, ratee)
                   : profiles_.similarity(rater, ratee);
      };
      if (!use_per_rater) {
        for (std::size_t i = rater_runs[r]; i < rater_runs[r + 1]; ++i) {
          pair_c[i] = closeness_row.closeness(pairs.keys[i].ratee);
          pair_s[i] = similarity(pairs.keys[i].ratee);
        }
      } else {
        std::size_t next = rater_runs[r];  // the rater's next active pair
        for (NodeId ratee : rated_history_[rater]) {
          const double c = closeness_row.closeness(ratee);
          const double s = similarity(ratee);
          rater_c_agg[r].add(c);
          rater_s_agg[r].add(s);
          if (next < rater_runs[r + 1] && pairs.keys[next].ratee == ratee) {
            pair_c[next] = c;
            pair_s[next] = s;
            ++next;
          }
        }
      }
      if (obs::enabled()) {
        obs_.walk_adjacent->add(closeness_row.adjacent());
        obs_.walk_fof->add(closeness_row.fof());
        obs_.walk_zero_side->add(closeness_row.zero_side());
      }
    }
  });
  dirty_stats_ = DirtyStats{n_pairs, 0, use_per_rater ? n_raters : 0, 0};
  coeff_us = coeff_timer.stop();

  // 4. Gaussian baseline statistics.
  // System-wide aggregates over this interval's active pairs serve either
  // as the primary baseline (BaselineSource::kSystemWide — the paper's
  // "empirical" alternative), as the hybrid's second opinion, or as the
  // fallback when a rater's leave-one-out set is empty. They use robust
  // statistics (median centre, MAD-derived width): colluding pairs can be
  // a sizeable fraction of the interval's pairs, and with mean/stddev the
  // attack would inflate the baseline spread enough to exonerate itself.
  obs::ScopedTimer baseline_timer(*obs_.baseline_us);
  std::vector<double> sys_c_values = pair_c;
  std::vector<double> sys_s_values = pair_s;
  const CoefficientStats system_c = robust_stats(sys_c_values);
  const CoefficientStats system_s = robust_stats(sys_s_values);
  baseline_us = baseline_timer.stop();
  collect_us = collect_timer.stop();

  obs::ScopedTimer adjust_timer(*obs_.adjust_us);
  // 5. Detect and adjust (parallel). A rating index belongs to exactly
  // one pair, so adjusted_ writes are disjoint; everything else lands in
  // the block's own partial.
  const std::size_t n_blocks = (n_pairs + kPairBlock - 1) / kPairBlock;
  std::vector<BlockPartial> partials(n_blocks);
  run_blocks(n_pairs, [&](std::size_t begin, std::size_t end) {
    BlockPartial& part = partials[begin / kPairBlock];
    for (std::size_t i = begin; i < end; ++i) {
      const PairKey key = pairs.keys[i];

      // Leave-one-out per-rater stats (Section 4.1's "other nodes it has
      // rated"), falling back to the system-wide empirical baseline.
      CoefficientStats c_stats = system_c;
      CoefficientStats s_stats = system_s;
      if (use_per_rater) {
        const std::size_t r = static_cast<std::size_t>(
            std::upper_bound(rater_runs.begin(), rater_runs.end(), i) -
            rater_runs.begin() - 1);
        rater_c_agg[r].without(pair_c[i], c_stats);
        rater_s_agg[r].without(pair_s[i], s_stats);
      }

      PairEvidence evidence;
      evidence.positive_count = pair_pos[i];
      evidence.negative_count = pair_neg[i];
      evidence.closeness = pair_c[i];
      evidence.similarity = pair_s[i];
      evidence.ratee_reputation = inner_->reputation(key.ratee);
      evidence.rater_closeness = c_stats;

      Behavior behavior = detector_.classify(evidence, avg_freq);
      if (any(behavior & Behavior::kB1)) ++part.b1;
      if (any(behavior & Behavior::kB2)) ++part.b2;
      if (any(behavior & Behavior::kB3)) ++part.b3;
      if (any(behavior & Behavior::kB4)) ++part.b4;

      bool adjust = config_.gate_on_detector ? any(behavior) : true;
      if (!adjust) continue;
      if (any(behavior)) ++part.pairs_flagged;

      double weight =
          adjustment_weight(config_.components, pair_c[i], c_stats,
                            pair_s[i], s_stats, config_.alpha, config_.width);
      if (config_.baseline == BaselineSource::kHybrid) {
        // Hybrid: also evaluate against the system-wide baseline and keep
        // the stronger attenuation — robust to per-rater baselines that a
        // multi-conspirator colluder has poisoned with its own pairs.
        weight = std::min(
            weight, adjustment_weight(config_.components, pair_c[i],
                                      system_c, pair_s[i], system_s,
                                      config_.alpha, config_.width));
      }
      if (any(behavior)) {
        part.flagged.push_back(
            FlaggedPair{key.rater, key.ratee, behavior, weight});
      }
      for (std::uint32_t idx : pairs.run(i)) {
        adjusted_[idx].value *= weight;
        ++part.ratings_adjusted;
        part.weight_sum += weight;
      }
    }
  });

  // Reduce partials in block-index order: integer counters, the
  // floating-point weight sum (same summation tree for every worker
  // count), and the flagged list (blocks are contiguous ranges of the
  // sorted pair list, so concatenation stays key-ordered).
  double weight_sum = 0.0;
  for (const BlockPartial& part : partials) {
    report_.pairs_flagged += part.pairs_flagged;
    report_.ratings_adjusted += part.ratings_adjusted;
    report_.b1 += part.b1;
    report_.b2 += part.b2;
    report_.b3 += part.b3;
    report_.b4 += part.b4;
    weight_sum += part.weight_sum;
    report_.flagged.insert(report_.flagged.end(), part.flagged.begin(),
                           part.flagged.end());
  }
  report_.mean_weight = report_.ratings_adjusted > 0
                            ? weight_sum /
                                  static_cast<double>(report_.ratings_adjusted)
                            : 1.0;
  adjust_us = adjust_timer.stop();

  // 6. Feed the adjusted stream to the wrapped system.
  inner_->update(adjusted_);

  // Observation only — nothing below feeds back into the adjustment, so
  // the bit-identity contract (DESIGN.md §11) is untouched by obs state.
  if (obs::enabled()) {
    const double total_us = total_timer.stop();
    // This interval's path hit rate: delta of the cache's
    // cumulative per-instance totals since the last report.
    const SocialStateCache::StatsSnapshot cache_stats = social_cache_.stats();
    const std::uint64_t interval_hits =
        cache_stats.structure_hits - structure_hits_reported_;
    const std::uint64_t interval_misses =
        cache_stats.structure_misses - structure_misses_reported_;
    structure_hits_reported_ = cache_stats.structure_hits;
    structure_misses_reported_ = cache_stats.structure_misses;
    const std::uint64_t interval_lookups = interval_hits + interval_misses;
    const double hit_rate_pct =
        interval_lookups > 0 ? 100.0 * static_cast<double>(interval_hits) /
                                   static_cast<double>(interval_lookups)
                             : 0.0;
    obs_.cache_hit_rate->set(static_cast<std::int64_t>(hit_rate_pct));
    obs_.intervals->add(1);
    obs_.ratings_seen->add(cycle_ratings.size());
    obs_.pairs_total->add(report_.pairs_total);
    obs_.pairs_flagged->add(report_.pairs_flagged);
    obs_.ratings_adjusted->add(report_.ratings_adjusted);
    const obs::ExtraField extras[] = {
        {"pairs_total", static_cast<double>(report_.pairs_total)},
        {"pairs_flagged", static_cast<double>(report_.pairs_flagged)},
        {"ratings_adjusted", static_cast<double>(report_.ratings_adjusted)},
        {"b1", static_cast<double>(report_.b1)},
        {"b2", static_cast<double>(report_.b2)},
        {"b3", static_cast<double>(report_.b3)},
        {"b4", static_cast<double>(report_.b4)},
        {"mean_weight", report_.mean_weight},
        {"collect_us", collect_us},
        {"tally_us", tally_us},
        {"coeff_us", coeff_us},
        {"baseline_us", baseline_us},
        {"adjust_us", adjust_us},
        {"total_us", total_us},
        {"social_cache_entries", static_cast<double>(social_cache_.size())},
        {"social_cache_hit_rate_pct", hit_rate_pct},
        {"social_cache_changed_nodes",
         static_cast<double>(boundary.changed_nodes)},
        {"social_cache_released", static_cast<double>(boundary.released_rows)},
        {"threads", static_cast<double>(effective_threads())},
    };
    obs::Obs::instance().emit_interval("socialtrust.update", name_, extras);
  }
}

void SocialTrustPlugin::forget_node(NodeId node) {
  inner_->forget_node(node);
  if (node < rated_history_.size()) rated_history_[node].clear();
  // The discarded identity also disappears from other raters' histories.
  for (auto& hist : rated_history_) {
    auto it = std::lower_bound(hist.begin(), hist.end(), node);
    if (it != hist.end() && *it == node) hist.erase(it);
  }
  // The social cache is not touched: a cached path depends on the graph
  // alone. Simulator::whitewash follows with SocialGraph::clear_node,
  // which moves the structure epoch whenever the node had a relationship;
  // a node with none lies on no path.
}

void SocialTrustPlugin::reset() {
  inner_->reset();
  for (auto& hist : rated_history_) hist.clear();
  social_cache_.clear();
  adjusted_.clear();
  report_ = AdjustmentReport{};
  dirty_stats_ = DirtyStats{};
}

}  // namespace st::core
