#include "core/socialtrust.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

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
  obs_.invalidate_us = &registry.histogram("socialtrust.update.invalidate_us");
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

// --- helpers ----------------------------------------------------------------

double SocialTrustPlugin::closeness_of(NodeId i, NodeId j) const {
  return social_cache_.closeness(closeness_model_, graph_, i, j);
}

double SocialTrustPlugin::similarity_of(NodeId i, NodeId j) const {
  // Every similarity variant is symmetric term by term (ascending merge of
  // the two interest sets, min()/count per term), so the canonical
  // (min, max) orientation is bit-identical to either asked-for one.
  const NodeId lo = std::min(i, j);
  const NodeId hi = std::max(i, j);
  return config_.weighted_interests ? profiles_.weighted_similarity(lo, hi)
                                    : profiles_.similarity(lo, hi);
}

// --- update -----------------------------------------------------------------

void SocialTrustPlugin::update(std::span<const Rating> cycle_ratings) {
  // Stage timers (no-ops when st::obs is disabled). The three stage
  // spans cover: invalidate = the queued whitewash invalidations;
  // collect = pair tally + sort + rater walk + system baseline; adjust =
  // detect-and-adjust + ordered reduction. Inside collect, tally (pass 1),
  // coeff (the rater walk, pass 3) and baseline (pass 4) time its
  // sub-stages.
  obs::ScopedTimer total_timer(*obs_.total_us);

  // 0. Erase the cache entries of every identity forget_node discarded
  // since the last interval, in one pass before any lookup.
  obs::ScopedTimer invalidate_timer(*obs_.invalidate_us);
  drain_invalidations();
  const double invalidate_us = invalidate_timer.stop();

  obs::ScopedTimer collect_timer(*obs_.collect_us);
  double collect_us = 0.0, adjust_us = 0.0;
  double tally_us = 0.0, coeff_us = 0.0, baseline_us = 0.0;

  // No cache wipe here: social_cache_ persists across intervals and
  // revalidates each entry against graph structure revisions, so common
  // sets and paths whose topology is unchanged since the last interval are
  // served without redoing the BFS / friend-of-friend work.
  adjusted_.assign(cycle_ratings.begin(), cycle_ratings.end());
  report_ = AdjustmentReport{};

  // 1. Tally pairs and extend per-rater rating history (serial: mutates
  // rated_history_, which every later pass reads concurrently).
  obs::ScopedTimer tally_timer(*obs_.tally_us);
  std::vector<PairWork> work;
  {
    PairMap pairs;
    for (std::size_t idx = 0; idx < adjusted_.size(); ++idx) {
      const Rating& r = adjusted_[idx];
      if (!reputation::valid_rating(r, inner_->size())) continue;
      PairTally& tally = pairs[PairKey{r.rater, r.ratee}];
      if (r.value > 0.0) {
        tally.positive += 1.0;
      } else if (r.value < 0.0) {
        tally.negative += 1.0;
      }
      tally.rating_indices.push_back(idx);

      auto& hist = rated_history_[r.rater];
      auto it = std::lower_bound(hist.begin(), hist.end(), r.ratee);
      if (it == hist.end() || *it != r.ratee) {
        hist.insert(it, r.ratee);
      }
    }

    // Flatten to the canonical (rater, ratee) order. Hash-map iteration
    // order is an implementation accident; sorting pins down every
    // floating-point accumulation below and keeps report_.flagged
    // ordered by pair key, independent of the worker count.
    work.reserve(pairs.size());
    // st-lint recognises this flatten-then-sort shape (the std::sort
    // below pins the order), so no suppression is needed.
    for (auto& [key, tally] : pairs) {
      work.push_back(PairWork{key, std::move(tally)});
    }
  }
  std::sort(work.begin(), work.end(),
            [](const PairWork& a, const PairWork& b) {
              return a.key.rater != b.key.rater ? a.key.rater < b.key.rater
                                                : a.key.ratee < b.key.ratee;
            });
  const std::size_t n_pairs = work.size();
  report_.pairs_total = n_pairs;
  tally_us = tally_timer.stop();

  // 2. System-average per-pair frequency F for this interval.
  double total_count = 0.0;
  for (const PairWork& w : work)
    total_count += w.tally.positive + w.tally.negative;
  double avg_freq =
      n_pairs == 0 ? 0.0 : total_count / static_cast<double>(n_pairs);

  // 3. The rater walk: one pass per active rater over its sorted
  // cumulative rated set (parallel over raters; each rater is walked by
  // one thread and owns its aggregates and its run of pair slots, so
  // every write is scheduling-free). Each (rater, ratee) coefficient is
  // evaluated once. It enters the rater's leave-one-out aggregates in
  // rated_history_ order, and a merge against the rater's sorted run of
  // `work` stores it in the pair's slot when the ratee is active this
  // interval (pass 1 put every active ratee in the history).
  // kSystemWide reads no per-rater aggregate, so its walk visits only the
  // active ratees.
  obs::ScopedTimer coeff_timer(*obs_.coeff_us);
  const bool use_per_rater = config_.baseline != BaselineSource::kSystemWide;
  // runs[r] .. runs[r + 1] is the r-th active rater's run of `work`.
  std::vector<std::size_t> runs;
  for (std::size_t i = 0; i < n_pairs; ++i) {
    if (i == 0 || work[i].key.rater != work[i - 1].key.rater) runs.push_back(i);
  }
  const std::size_t n_raters = runs.size();
  runs.push_back(n_pairs);
  std::vector<double> pair_c(n_pairs), pair_s(n_pairs);
  std::vector<LooAggregate> rater_c_agg(use_per_rater ? n_raters : 0);
  std::vector<LooAggregate> rater_s_agg(use_per_rater ? n_raters : 0);
  run_blocks(n_raters, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const NodeId rater = work[runs[r]].key.rater;
      if (!use_per_rater) {
        for (std::size_t i = runs[r]; i < runs[r + 1]; ++i) {
          pair_c[i] = closeness_of(rater, work[i].key.ratee);
          pair_s[i] = similarity_of(rater, work[i].key.ratee);
        }
        continue;
      }
      std::size_t next = runs[r];  // the rater's next active pair
      for (NodeId ratee : rated_history_[rater]) {
        const double c = closeness_of(rater, ratee);
        const double s = similarity_of(rater, ratee);
        rater_c_agg[r].add(c);
        rater_s_agg[r].add(s);
        if (next < runs[r + 1] && work[next].key.ratee == ratee) {
          pair_c[next] = c;
          pair_s[next] = s;
          ++next;
        }
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
      const PairKey key = work[i].key;

      // Leave-one-out per-rater stats (Section 4.1's "other nodes it has
      // rated"), falling back to the system-wide empirical baseline.
      CoefficientStats c_stats = system_c;
      CoefficientStats s_stats = system_s;
      if (use_per_rater) {
        const std::size_t r = static_cast<std::size_t>(
            std::upper_bound(runs.begin(), runs.end(), i) - runs.begin() - 1);
        rater_c_agg[r].without(pair_c[i], c_stats);
        rater_s_agg[r].without(pair_s[i], s_stats);
      }

      PairEvidence evidence;
      evidence.positive_count = work[i].tally.positive;
      evidence.negative_count = work[i].tally.negative;
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
      for (std::size_t idx : work[i].tally.rating_indices) {
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
    // This interval's structure-layer hit rate: delta of the cache's
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
        {"invalidate_us", invalidate_us},
        {"collect_us", collect_us},
        {"tally_us", tally_us},
        {"coeff_us", coeff_us},
        {"baseline_us", baseline_us},
        {"adjust_us", adjust_us},
        {"total_us", total_us},
        {"social_cache_entries", static_cast<double>(social_cache_.size())},
        {"social_cache_hit_rate_pct", hit_rate_pct},
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
  // Whitewashing hook: cached common sets and paths mentioning the node
  // are stale the moment its new identity starts from a blank social
  // record.
  // Only queued here: one invalidate_nodes() pass erases them before
  // anything next reads the cache (update(), social_cache(), reset()).
  // Nothing looks entries up or stores them in between, so the batch
  // erases exactly what one pass per forget would. Draining early once
  // the queue holds more entries than there are ids is just as exact, and
  // bounds the queue for callers that never call update().
  forgotten_.push_back(node);
  if (forgotten_.size() > inner_->size()) drain_invalidations();
}

void SocialTrustPlugin::drain_invalidations() const {
  if (forgotten_.empty()) return;
  social_cache_.invalidate_nodes(forgotten_);
  forgotten_.clear();
}

void SocialTrustPlugin::reset() {
  inner_->reset();
  for (auto& hist : rated_history_) hist.clear();
  // Queued forgets count their erasures before the wholesale drop,
  // exactly as the per-forget passes they stand for would have.
  drain_invalidations();
  social_cache_.clear();
  adjusted_.clear();
  report_ = AdjustmentReport{};
  dirty_stats_ = DirtyStats{};
}

}  // namespace st::core
