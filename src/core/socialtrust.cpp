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
  if (config_.schedule == UpdateSchedule::kDirtyPairs) {
    rater_agg_.resize(inner_->size());
    hist_slots_.resize(inner_->size());
    social_cache_.enable_dirty_tracking();
  }
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
  obs_.loo_us = &registry.histogram("socialtrust.update.loo_us");
  obs_.adjust_us = &registry.histogram("socialtrust.update.adjust_us");
  obs_.intervals = &registry.counter("socialtrust.intervals");
  obs_.ratings_seen = &registry.counter("socialtrust.ratings_seen");
  obs_.pairs_total = &registry.counter("socialtrust.pairs_total");
  obs_.pairs_flagged = &registry.counter("socialtrust.pairs_flagged");
  obs_.ratings_adjusted = &registry.counter("socialtrust.ratings_adjusted");
  obs_.pairs_dirty = &registry.counter("socialtrust.pairs_dirty");
  obs_.pairs_carried = &registry.counter("socialtrust.pairs_carried");
  obs_.dirty_scan_us = &registry.histogram("socialtrust.dirty_scan_us");
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

double SocialTrustPlugin::closeness_cached(NodeId i, NodeId j) const {
  return social_cache_.closeness(closeness_model_, graph_, i, j);
}

double SocialTrustPlugin::similarity_of(NodeId i, NodeId j) const {
  return social_cache_.similarity(profiles_, i, j, config_.weighted_interests);
}

SocialTrustPlugin::LooAggregate SocialTrustPlugin::aggregate_over(
    NodeId rater, const std::vector<NodeId>& ratees, bool closeness) const {
  LooAggregate agg;
  for (NodeId j : ratees) {
    agg.add(closeness ? closeness_cached(rater, j) : similarity_of(rater, j));
  }
  return agg;
}

// --- update -----------------------------------------------------------------

void SocialTrustPlugin::update(std::span<const Rating> cycle_ratings) {
  // Stage timers (no-ops when st::obs is disabled). The four stage
  // spans cover: invalidate = the queued whitewash invalidations;
  // collect = pair tally + sort + coefficient collection + system
  // baseline; loo = per-rater leave-one-out aggregates; adjust =
  // detect-and-adjust + ordered reduction. Inside collect, tally (pass 1),
  // coeff (pass 3a) and baseline (pass 3b) time its sub-stages; the dirty
  // scan (pass 2b) has its own timer.
  obs::ScopedTimer total_timer(*obs_.total_us);

  // 0. Erase the cache entries of every identity forget_node discarded
  // since the last interval, in one pass and before begin_interval(), so
  // the eviction sweep never sees an entry the invalidation would erase.
  obs::ScopedTimer invalidate_timer(*obs_.invalidate_us);
  drain_invalidations();
  const double invalidate_us = invalidate_timer.stop();

  obs::ScopedTimer collect_timer(*obs_.collect_us);
  double collect_us = 0.0, loo_us = 0.0, adjust_us = 0.0;
  double tally_us = 0.0, coeff_us = 0.0, baseline_us = 0.0;

  // No cache wipe here: social_cache_ persists across intervals and
  // revalidates each entry against graph/profile revisions, so values
  // whose social neighbourhood is unchanged since the last interval are
  // served without redoing the BFS / friend-of-friend work. The interval
  // tick only runs the (default-off) idle-entry eviction sweep.
  social_cache_.begin_interval(config_.cache_evict_intervals);
  adjusted_.assign(cycle_ratings.begin(), cycle_ratings.end());
  report_ = AdjustmentReport{};
  dirty_stats_ = DirtyStats{};
  const bool dirty_mode = config_.schedule == UpdateSchedule::kDirtyPairs;

  // 1. Tally pairs and extend per-rater rating history (serial: mutates
  // rated_history_, which every later pass reads concurrently). Both
  // schedules produce the identical canonical view of the interval —
  // pair keys sorted by (rater, ratee), per-pair t+/t- tallies, and a
  // CSR of each pair's rating indices in stream order — they only build
  // it differently: the full walk hashes into a PairMap and sorts (the
  // oracle's straightforward shape), the dirty scheduler routes every
  // rating to its pair's stable slot with one small binary search in the
  // rater's sorted history and recovers the canonical order by walking
  // raters ascending — no hash map, no sort, no per-interval clearing
  // (slot scratch is stamp-gated by interval_seq_).
  obs::ScopedTimer tally_timer(*obs_.tally_us);
  std::vector<PairKey> keys;
  std::vector<double> tally_pos, tally_neg;
  std::vector<std::uint32_t> ridx_off;  // n_pairs + 1, CSR offsets
  std::vector<std::uint32_t> ridx;      // rating indices, stream order
  std::vector<std::uint32_t> active_slots;  // dirty mode: pair i's slot

  if (!dirty_mode) {
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
    std::vector<PairWork> work;
    work.reserve(pairs.size());
    // st-lint recognises this flatten-then-sort shape (the std::sort
    // below pins the order), so no suppression is needed.
    for (auto& [key, tally] : pairs) {
      work.push_back(PairWork{key, std::move(tally)});
    }
    std::sort(work.begin(), work.end(),
              [](const PairWork& a, const PairWork& b) {
                return a.key.rater != b.key.rater ? a.key.rater < b.key.rater
                                                  : a.key.ratee < b.key.ratee;
              });

    keys.reserve(work.size());
    tally_pos.reserve(work.size());
    tally_neg.reserve(work.size());
    ridx_off.reserve(work.size() + 1);
    ridx.reserve(adjusted_.size());
    ridx_off.push_back(0);
    for (const PairWork& w : work) {
      keys.push_back(w.key);
      tally_pos.push_back(w.tally.positive);
      tally_neg.push_back(w.tally.negative);
      for (std::size_t idx : w.tally.rating_indices) {
        ridx.push_back(static_cast<std::uint32_t>(idx));
      }
      ridx_off.push_back(static_cast<std::uint32_t>(ridx.size()));
    }
  } else {
    ++interval_seq_;
    // Pass A: route each rating to its pair's slot (assigning fresh
    // slots to first-ever pairs), stamp the slot into this interval, and
    // tally. rating_slot remembers the routing so the CSR fill below
    // does not repeat the binary search.
    std::vector<std::uint32_t> rating_slot(adjusted_.size(), kNoSlot);
    std::size_t active_count = 0;
    std::size_t valid_ratings = 0;
    for (std::size_t idx = 0; idx < adjusted_.size(); ++idx) {
      const Rating& r = adjusted_[idx];
      if (!reputation::valid_rating(r, inner_->size())) continue;
      auto& hist = rated_history_[r.rater];
      auto& slots = hist_slots_[r.rater];
      auto it = std::lower_bound(hist.begin(), hist.end(), r.ratee);
      const std::size_t pos = static_cast<std::size_t>(it - hist.begin());
      if (it == hist.end() || *it != r.ratee) {
        hist.insert(it, r.ratee);
        slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(pos),
                     new_slot());
        // The rater's carried leave-one-out aggregates cover a
        // population that just grew — rebuild them this interval.
        rater_agg_[r.rater].valid = false;
      }
      const std::uint32_t slot = slots[pos];
      rating_slot[idx] = slot;
      ++valid_ratings;
      if (slot_stamp_[slot] != interval_seq_) {
        slot_stamp_[slot] = interval_seq_;
        slot_pos_[slot] = 0.0;
        slot_neg_[slot] = 0.0;
        slot_ratings_[slot] = 0;
        ++active_count;
      }
      if (r.value > 0.0) {
        slot_pos_[slot] += 1.0;
      } else if (r.value < 0.0) {
        slot_neg_[slot] += 1.0;
      }
      ++slot_ratings_[slot];
    }

    // Pass B: recover the canonical (rater, ratee) order without
    // sorting — raters ascend, each history is already sorted by ratee,
    // and the stamp picks out exactly this interval's active pairs.
    keys.reserve(active_count);
    active_slots.reserve(active_count);
    tally_pos.reserve(active_count);
    tally_neg.reserve(active_count);
    ridx_off.reserve(active_count + 1);
    ridx_off.push_back(0);
    for (NodeId rater = 0; rater < rated_history_.size(); ++rater) {
      const auto& hist = rated_history_[rater];
      const auto& slots = hist_slots_[rater];
      for (std::size_t k = 0; k < hist.size(); ++k) {
        const std::uint32_t slot = slots[k];
        if (slot_stamp_[slot] != interval_seq_) continue;
        slot_active_idx_[slot] = static_cast<std::uint32_t>(keys.size());
        keys.push_back(PairKey{rater, hist[k]});
        active_slots.push_back(slot);
        tally_pos.push_back(slot_pos_[slot]);
        tally_neg.push_back(slot_neg_[slot]);
        ridx_off.push_back(ridx_off.back() + slot_ratings_[slot]);
      }
    }

    // Pass C: CSR fill in stream order (the same order the PairMap's
    // per-pair push_backs produce, so pass 4 touches ratings in
    // identical order under both schedules).
    ridx.resize(valid_ratings);
    std::vector<std::uint32_t> cursor(ridx_off.begin(), ridx_off.end() - 1);
    for (std::size_t idx = 0; idx < adjusted_.size(); ++idx) {
      const std::uint32_t slot = rating_slot[idx];
      if (slot == kNoSlot) continue;
      const std::uint32_t ai = slot_active_idx_[slot];
      ridx[cursor[ai]++] = static_cast<std::uint32_t>(idx);
    }
  }
  const std::size_t n_pairs = keys.size();
  report_.pairs_total = n_pairs;
  tally_us = tally_timer.stop();

  // 2. System-average per-pair frequency F for this interval.
  double total_count = 0.0;
  for (std::size_t i = 0; i < n_pairs; ++i)
    total_count += tally_pos[i] + tally_neg[i];
  double avg_freq =
      n_pairs == 0 ? 0.0 : total_count / static_cast<double>(n_pairs);

  // 2b. Dirty worklist derivation (dirty mode only): drain the cache's
  // invalidated-key report and apply it to the carried state. A dirty
  // closeness key (i,j) kills pair (i,j)'s coefficients and rater i's
  // aggregates (they sum closeness(i, *)); a dirty similarity key is
  // canonical, so it kills both directions and both endpoints' aggregates.
  if (dirty_mode) {
    obs::ScopedTimer scan_timer(*obs_.dirty_scan_us);
    const SocialStateCache::DirtyKeys dirty =
        social_cache_.collect_dirty(graph_, profiles_);
    auto kill_slot = [this](NodeId rater, NodeId ratee) {
      const std::uint32_t slot = slot_of(rater, ratee);
      if (slot != kNoSlot) slot_valid_[slot] = 0;
    };
    for (std::uint64_t key : dirty.closeness) {
      const NodeId rater = SocialStateCache::key_first(key);
      kill_slot(rater, SocialStateCache::key_second(key));
      if (rater < rater_agg_.size()) rater_agg_[rater].valid = false;
    }
    for (std::uint64_t key : dirty.similarity) {
      const NodeId lo = SocialStateCache::key_first(key);
      const NodeId hi = SocialStateCache::key_second(key);
      kill_slot(lo, hi);
      kill_slot(hi, lo);
      if (lo < rater_agg_.size()) rater_agg_[lo].valid = false;
      if (hi < rater_agg_.size()) rater_agg_[hi].valid = false;
    }
    dirty_stats_.scan_us = scan_timer.stop();
  }

  // 3a. Pair coefficients. Full walk: recompute every active pair
  // through the cache (parallel; each index writes only its own slot).
  // Dirty: clean slots carry their coefficients forward with one indexed
  // array read; only invalid slots go through the cache (blocked over
  // the ascending dirty-index list, so "block k" is the same work at
  // every thread count), and the recomputed coefficients are published
  // back to the slot arrays serially. Either way pair_c/pair_s hold the
  // exact values a full recompute yields — carried entries are
  // witness-clean by construction — so everything downstream is
  // schedule-independent.
  obs::ScopedTimer coeff_timer(*obs_.coeff_us);
  std::vector<double> pair_c(n_pairs), pair_s(n_pairs);
  if (!dirty_mode) {
    dirty_stats_.pairs_dirty = n_pairs;
    run_blocks(n_pairs, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        pair_c[i] = closeness_cached(keys[i].rater, keys[i].ratee);
        pair_s[i] = similarity_of(keys[i].rater, keys[i].ratee);
      }
    });
  } else {
    std::vector<std::size_t> dirty_idx;
    for (std::size_t i = 0; i < n_pairs; ++i) {
      const std::uint32_t slot = active_slots[i];
      if (slot_valid_[slot]) {
        pair_c[i] = slot_coeff_[slot].closeness;
        pair_s[i] = slot_coeff_[slot].similarity;
      } else {
        dirty_idx.push_back(i);
      }
    }
    run_blocks(dirty_idx.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        const std::size_t i = dirty_idx[k];
        pair_c[i] = closeness_cached(keys[i].rater, keys[i].ratee);
        pair_s[i] = similarity_of(keys[i].rater, keys[i].ratee);
      }
    });
    for (std::size_t i : dirty_idx) {
      const std::uint32_t slot = active_slots[i];
      slot_coeff_[slot] = PairCoeff{pair_c[i], pair_s[i]};
      slot_valid_[slot] = 1;
    }
    dirty_stats_.pairs_dirty = dirty_idx.size();
    dirty_stats_.pairs_carried = n_pairs - dirty_idx.size();
  }
  coeff_us = coeff_timer.stop();

  // 3b. Gaussian baseline statistics.
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

  obs::ScopedTimer loo_timer(*obs_.loo_us);
  // 3c. Per-rater aggregates over each rater's cumulative rated set
  // (parallel over distinct raters; each rater's multiset is built by one
  // thread, in rated_history_ order, so its contents are scheduling-free).
  const bool use_per_rater = config_.baseline != BaselineSource::kSystemWide;
  std::vector<NodeId> raters;  // sorted, unique (work is rater-sorted)
  std::vector<LooAggregate> rater_c_agg, rater_s_agg;
  if (use_per_rater) {
    raters.reserve(n_pairs);
    for (const PairKey& key : keys) {
      if (raters.empty() || raters.back() != key.rater)
        raters.push_back(key.rater);
    }
    if (!dirty_mode) {
      dirty_stats_.raters_rebuilt = raters.size();
      rater_c_agg.resize(raters.size());
      rater_s_agg.resize(raters.size());
      run_blocks(raters.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          rater_c_agg[i] = aggregate_over(raters[i], rated_history_[raters[i]],
                                          /*closeness=*/true);
          rater_s_agg[i] = aggregate_over(raters[i], rated_history_[raters[i]],
                                          /*closeness=*/false);
        }
      });
    } else {
      // Rebuild only invalidated raters; everyone else carries the exact
      // aggregate a rebuild would reproduce (same sorted history, same
      // coefficient bits — see RaterAggregates). Distinct raters write
      // disjoint slots, so the blocked pass stays race-free, and which
      // raters rebuild depends only on data, never on scheduling.
      std::size_t invalid = 0;
      for (NodeId r : raters) invalid += rater_agg_[r].valid ? 0 : 1;
      dirty_stats_.raters_rebuilt = invalid;
      dirty_stats_.raters_carried = raters.size() - invalid;
      run_blocks(raters.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          RaterAggregates& agg = rater_agg_[raters[i]];
          if (agg.valid) continue;
          agg.closeness = aggregate_over(raters[i], rated_history_[raters[i]],
                                         /*closeness=*/true);
          agg.similarity = aggregate_over(raters[i], rated_history_[raters[i]],
                                          /*closeness=*/false);
          agg.valid = true;
        }
      });
    }
  }
  loo_us = loo_timer.stop();

  obs::ScopedTimer adjust_timer(*obs_.adjust_us);
  // 4. Detect and adjust (parallel). A rating index belongs to exactly
  // one pair, so adjusted_ writes are disjoint; everything else lands in
  // the block's own partial.
  const std::size_t n_blocks = (n_pairs + kPairBlock - 1) / kPairBlock;
  std::vector<BlockPartial> partials(n_blocks);
  run_blocks(n_pairs, [&](std::size_t begin, std::size_t end) {
    BlockPartial& part = partials[begin / kPairBlock];
    for (std::size_t i = begin; i < end; ++i) {
      const PairKey key = keys[i];

      // Leave-one-out per-rater stats (Section 4.1's "other nodes it has
      // rated"), falling back to the system-wide empirical baseline.
      CoefficientStats c_stats = system_c;
      CoefficientStats s_stats = system_s;
      if (use_per_rater) {
        if (dirty_mode) {
          const RaterAggregates& agg = rater_agg_[key.rater];
          agg.closeness.without(pair_c[i], c_stats);
          agg.similarity.without(pair_s[i], s_stats);
        } else {
          const std::size_t ri = static_cast<std::size_t>(
              std::lower_bound(raters.begin(), raters.end(), key.rater) -
              raters.begin());
          rater_c_agg[ri].without(pair_c[i], c_stats);
          rater_s_agg[ri].without(pair_s[i], s_stats);
        }
      }

      PairEvidence evidence;
      evidence.positive_count = tally_pos[i];
      evidence.negative_count = tally_neg[i];
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
      for (std::uint32_t k = ridx_off[i]; k < ridx_off[i + 1]; ++k) {
        adjusted_[ridx[k]].value *= weight;
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

  // 5. Feed the adjusted stream to the wrapped system.
  inner_->update(adjusted_);

  // Observation only — nothing below feeds back into the adjustment, so
  // the bit-identity contract (DESIGN.md §11) is untouched by obs state.
  if (obs::enabled()) {
    const double total_us = total_timer.stop();
    // This interval's cache hit rate: delta of the cache's cumulative
    // per-instance totals since the last report.
    const SocialStateCache::StatsSnapshot cache_stats = social_cache_.stats();
    const std::uint64_t interval_hits = cache_stats.hits - cache_hits_reported_;
    const std::uint64_t interval_misses =
        cache_stats.misses - cache_misses_reported_;
    cache_hits_reported_ = cache_stats.hits;
    cache_misses_reported_ = cache_stats.misses;
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
    obs_.pairs_dirty->add(dirty_stats_.pairs_dirty);
    obs_.pairs_carried->add(dirty_stats_.pairs_carried);
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
        {"loo_us", loo_us},
        {"adjust_us", adjust_us},
        {"total_us", total_us},
        {"social_cache_entries", static_cast<double>(social_cache_.size())},
        {"social_cache_hit_rate_pct", hit_rate_pct},
        {"pairs_dirty", static_cast<double>(dirty_stats_.pairs_dirty)},
        {"pairs_carried", static_cast<double>(dirty_stats_.pairs_carried)},
        {"dirty_scan_us", dirty_stats_.scan_us},
        {"threads", static_cast<double>(effective_threads())},
    };
    obs::Obs::instance().emit_interval("socialtrust.update", name_, extras);
  }
}

void SocialTrustPlugin::forget_node(NodeId node) {
  inner_->forget_node(node);
  const bool dirty_mode = config_.schedule == UpdateSchedule::kDirtyPairs;
  if (node < rated_history_.size()) {
    // Carried coefficients naming the node describe the dead identity:
    // invalidate every slot the node rated through. The slot ids
    // themselves are retired with their history entries (a re-entering
    // identity earns fresh slots); retired ids are simply never reused —
    // a bounded leak proportional to whitewash volume, not interval
    // count. (The cache's erase log would also surface these pairs next
    // interval via the queued cache invalidation below; dropping them
    // here keeps the plugin's own state self-consistent without waiting
    // a cycle.)
    if (dirty_mode) {
      for (std::uint32_t slot : hist_slots_[node]) slot_valid_[slot] = 0;
      hist_slots_[node].clear();
    }
    rated_history_[node].clear();
  }
  // The discarded identity also disappears from other raters' histories —
  // and a shrunken history invalidates that rater's carried aggregates.
  for (std::size_t r = 0; r < rated_history_.size(); ++r) {
    auto& hist = rated_history_[r];
    auto it = std::lower_bound(hist.begin(), hist.end(), node);
    if (it != hist.end() && *it == node) {
      const std::size_t pos = static_cast<std::size_t>(it - hist.begin());
      hist.erase(it);
      if (dirty_mode) {
        auto& slots = hist_slots_[r];
        slot_valid_[slots[pos]] = 0;
        slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(pos));
      }
      if (r < rater_agg_.size()) rater_agg_[r].valid = false;
    }
  }
  if (node < rater_agg_.size()) rater_agg_[node] = RaterAggregates{};
  // Whitewashing hook: cached closeness/similarity mentioning the node is
  // stale the moment its new identity starts from a blank social record.
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
  // Queued forgets count and log their erasures before the wholesale drop,
  // exactly as the per-forget passes they stand for would have.
  drain_invalidations();
  social_cache_.clear();
  for (auto& slots : hist_slots_) slots.clear();
  slot_coeff_.clear();
  slot_valid_.clear();
  slot_stamp_.clear();
  slot_pos_.clear();
  slot_neg_.clear();
  slot_ratings_.clear();
  slot_active_idx_.clear();
  interval_seq_ = 0;
  for (auto& agg : rater_agg_) agg = RaterAggregates{};
  adjusted_.clear();
  report_ = AdjustmentReport{};
  dirty_stats_ = DirtyStats{};
}

std::uint32_t SocialTrustPlugin::new_slot() {
  const auto id = static_cast<std::uint32_t>(slot_coeff_.size());
  slot_coeff_.push_back(PairCoeff{});
  slot_valid_.push_back(0);
  slot_stamp_.push_back(0);
  slot_pos_.push_back(0.0);
  slot_neg_.push_back(0.0);
  slot_ratings_.push_back(0);
  slot_active_idx_.push_back(0);
  return id;
}

std::uint32_t SocialTrustPlugin::slot_of(NodeId rater,
                                         NodeId ratee) const noexcept {
  if (rater >= rated_history_.size()) return kNoSlot;
  const auto& hist = rated_history_[rater];
  const auto it = std::lower_bound(hist.begin(), hist.end(), ratee);
  if (it == hist.end() || *it != ratee) return kNoSlot;
  return hist_slots_[rater][static_cast<std::size_t>(it - hist.begin())];
}

}  // namespace st::core
