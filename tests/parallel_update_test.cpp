// Parallel-vs-serial equivalence suite: SocialTrustConfig::threads is a
// pure performance knob. Identical rating streams — the no-collusion
// baseline and the PCM/MCM/MMM generators — must yield bit-identical
// adjusted ratings, AdjustmentReports, flagged-pair sets, and downstream
// inner reputations for every worker count. The whole simulation is
// deterministic given a seed, so two runs that differ only in `threads`
// diverge if and only if the parallel refactor changed semantics; any
// divergence compounds through server selection and would show up in the
// final state compared here.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "collusion/models.hpp"
#include "core/socialtrust.hpp"
#include "obs/obs.hpp"
#include "reputation/paper_eigentrust.hpp"
#include "sim/simulator.hpp"

namespace st {
namespace {

using core::SocialTrustPlugin;
using reputation::Rating;

/// Bit-level double equality: distinguishes +0/-0 and catches last-ulp
/// drift that EXPECT_DOUBLE_EQ's 4-ulp tolerance would wave through.
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bit patterns differ)";
}

struct PluginCapture {
  SocialTrustPlugin* plugin = nullptr;
};

/// Factory that remembers the plugin it built so the test can inspect the
/// last interval's internals after Simulator::run().
sim::SystemFactory capture_factory(core::SocialTrustConfig cfg,
                                   PluginCapture& capture) {
  return [cfg, &capture](const graph::SocialGraph& graph,
                         const core::InterestProfiles& profiles,
                         const std::vector<sim::NodeId>& pretrusted,
                         std::size_t n) {
    auto inner = std::make_unique<reputation::PaperEigenTrust>(
        n, pretrusted, reputation::PaperEigenTrustConfig{});
    auto plugin = std::make_unique<SocialTrustPlugin>(std::move(inner), graph,
                                                      profiles, cfg);
    capture.plugin = plugin.get();
    return plugin;
  };
}

/// Scaled-down Section 5.1 network: big enough for all three collusion
/// models (16 colluders > boosted_count 7) and for multi-block pair lists,
/// small enough that the 4-model x 4-thread-count x 5-seed sweep stays
/// fast.
sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.node_count = 72;
  cfg.pretrusted_count = 5;
  cfg.colluder_count = 16;
  cfg.query_cycles_per_cycle = 8;
  cfg.simulation_cycles = 3;
  return cfg;
}

std::unique_ptr<sim::CollusionStrategy> make_strategy(
    const std::string& model) {
  collusion::CollusionOptions options;
  if (model == "none") return nullptr;
  if (model == "PCM")
    return std::make_unique<collusion::PairwiseCollusion>(options);
  if (model == "MCM")
    return std::make_unique<collusion::MultiNodeCollusion>(options);
  return std::make_unique<collusion::MutualMultiNodeCollusion>(options);
}

struct Snapshot {
  std::vector<Rating> adjusted;
  core::AdjustmentReport report;
  std::vector<double> reputations;
};

Snapshot run_once(const std::string& model, std::uint64_t seed,
                  std::size_t threads,
                  core::SocialTrustConfig cfg = core::SocialTrustConfig{}) {
  cfg.threads = threads;
  PluginCapture capture;
  sim::Simulator simulator(small_config(), capture_factory(cfg, capture),
                           make_strategy(model), seed);
  simulator.run();
  Snapshot snap;
  auto adjusted = capture.plugin->last_adjusted();
  snap.adjusted.assign(adjusted.begin(), adjusted.end());
  snap.report = capture.plugin->last_report();
  auto reps = capture.plugin->reputations();
  snap.reputations.assign(reps.begin(), reps.end());
  return snap;
}

void expect_identical(const Snapshot& serial, const Snapshot& parallel,
                      const std::string& label) {
  SCOPED_TRACE(label);

  // Adjusted rating stream of the last interval, value-bit-exact.
  ASSERT_EQ(serial.adjusted.size(), parallel.adjusted.size());
  for (std::size_t i = 0; i < serial.adjusted.size(); ++i) {
    EXPECT_EQ(serial.adjusted[i].rater, parallel.adjusted[i].rater) << i;
    EXPECT_EQ(serial.adjusted[i].ratee, parallel.adjusted[i].ratee) << i;
    EXPECT_TRUE(bits_equal(serial.adjusted[i].value,
                           parallel.adjusted[i].value))
        << "rating " << i;
  }

  // Report counters and the order-sensitive mean weight.
  const core::AdjustmentReport& a = serial.report;
  const core::AdjustmentReport& b = parallel.report;
  EXPECT_EQ(a.pairs_total, b.pairs_total);
  EXPECT_EQ(a.pairs_flagged, b.pairs_flagged);
  EXPECT_EQ(a.ratings_adjusted, b.ratings_adjusted);
  EXPECT_EQ(a.b1, b.b1);
  EXPECT_EQ(a.b2, b.b2);
  EXPECT_EQ(a.b3, b.b3);
  EXPECT_EQ(a.b4, b.b4);
  EXPECT_TRUE(bits_equal(a.mean_weight, b.mean_weight)) << "mean_weight";

  // Flagged pairs: same set, same order, same weights.
  ASSERT_EQ(a.flagged.size(), b.flagged.size());
  for (std::size_t i = 0; i < a.flagged.size(); ++i) {
    EXPECT_EQ(a.flagged[i].rater, b.flagged[i].rater) << i;
    EXPECT_EQ(a.flagged[i].ratee, b.flagged[i].ratee) << i;
    EXPECT_EQ(a.flagged[i].behavior, b.flagged[i].behavior) << i;
    EXPECT_TRUE(bits_equal(a.flagged[i].weight, b.flagged[i].weight)) << i;
  }

  // Downstream reputations of the wrapped system — the end-to-end check:
  // any earlier-interval divergence compounds into these.
  ASSERT_EQ(serial.reputations.size(), parallel.reputations.size());
  for (std::size_t v = 0; v < serial.reputations.size(); ++v) {
    EXPECT_TRUE(bits_equal(serial.reputations[v], parallel.reputations[v]))
        << "node " << v;
  }
}

class ParallelEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelEquivalence, BitIdenticalAcrossThreadCounts) {
  const std::string model = GetParam();
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL, 55ULL}) {
    Snapshot serial = run_once(model, seed, 1);
    for (std::size_t threads : {2UL, 4UL, 8UL}) {
      Snapshot parallel = run_once(model, seed, threads);
      expect_identical(serial, parallel,
                       model + " seed=" + std::to_string(seed) +
                           " threads=" + std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CollusionModels, ParallelEquivalence,
                         ::testing::Values("none", "PCM", "MCM", "MMM"));

TEST(ParallelEquivalenceConfig, HoldsAcrossBaselineAndComponentVariants) {
  // The per-rater / system-wide / hybrid baselines and the three component
  // selections exercise different branches of the detect-and-adjust pass;
  // each must stay a pure refactor too. One attack model and seed suffice
  // — the branch selection is config-, not stream-, dependent.
  for (auto baseline :
       {core::BaselineSource::kPerRater, core::BaselineSource::kSystemWide,
        core::BaselineSource::kHybrid}) {
    for (auto components : {core::AdjustmentComponents::kClosenessOnly,
                            core::AdjustmentComponents::kSimilarityOnly,
                            core::AdjustmentComponents::kCombined}) {
      core::SocialTrustConfig cfg;
      cfg.baseline = baseline;
      cfg.components = components;
      Snapshot serial = run_once("PCM", 7, 1, cfg);
      Snapshot parallel = run_once("PCM", 7, 4, cfg);
      expect_identical(serial, parallel,
                       "baseline=" + std::to_string(int(baseline)) +
                           " components=" + std::to_string(int(components)));
    }
  }
}

TEST(ParallelEquivalenceConfig, FlaggedPairsOrderedByPairKey) {
  Snapshot snap = run_once("MMM", 99, 4);
  for (std::size_t i = 1; i < snap.report.flagged.size(); ++i) {
    const auto& prev = snap.report.flagged[i - 1];
    const auto& cur = snap.report.flagged[i];
    EXPECT_TRUE(prev.rater < cur.rater ||
                (prev.rater == cur.rater && prev.ratee < cur.ratee))
        << "flagged[" << i << "] out of order";
  }
}

TEST(ParallelEquivalenceConfig, ZeroThreadsResolvesToHardware) {
  core::SocialTrustConfig cfg;
  Snapshot serial = run_once("PCM", 5, 1, cfg);
  Snapshot hw = run_once("PCM", 5, 0, cfg);  // hardware concurrency
  expect_identical(serial, hw, "threads=0");
}

TEST(ParallelEquivalenceConfig, InstrumentationPreservesBitIdentity) {
  // The obs layer (src/obs/) is observation-only: running the identical
  // simulation with instrumentation off and on — serial and parallel —
  // must produce bit-identical adjusted ratings, reports, flagged sets,
  // and reputations. This is the determinism half of the obs overhead
  // contract (docs/OBSERVABILITY.md); bench_parallel_update --obs checks
  // the same property at P2P scale.
  obs::Obs::instance().configure({});  // baseline: disabled
  Snapshot off_serial = run_once("MMM", 17, 1);
  Snapshot off_parallel = run_once("MMM", 17, 4);

  obs::StObsConfig cfg;
  cfg.enabled = true;  // in-memory metrics + snapshots, no file
  obs::Obs::instance().configure(cfg);
  Snapshot on_serial = run_once("MMM", 17, 1);
  Snapshot on_parallel = run_once("MMM", 17, 4);
  // The instrumented runs must actually have recorded something, or this
  // test would vacuously compare two disabled runs.
  EXPECT_GT(obs::Obs::instance().snapshot_count(), 0U);
  auto& registry = obs::Obs::instance().registry();
  const std::uint64_t intervals =
      registry.counter("socialtrust.intervals").value();
  EXPECT_GT(intervals, 0U);
  // collect_us encloses its sub-stage timers: each records one sample per
  // interval, and per interval they add up to no more than collect_us.
  // The whitewash drain (invalidate_us) records one sample per interval
  // too, even when nothing was forgotten, and sits beside the top-level
  // stages inside total_us.
  for (const char* stage :
       {"socialtrust.update.invalidate_us", "socialtrust.update.tally_us",
        "socialtrust.update.coeff_us", "socialtrust.update.baseline_us"}) {
    EXPECT_EQ(registry.histogram(stage).count(), intervals) << stage;
  }
  for (const obs::Snapshot& snap : obs::Obs::instance().snapshots()) {
    if (snap.scope != "socialtrust.update") continue;
    auto extra = [&snap](const std::string& name) {
      for (const auto& [key, value] : snap.extras) {
        if (key == name) return value;
      }
      ADD_FAILURE() << "socialtrust.update lacks " << name;
      return 0.0;
    };
    EXPECT_LE(extra("tally_us") + extra("coeff_us") + extra("baseline_us"),
              extra("collect_us") + 1e-6)
        << "interval " << snap.sequence;
    EXPECT_LE(extra("invalidate_us") + extra("collect_us") + extra("adjust_us"),
              extra("total_us") + 1e-6)
        << "interval " << snap.sequence;
  }
  obs::Obs::instance().configure({});  // leave the process clean

  expect_identical(off_serial, on_serial, "obs on vs off, serial");
  expect_identical(off_serial, on_parallel, "obs on vs off, parallel");
  expect_identical(off_serial, off_parallel, "obs off, serial vs parallel");
}

}  // namespace
}  // namespace st
