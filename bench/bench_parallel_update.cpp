// Serial-vs-parallel wall-clock of one SocialTrust reputation-update
// interval at P2P scale, and a determinism cross-check: every thread count
// must produce the identical AdjustmentReport.
//
// The workload mirrors what the simulator feeds the plugin, scaled up: a
// small-world social graph, interest profiles with request histories, a
// colluding clique rating at high frequency, and a background of normal
// nodes rating social neighbours (1-hop, 2-hop, and the occasional distant
// pair — the mix that exercises all three closeness paths of Eqs. 2-4).
//
// Flags:
//   --threads <list>  comma-separated worker counts   (default 1,2,4,8)
//   --nodes <list>    comma-separated node counts     (default 1000,10000,50000)
//   --reps <n>        timed repetitions, min is kept  (default 3)
//   --json <path>     also write results as JSON (the BENCH_parallel_update.json
//                     artifact tracked in the repo)
//   --quick           1000,5000 nodes, 2 reps
//   --obs             additionally measure the obs-layer overhead: each
//                     workload is re-run with instrumentation disabled and
//                     enabled, the wall-clock delta is reported, and the
//                     adjusted ratings / flagged sets / reputations are
//                     compared bit-for-bit (they must be identical — the
//                     obs layer is observation-only; docs/OBSERVABILITY.md)
//   --obs-out <path>  as --obs, streaming the enabled runs' interval
//                     events to <path> as JSONL
//   --dirty           additionally benchmark the dirty-pair scheduler
//                     (DESIGN.md §14): one cold interval then warm
//                     intervals under rating + relationship churn on
//                     well under 10% of the pair population, kFullWalk
//                     vs kDirtyPairs wall-clock, reports cross-checked
//   --dirty-json <path>  write the --dirty section as JSON (the
//                     BENCH_dirty_pairs.json artifact; implies --dirty)
//   --dirty-intervals <n>  warm intervals per schedule (default 4)
//
// Speedup rows are timing SIGNAL only when the machine can actually run
// the requested workers in parallel: when `threads` exceeds the hardware
// concurrency (in particular on 1-core CI containers, where 2-8 worker
// rows measure oversubscription noise in the 0.4-1.1x range) the row is
// marked informational and only the determinism cross-check is meaningful
// there. The exit code gates on determinism alone, never on speedup.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/socialtrust.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "reputation/ebay.hpp"
#include "stats/rng.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using st::core::AdjustmentReport;
using st::core::InterestProfiles;
using st::core::SocialTrustConfig;
using st::core::SocialTrustPlugin;
using st::graph::NodeId;
using st::graph::SocialGraph;
using st::reputation::Rating;

struct Workload {
  SocialGraph graph{1};
  InterestProfiles profiles{1, 1};
  std::vector<Rating> ratings;
};

/// One update interval's worth of state and ratings for `n` nodes.
Workload make_workload(std::size_t n, st::stats::Rng& rng) {
  Workload w;
  w.graph = st::graph::watts_strogatz(n, 10, 0.1, rng);
  w.profiles = InterestProfiles(n, 20);

  auto rate = [&](NodeId rater, NodeId ratee, double value,
                  std::size_t times) {
    for (std::size_t k = 0; k < times; ++k) {
      w.ratings.push_back(Rating{rater, ratee, value, 0, 0,
                                 st::reputation::kNoInterest});
      w.graph.record_interaction(rater, ratee);
    }
  };

  // Interests + request behaviour.
  for (NodeId v = 0; v < n; ++v) {
    std::vector<st::reputation::InterestId> interests;
    for (int k = 0; k < 3; ++k) {
      interests.push_back(
          static_cast<st::reputation::InterestId>(rng.index(20)));
    }
    w.profiles.set_interests(v, interests);
    for (auto interest : interests) {
      w.profiles.record_request(v, interest, rng.uniform(1.0, 10.0));
    }
  }

  // Colluding clique: 1% of nodes pair up, heavy mutual positive ratings,
  // disjoint fabricated interests — the stream the detector must flag.
  std::size_t colluders = std::max<std::size_t>(2, n / 100) & ~std::size_t{1};
  for (NodeId c = 0; c + 1 < colluders; c += 2) {
    w.graph.add_relationship(c, c + 1, st::graph::Relationship::kKinship);
    w.graph.add_relationship(c, c + 1, st::graph::Relationship::kBusiness);
    rate(c, c + 1, 1.0, 20);
    rate(c + 1, c, 1.0, 20);
  }

  // Normal background: every node rates two direct neighbours, one 2-hop
  // neighbour (friend-of-friend closeness, Eq. 3), and 1% of nodes rate a
  // distant stranger (bottleneck path, Eq. 4).
  // A copy of v's row, reused across nodes: rate() records interactions,
  // which may compact the graph and invalidate every neighbors() span.
  std::vector<NodeId> neighbors;
  for (NodeId v = static_cast<NodeId>(colluders); v < n; ++v) {
    const auto row = w.graph.neighbors(v);
    neighbors.assign(row.begin(), row.end());
    if (neighbors.empty()) continue;
    for (int k = 0; k < 2; ++k) {
      NodeId peer = neighbors[rng.index(neighbors.size())];
      rate(v, peer, rng.bernoulli(0.85) ? 1.0 : -1.0, 2);
    }
    NodeId mid = neighbors[rng.index(neighbors.size())];
    auto second = w.graph.neighbors(mid);
    if (!second.empty()) {
      NodeId hop2 = second[rng.index(second.size())];
      if (hop2 != v) rate(v, hop2, 1.0, 2);
    }
    if (rng.bernoulli(0.01)) {
      rate(v, static_cast<NodeId>(rng.index(n)), 1.0, 1);
    }
  }
  return w;
}

bool reports_match(const AdjustmentReport& a, const AdjustmentReport& b) {
  return a.pairs_total == b.pairs_total &&
         a.pairs_flagged == b.pairs_flagged &&
         a.ratings_adjusted == b.ratings_adjusted && a.b1 == b.b1 &&
         a.b2 == b.b2 && a.b3 == b.b3 && a.b4 == b.b4 &&
         a.mean_weight == b.mean_weight &&
         a.flagged.size() == b.flagged.size();
}

struct Row {
  std::size_t nodes = 0;
  std::size_t pairs = 0;
  std::size_t threads = 0;
  double wall_ms = 0.0;
  double speedup = 1.0;
  bool identical = true;
  /// True when `threads` exceeds the hardware concurrency: the wall-clock
  /// measures oversubscription, not parallel speedup, and only the
  /// determinism column is signal.
  bool informational = false;
};

// --- --dirty scheduler section ----------------------------------------------

/// One schedule's run over the same deterministic interval sequence:
/// interval 0 is cold (both schedules pay the full per-pair walk), warm
/// intervals re-submit the same rating stream under small churn.
struct DirtyRun {
  std::vector<double> interval_ms;
  std::vector<AdjustmentReport> reports;
  std::size_t pairs = 0;
  std::size_t last_pairs_dirty = 0;
  std::size_t last_pairs_carried = 0;
};

/// Rebuilds the workload from the seed (so kFullWalk and kDirtyPairs see
/// bit-identical state sequences) and drives `intervals` updates through
/// one persistent plugin. Warm-interval churn touches well under 10% of
/// the pair population: ~2% of nodes record a fresh interaction (dirtying
/// their outgoing pairs and any entry they witness) and ~0.2% gain or
/// lose a relationship (dirtying structure-witnessed and path-backed
/// entries).
DirtyRun run_dirty_schedule(std::size_t n, std::uint64_t seed,
                            st::core::UpdateSchedule schedule,
                            std::size_t intervals) {
  st::stats::Rng rng(seed);
  Workload w = make_workload(n, rng);
  SocialTrustConfig cfg;
  cfg.threads = 1;
  cfg.schedule = schedule;
  SocialTrustPlugin plugin(
      std::make_unique<st::reputation::EbayReputation>(n), w.graph,
      w.profiles, cfg);

  DirtyRun out;
  st::stats::Rng churn_rng(seed ^ 0x517cc1b727220a95ULL);
  for (std::size_t t = 0; t < intervals; ++t) {
    if (t > 0) {
      const std::size_t interaction_churn = std::max<std::size_t>(1, n / 50);
      for (std::size_t i = 0; i < interaction_churn; ++i) {
        const auto a = static_cast<NodeId>(churn_rng.index(n));
        const auto b =
            static_cast<NodeId>((a + 3 + churn_rng.index(7)) % n);
        w.graph.record_interaction(a, b);
      }
      // Relationship churn on *existing* edges: toggle a second type on
      // a random node's first neighbour. Types strengthen and weaken
      // across intervals (bumping structure revisions and invalidating
      // the touched closeness entries) while the adjacency itself stays
      // put — matching the paper's model, where the relationship network
      // is long-lived and edge additions are rare setup/rewire events,
      // not steady-state churn. (A single brand-new adjacency would
      // exactly invalidate every cached shortest path, as it must.)
      const std::size_t edge_churn = std::max<std::size_t>(1, n / 500);
      for (std::size_t i = 0; i < edge_churn; ++i) {
        const auto a = static_cast<NodeId>(churn_rng.index(n));
        const auto neighbors = w.graph.neighbors(a);
        if (neighbors.empty()) continue;
        const NodeId b = neighbors[0];
        if (churn_rng.bernoulli(0.5)) {
          w.graph.add_relationship(a, b,
                                   st::graph::Relationship::kColleague);
        } else {
          w.graph.remove_relationship(a, b,
                                      st::graph::Relationship::kColleague);
        }
      }
    }
    const auto start = std::chrono::steady_clock::now();
    plugin.update(w.ratings);
    const auto stop = std::chrono::steady_clock::now();
    out.interval_ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
    out.reports.push_back(plugin.last_report());
    out.pairs = plugin.last_report().pairs_total;
    out.last_pairs_dirty = plugin.last_dirty_stats().pairs_dirty;
    out.last_pairs_carried = plugin.last_dirty_stats().pairs_carried;
  }
  return out;
}

struct DirtyRow {
  std::size_t nodes = 0;
  std::size_t pairs = 0;
  double cold_ms = 0.0;
  double full_warm_ms = 0.0;
  double dirty_warm_ms = 0.0;
  double speedup = 0.0;
  std::size_t pairs_dirty = 0;
  std::size_t pairs_carried = 0;
  bool identical = true;
};

// --- --obs overhead section -------------------------------------------------

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Everything one instrumentation state produces that the determinism
/// contract covers: the adjusted rating stream, the flagged set (inside
/// the report), and the wrapped system's reputations.
struct ObsRun {
  double best_ms = 0.0;
  AdjustmentReport report;
  std::vector<Rating> adjusted;
  std::vector<double> reputations;
};

ObsRun run_with_obs_state(const Workload& w, std::size_t n,
                          std::size_t threads, std::size_t reps,
                          bool enabled, const std::string& jsonl_path) {
  st::obs::StObsConfig obs_cfg;
  obs_cfg.enabled = enabled;
  if (enabled) obs_cfg.jsonl_path = jsonl_path;
  st::obs::Obs::instance().configure(obs_cfg);

  SocialTrustConfig cfg;
  cfg.threads = threads;
  ObsRun result;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    SocialTrustPlugin plugin(
        std::make_unique<st::reputation::EbayReputation>(n), w.graph,
        w.profiles, cfg);
    auto start = std::chrono::steady_clock::now();
    plugin.update(w.ratings);
    auto stop = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < result.best_ms) result.best_ms = ms;
    result.report = plugin.last_report();
    result.adjusted.assign(plugin.last_adjusted().begin(),
                           plugin.last_adjusted().end());
    result.reputations.assign(plugin.reputations().begin(),
                              plugin.reputations().end());
  }
  return result;
}

/// Bit-for-bit identity across instrumentation states — stricter than
/// reports_match: every adjusted rating value, every flagged pair's
/// weight, and every reputation must have identical bit patterns.
bool obs_runs_identical(const ObsRun& a, const ObsRun& b) {
  if (!reports_match(a.report, b.report)) return false;
  if (a.adjusted.size() != b.adjusted.size()) return false;
  for (std::size_t i = 0; i < a.adjusted.size(); ++i) {
    const Rating& x = a.adjusted[i];
    const Rating& y = b.adjusted[i];
    if (x.rater != y.rater || x.ratee != y.ratee || x.cycle != y.cycle ||
        x.query_cycle != y.query_cycle || x.interest != y.interest ||
        !bits_equal(x.value, y.value)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.report.flagged.size(); ++i) {
    const auto& x = a.report.flagged[i];
    const auto& y = b.report.flagged[i];
    if (x.rater != y.rater || x.ratee != y.ratee ||
        x.behavior != y.behavior || !bits_equal(x.weight, y.weight)) {
      return false;
    }
  }
  if (a.reputations.size() != b.reputations.size()) return false;
  for (std::size_t i = 0; i < a.reputations.size(); ++i) {
    if (!bits_equal(a.reputations[i], b.reputations[i])) return false;
  }
  return true;
}

struct ObsRow {
  std::size_t nodes = 0;
  std::size_t threads = 0;
  double off_ms = 0.0;
  double on_ms = 0.0;
  double overhead_pct = 0.0;
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  st::util::CliArgs args(argc, argv);
  const st::bench::CommonFlags common =
      st::bench::parse_common_flags(args, "1,2,4,8");
  const bool quick = common.quick;
  auto node_counts = st::bench::parse_size_list(
      args.get_or("nodes", quick ? "1000,5000" : "1000,10000,50000"));
  const auto& thread_counts = common.threads;
  const std::size_t reps = common.reps;
  const std::uint64_t seed = common.seed;
  const unsigned hardware_threads =
      std::max(1U, std::thread::hardware_concurrency());

  std::cout << "=== bench_parallel_update ===\n"
            << "(one SocialTrust update interval; min of " << reps
            << " reps; hardware threads: " << hardware_threads << ")\n";
  if (hardware_threads == 1) {
    std::cout << "NOTE: single hardware thread — multi-thread rows measure "
                 "oversubscription, not speedup; they are marked "
                 "informational and only their determinism column is "
                 "signal.\n";
  }
  std::cout << "\n";

  std::vector<Row> rows;
  for (std::size_t n : node_counts) {
    st::stats::Rng rng(seed);
    Workload w = make_workload(n, rng);
    double serial_ms = 0.0;
    AdjustmentReport serial_report;
    for (std::size_t threads : thread_counts) {
      SocialTrustConfig cfg;
      cfg.threads = threads;
      double best_ms = 0.0;
      AdjustmentReport report;
      std::size_t pairs = 0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        // Fresh plugin per rep: update() also extends rater history, and
        // timing the first interval keeps reps comparable.
        SocialTrustPlugin plugin(
            std::make_unique<st::reputation::EbayReputation>(n), w.graph,
            w.profiles, cfg);
        auto start = std::chrono::steady_clock::now();
        plugin.update(w.ratings);
        auto stop = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        if (rep == 0 || ms < best_ms) best_ms = ms;
        report = plugin.last_report();
        pairs = report.pairs_total;
      }
      Row row;
      row.nodes = n;
      row.pairs = pairs;
      row.threads = threads;
      row.wall_ms = best_ms;
      if (threads == thread_counts.front()) {
        serial_ms = best_ms;
        serial_report = report;
      }
      row.speedup = best_ms > 0.0 ? serial_ms / best_ms : 1.0;
      row.identical = reports_match(serial_report, report);
      row.informational = threads > hardware_threads;
      rows.push_back(row);
    }
  }

  st::util::Table table({"nodes", "pairs", "threads", "wall ms", "speedup",
                         "timing", "identical"});
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.nodes), std::to_string(r.pairs),
                   std::to_string(r.threads), st::util::fmt(r.wall_ms, 2),
                   st::util::fmt(r.speedup, 2),
                   r.informational ? "informational" : "signal",
                   r.identical ? "yes" : "NO (BUG)"});
  }
  std::cout << table.to_string() << "\n";

  bool all_identical = true;
  for (const Row& r : rows) all_identical = all_identical && r.identical;
  if (!all_identical) {
    std::cout << "DETERMINISM VIOLATION: reports differ across thread "
                 "counts\n";
  }

  // --obs: enabled-vs-disabled overhead, with a bit-identity cross-check.
  std::vector<ObsRow> obs_rows;
  bool obs_identical = true;
  const std::string& obs_out = common.obs_out;
  if (common.obs) {
    std::cout << "--- observability overhead (off vs on; min of " << reps
              << " reps) ---\n";
    for (std::size_t n : node_counts) {
      st::stats::Rng rng(seed);
      Workload w = make_workload(n, rng);
      for (std::size_t threads : thread_counts) {
        ObsRun off = run_with_obs_state(w, n, threads, reps,
                                        /*enabled=*/false, "");
        ObsRun on = run_with_obs_state(w, n, threads, reps,
                                       /*enabled=*/true, obs_out);
        ObsRow row;
        row.nodes = n;
        row.threads = threads;
        row.off_ms = off.best_ms;
        row.on_ms = on.best_ms;
        row.overhead_pct = off.best_ms > 0.0
                               ? (on.best_ms - off.best_ms) / off.best_ms *
                                     100.0
                               : 0.0;
        row.identical = obs_runs_identical(off, on);
        obs_identical = obs_identical && row.identical;
        obs_rows.push_back(row);
      }
    }
    st::obs::Obs::instance().configure({});  // leave the process clean

    st::util::Table obs_table({"nodes", "threads", "obs off ms", "obs on ms",
                               "overhead", "bit-identical"});
    for (const ObsRow& r : obs_rows) {
      obs_table.add_row({std::to_string(r.nodes), std::to_string(r.threads),
                         st::util::fmt(r.off_ms, 2),
                         st::util::fmt(r.on_ms, 2),
                         st::util::fmt(r.overhead_pct, 1) + "%",
                         r.identical ? "yes" : "NO (BUG)"});
    }
    std::cout << obs_table.to_string() << "\n";
    if (!obs_out.empty()) {
      std::cout << "(obs events: " << obs_out << ")\n";
    }
    if (!obs_identical) {
      std::cout << "DETERMINISM VIOLATION: instrumentation changed the "
                   "adjusted ratings / flagged set / reputations\n";
    }
  }

  // --dirty: full-walk vs dirty-pair scheduler across warm intervals.
  std::vector<DirtyRow> dirty_rows;
  bool dirty_identical = true;
  const std::string dirty_json = args.get_or("dirty-json", "");
  const std::size_t dirty_intervals = 1 +  // cold interval
      static_cast<std::size_t>(args.get_int("dirty-intervals", 4));
  if (args.has("dirty") || !dirty_json.empty()) {
    std::cout << "--- dirty-pair scheduler (cold + "
              << dirty_intervals - 1
              << " warm intervals; <10% pair churn; threads=1) ---\n";
    for (std::size_t n : node_counts) {
      DirtyRun full = run_dirty_schedule(
          n, seed, st::core::UpdateSchedule::kFullWalk, dirty_intervals);
      DirtyRun dirty = run_dirty_schedule(
          n, seed, st::core::UpdateSchedule::kDirtyPairs, dirty_intervals);

      DirtyRow row;
      row.nodes = n;
      row.pairs = full.pairs;
      row.cold_ms = full.interval_ms.front();
      row.full_warm_ms = full.interval_ms.back();
      row.dirty_warm_ms = dirty.interval_ms.back();
      for (std::size_t t = 1; t < dirty_intervals; ++t) {
        row.full_warm_ms = std::min(row.full_warm_ms, full.interval_ms[t]);
        row.dirty_warm_ms = std::min(row.dirty_warm_ms, dirty.interval_ms[t]);
      }
      row.speedup = row.dirty_warm_ms > 0.0
                        ? row.full_warm_ms / row.dirty_warm_ms
                        : 0.0;
      row.pairs_dirty = dirty.last_pairs_dirty;
      row.pairs_carried = dirty.last_pairs_carried;
      for (std::size_t t = 0; t < dirty_intervals; ++t) {
        row.identical =
            row.identical && reports_match(full.reports[t], dirty.reports[t]);
      }
      dirty_identical = dirty_identical && row.identical;
      dirty_rows.push_back(row);
    }

    st::util::Table dirty_table({"nodes", "pairs", "cold ms", "full warm ms",
                                 "dirty warm ms", "speedup", "dirty",
                                 "carried", "identical"});
    for (const DirtyRow& r : dirty_rows) {
      dirty_table.add_row(
          {std::to_string(r.nodes), std::to_string(r.pairs),
           st::util::fmt(r.cold_ms, 2), st::util::fmt(r.full_warm_ms, 2),
           st::util::fmt(r.dirty_warm_ms, 2), st::util::fmt(r.speedup, 2),
           std::to_string(r.pairs_dirty), std::to_string(r.pairs_carried),
           r.identical ? "yes" : "NO (BUG)"});
    }
    std::cout << dirty_table.to_string() << "\n";
    if (!dirty_identical) {
      std::cout << "DETERMINISM VIOLATION: dirty-pair scheduler diverged "
                   "from the full walk\n";
    }

    if (!dirty_json.empty()) {
      std::ofstream out(dirty_json);
      if (!out) {
        std::cerr << "cannot open " << dirty_json << " for writing\n";
        return 2;
      }
      out << "{\n  \"bench\": \"bench_parallel_update --dirty\",\n"
          << "  \"seed\": " << seed << ",\n"
          << "  \"warm_intervals\": " << dirty_intervals - 1 << ",\n"
          << "  \"hardware_threads\": " << hardware_threads << ",\n"
          << "  \"churn\": \"per warm interval: n/50 nodes record a fresh "
             "interaction, n/500 nodes toggle a relationship type on an "
             "existing edge (adjacency unchanged)\",\n"
          << "  \"reports_identical_full_vs_dirty\": "
          << (dirty_identical ? "true" : "false") << ",\n  \"results\": [\n";
      for (std::size_t i = 0; i < dirty_rows.size(); ++i) {
        const DirtyRow& r = dirty_rows[i];
        out << "    {\"nodes\": " << r.nodes << ", \"pairs\": " << r.pairs
            << ", \"cold_ms\": " << st::util::fmt(r.cold_ms, 3)
            << ", \"full_warm_ms\": " << st::util::fmt(r.full_warm_ms, 3)
            << ", \"dirty_warm_ms\": " << st::util::fmt(r.dirty_warm_ms, 3)
            << ", \"speedup\": " << st::util::fmt(r.speedup, 3)
            << ", \"pairs_dirty\": " << r.pairs_dirty
            << ", \"pairs_carried\": " << r.pairs_carried << "}"
            << (i + 1 < dirty_rows.size() ? "," : "") << "\n";
      }
      out << "  ]\n}\n";
      std::cout << "(dirty json: " << dirty_json << ")\n";
    }
  }

  if (auto json_path = args.get("json"); json_path && !json_path->empty()) {
    std::ofstream out(*json_path);
    if (!out) {
      std::cerr << "cannot open " << *json_path << " for writing\n";
      return 2;
    }
    out << "{\n  \"bench\": \"bench_parallel_update\",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"hardware_threads\": " << hardware_threads
        << ",\n  \"reports_identical_across_thread_counts\": "
        << (all_identical ? "true" : "false") << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"nodes\": " << r.nodes << ", \"pairs\": " << r.pairs
          << ", \"threads\": " << r.threads << ", \"wall_ms\": "
          << st::util::fmt(r.wall_ms, 3) << ", \"speedup\": "
          << st::util::fmt(r.speedup, 3) << ", \"informational\": "
          << (r.informational ? "true" : "false") << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]";
    if (!obs_rows.empty()) {
      out << ",\n  \"obs_identical_on_vs_off\": "
          << (obs_identical ? "true" : "false") << ",\n  \"obs_overhead\": [\n";
      for (std::size_t i = 0; i < obs_rows.size(); ++i) {
        const ObsRow& r = obs_rows[i];
        out << "    {\"nodes\": " << r.nodes << ", \"threads\": " << r.threads
            << ", \"off_ms\": " << st::util::fmt(r.off_ms, 3)
            << ", \"on_ms\": " << st::util::fmt(r.on_ms, 3)
            << ", \"overhead_pct\": " << st::util::fmt(r.overhead_pct, 2)
            << "}" << (i + 1 < obs_rows.size() ? "," : "") << "\n";
      }
      out << "  ]";
    }
    out << "\n}\n";
    std::cout << "(json: " << *json_path << ")\n";
  }
  return all_identical && obs_identical && dirty_identical ? 0 : 1;
}
