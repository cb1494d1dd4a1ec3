// Gossip-sharded aggregation bench (DESIGN.md §16): the update interval
// restructured over N cooperating partitions, measured against the
// centralized pipeline at P2P scale.
//
// Two hard gates ride in the exit code:
//
//   * synchronous exchange — adjusted ratings, flagged sets and
//     reputations must be BIT-IDENTICAL to AggregationMode::kCentralized
//     at every (shard count, thread count) cell, every interval;
//   * gossip exchange — the schedule must disseminate every summary
//     (converged) and the rebuilt baselines must sit within epsilon of
//     the exact centralized statistics (the residual the obs layer
//     reports as shard.baseline_residual_ppm).
//
// What the numbers mean: the synchronous all-gather ships full
// coefficient arrays (that is what bit-exact replay of the robust
// baselines costs), so its boundary traffic scales with the pair
// population; gossip ships fixed-size sketches, so its traffic scales
// with shards * rounds — the exactness-vs-bytes trade the two schedules
// span. Wall-clock on shared runners is informational; the committed
// reference is BENCH_sharded_aggregation.json (100k nodes).
//
// Flags (shared vocabulary in bench/common.hpp):
//   --nodes <n>       workload size                  (default 100000)
//   --shards <list>   shard counts                   (default 1,2,4,8)
//   --threads <list>  worker counts                  (default 1,4)
//   --intervals <n>   update intervals per run       (default 3)
//   --reps <n>        repetitions, min is kept       (default 3)
//   --seed <u64>      workload seed                  (default 42)
//   --shard-seed <u64> partitioner / exchange seed
//   --gossip-points <n> sketch size for the gossip section (default 64)
//   --json <path>     write results as JSON (the committed artifact)
//   --quick           5000 nodes, shards 1,4, threads 1,2, 2 intervals,
//                     1 rep — the ctest smoke entry

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/socialtrust.hpp"
#include "graph/generators.hpp"
#include "reputation/ebay.hpp"
#include "shard/sharded_aggregator.hpp"
#include "stats/rng.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using st::core::SocialTrustConfig;
using st::core::SocialTrustPlugin;
using st::graph::NodeId;
using st::reputation::Rating;

struct Workload {
  st::graph::SocialGraph graph{1};
  st::core::InterestProfiles profiles{1, 1};
  std::vector<Rating> ratings;
};

/// The house update-interval workload (bench_parallel_update's mix): a
/// small-world graph, a colluding clique rating heavily, and a normal
/// background exercising all three closeness paths.
Workload make_workload(std::size_t n, st::stats::Rng& rng) {
  Workload w;
  w.graph = st::graph::watts_strogatz(n, 10, 0.1, rng);
  w.profiles = st::core::InterestProfiles(n, 20);

  auto rate = [&](NodeId rater, NodeId ratee, double value,
                  std::size_t times) {
    for (std::size_t k = 0; k < times; ++k) {
      w.ratings.push_back(Rating{rater, ratee, value, 0, 0,
                                 st::reputation::kNoInterest});
      w.graph.record_interaction(rater, ratee);
    }
  };

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

  std::size_t colluders = std::max<std::size_t>(2, n / 100) & ~std::size_t{1};
  for (NodeId c = 0; c + 1 < colluders; c += 2) {
    w.graph.add_relationship(c, c + 1, st::graph::Relationship::kKinship);
    w.graph.add_relationship(c, c + 1, st::graph::Relationship::kBusiness);
    rate(c, c + 1, 1.0, 20);
    rate(c + 1, c, 1.0, 20);
  }

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

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One interval's comparable outputs.
struct IntervalSnap {
  st::core::AdjustmentReport report;
  std::vector<Rating> adjusted;
  std::vector<double> reputations;
};

struct RunResult {
  double best_total_ms = 0.0;  ///< min over reps of the all-intervals sum
  std::vector<IntervalSnap> intervals;
  st::shard::ShardStats stats;       ///< last interval's (sharded only)
  std::uint64_t boundary_bytes = 0;  ///< summed over intervals, last rep
  std::size_t rounds_last = 0;
  double max_residual = 0.0;  ///< max over intervals, last rep
  bool all_converged = true;
};

/// Drives `intervals` updates of the SAME rating stream through one
/// persistent plugin (interval 0 cold, the rest carried warm — the
/// steady state the per-shard dirty machinery exists for) and snapshots
/// each interval's outputs. Min-of-reps wall clock; outputs are
/// deterministic across reps, so the last rep's snapshots stand for all.
RunResult run_intervals(const Workload& w, std::size_t n,
                        const SocialTrustConfig& cfg, std::size_t intervals,
                        std::size_t reps) {
  RunResult out;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    SocialTrustPlugin plugin(
        std::make_unique<st::reputation::EbayReputation>(n), w.graph,
        w.profiles, cfg);
    out.intervals.clear();
    out.boundary_bytes = 0;
    out.max_residual = 0.0;
    out.all_converged = true;
    double total_ms = 0.0;
    for (std::size_t t = 0; t < intervals; ++t) {
      const auto start = std::chrono::steady_clock::now();
      plugin.update(w.ratings);
      const auto stop = std::chrono::steady_clock::now();
      total_ms +=
          std::chrono::duration<double, std::milli>(stop - start).count();
      IntervalSnap snap;
      snap.report = plugin.last_report();
      snap.adjusted.assign(plugin.last_adjusted().begin(),
                           plugin.last_adjusted().end());
      snap.reputations.assign(plugin.reputations().begin(),
                              plugin.reputations().end());
      out.intervals.push_back(std::move(snap));
      if (const st::shard::ShardStats* ss = plugin.last_shard_stats()) {
        out.stats = *ss;
        out.boundary_bytes += ss->exchange.boundary_bytes;
        out.rounds_last = ss->exchange.rounds;
        out.max_residual = std::max(out.max_residual, ss->baseline_residual);
        out.all_converged = out.all_converged && ss->exchange.converged;
      }
    }
    if (rep == 0 || total_ms < out.best_total_ms) {
      out.best_total_ms = total_ms;
    }
  }
  return out;
}

/// Bit-identity across every interval — report, adjusted stream,
/// flagged set, reputations.
bool runs_identical(const RunResult& a, const RunResult& b) {
  if (a.intervals.size() != b.intervals.size()) return false;
  for (std::size_t t = 0; t < a.intervals.size(); ++t) {
    const IntervalSnap& x = a.intervals[t];
    const IntervalSnap& y = b.intervals[t];
    if (x.report.pairs_total != y.report.pairs_total ||
        x.report.pairs_flagged != y.report.pairs_flagged ||
        x.report.ratings_adjusted != y.report.ratings_adjusted ||
        x.report.b1 != y.report.b1 || x.report.b2 != y.report.b2 ||
        x.report.b3 != y.report.b3 || x.report.b4 != y.report.b4 ||
        !bits_equal(x.report.mean_weight, y.report.mean_weight) ||
        x.report.flagged.size() != y.report.flagged.size()) {
      return false;
    }
    for (std::size_t i = 0; i < x.report.flagged.size(); ++i) {
      if (x.report.flagged[i].rater != y.report.flagged[i].rater ||
          x.report.flagged[i].ratee != y.report.flagged[i].ratee ||
          x.report.flagged[i].behavior != y.report.flagged[i].behavior ||
          !bits_equal(x.report.flagged[i].weight,
                      y.report.flagged[i].weight)) {
        return false;
      }
    }
    if (x.adjusted.size() != y.adjusted.size()) return false;
    for (std::size_t i = 0; i < x.adjusted.size(); ++i) {
      if (x.adjusted[i].rater != y.adjusted[i].rater ||
          x.adjusted[i].ratee != y.adjusted[i].ratee ||
          !bits_equal(x.adjusted[i].value, y.adjusted[i].value)) {
        return false;
      }
    }
    if (x.reputations.size() != y.reputations.size()) return false;
    for (std::size_t v = 0; v < x.reputations.size(); ++v) {
      if (!bits_equal(x.reputations[v], y.reputations[v])) return false;
    }
  }
  return true;
}

/// Largest absolute reputation deviation from the oracle, any interval.
double max_reputation_delta(const RunResult& a, const RunResult& oracle) {
  double worst = 0.0;
  for (std::size_t t = 0; t < a.intervals.size(); ++t) {
    const auto& x = a.intervals[t].reputations;
    const auto& y = oracle.intervals[t].reputations;
    for (std::size_t v = 0; v < x.size() && v < y.size(); ++v) {
      worst = std::max(worst, std::abs(x[v] - y[v]));
    }
  }
  return worst;
}

struct SyncRow {
  std::size_t shards = 0;
  std::size_t threads = 0;
  double wall_ms = 0.0;
  std::size_t cut_edges = 0;
  std::size_t pairs_remote = 0;
  std::uint64_t boundary_bytes = 0;
  bool identical = true;
};

struct GossipRow {
  std::size_t shards = 0;
  std::size_t rounds = 0;
  bool converged = true;
  double wall_ms = 0.0;
  std::uint64_t boundary_bytes = 0;
  double residual = 0.0;
  double rep_delta = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  st::util::CliArgs args(argc, argv);
  const st::bench::CommonFlags common =
      st::bench::parse_common_flags(args, "1,4", "1,2", 3, 1);
  const bool quick = common.quick;
  const std::size_t n = static_cast<std::size_t>(
      args.get_int("nodes", quick ? 5000 : 100000));
  const auto shard_counts = st::bench::parse_size_list(
      args.get_or("shards", quick ? "1,4" : "1,2,4,8"));
  const auto& thread_counts = common.threads;
  const std::size_t intervals = static_cast<std::size_t>(
      args.get_int("intervals", quick ? 2 : 3));
  const std::size_t reps = common.reps;
  const std::uint64_t seed = common.seed;
  const std::uint64_t shard_seed =
      args.get_u64("shard-seed", SocialTrustConfig{}.shard_seed);
  const auto gossip_points = static_cast<std::size_t>(
      args.get_int("gossip-points", 64));
  const unsigned hardware_threads =
      std::max(1U, std::thread::hardware_concurrency());

  std::cout << "=== bench_sharded_aggregation ===\n"
            << "(" << n << " nodes, " << intervals
            << " update intervals, min of " << reps
            << " reps; shard seed " << shard_seed
            << "; hardware threads: " << hardware_threads << ")\n\n";

  st::stats::Rng rng(seed);
  const Workload w = make_workload(n, rng);

  // Centralized oracle, serial: the reference every cell compares to.
  SocialTrustConfig central_cfg;
  central_cfg.threads = 1;
  const RunResult oracle = run_intervals(w, n, central_cfg, intervals, reps);
  const std::size_t pairs = oracle.intervals.back().report.pairs_total;
  std::cout << "centralized (threads=1): "
            << st::util::fmt(oracle.best_total_ms, 2) << " ms over "
            << intervals << " intervals, " << pairs << " pairs\n\n";

  // --- Synchronous exchange: the bit-identity matrix. ---
  std::vector<SyncRow> sync_rows;
  bool sync_identical = true;
  for (std::size_t shards : shard_counts) {
    for (std::size_t threads : thread_counts) {
      SocialTrustConfig cfg;
      cfg.threads = threads;
      cfg.aggregation = st::core::AggregationMode::kSharded;
      cfg.exchange = st::core::ExchangeSchedule::kSynchronous;
      cfg.shards = shards;
      cfg.shard_seed = shard_seed;
      const RunResult run = run_intervals(w, n, cfg, intervals, reps);
      SyncRow row;
      row.shards = shards;
      row.threads = threads;
      row.wall_ms = run.best_total_ms;
      row.cut_edges = run.stats.boundary_edges;
      row.pairs_remote = run.stats.pairs_remote;
      row.boundary_bytes = run.boundary_bytes;
      row.identical = runs_identical(run, oracle);
      sync_identical = sync_identical && row.identical;
      sync_rows.push_back(row);
    }
  }
  st::util::Table sync_table({"shards", "threads", "wall ms", "cut edges",
                              "remote pairs", "boundary MiB",
                              "bit-identical"});
  for (const SyncRow& r : sync_rows) {
    sync_table.add_row(
        {std::to_string(r.shards), std::to_string(r.threads),
         st::util::fmt(r.wall_ms, 2), std::to_string(r.cut_edges),
         std::to_string(r.pairs_remote),
         st::util::fmt(static_cast<double>(r.boundary_bytes) /
                           (1024.0 * 1024.0),
                       2),
         r.identical ? "yes" : "NO (BUG)"});
  }
  std::cout << "--- synchronous exchange vs centralized ---\n"
            << sync_table.to_string() << "\n";
  if (!sync_identical) {
    std::cout << "DETERMINISM VIOLATION: synchronous sharded aggregation "
                 "diverged from the centralized pipeline\n";
  }

  // --- Gossip exchange: epsilon convergence, sketch-bounded traffic. ---
  constexpr double kResidualEpsilon = 0.25;
  constexpr double kReputationEpsilon = 0.05;
  std::vector<GossipRow> gossip_rows;
  bool gossip_ok = true;
  const std::size_t gossip_threads = thread_counts.back();
  for (std::size_t shards : shard_counts) {
    if (shards < 2) continue;  // single shard has no boundary to gossip
    SocialTrustConfig cfg;
    cfg.threads = gossip_threads;
    cfg.aggregation = st::core::AggregationMode::kSharded;
    cfg.exchange = st::core::ExchangeSchedule::kGossip;
    cfg.shards = shards;
    cfg.shard_seed = shard_seed;
    cfg.gossip_summary_points = gossip_points;
    const RunResult run = run_intervals(w, n, cfg, intervals, reps);
    GossipRow row;
    row.shards = shards;
    row.rounds = run.rounds_last;
    row.converged = run.all_converged;
    row.wall_ms = run.best_total_ms;
    row.boundary_bytes = run.boundary_bytes;
    row.residual = run.max_residual;
    row.rep_delta = max_reputation_delta(run, oracle);
    gossip_ok = gossip_ok && row.converged &&
                row.residual < kResidualEpsilon &&
                row.rep_delta < kReputationEpsilon;
    gossip_rows.push_back(row);
  }
  if (!gossip_rows.empty()) {
    st::util::Table gossip_table({"shards", "rounds", "converged", "wall ms",
                                  "boundary KiB", "max residual",
                                  "max |rep delta|"});
    for (const GossipRow& r : gossip_rows) {
      gossip_table.add_row(
          {std::to_string(r.shards), std::to_string(r.rounds),
           r.converged ? "yes" : "NO",
           st::util::fmt(r.wall_ms, 2),
           st::util::fmt(static_cast<double>(r.boundary_bytes) / 1024.0, 1),
           st::util::fmt(r.residual, 6), st::util::fmt(r.rep_delta, 6)});
    }
    std::cout << "--- gossip exchange (threads=" << gossip_threads
              << ", sketch " << gossip_points << " points, epsilon "
              << st::util::fmt(kResidualEpsilon, 2) << ") ---\n"
              << gossip_table.to_string() << "\n";
    if (!gossip_ok) {
      std::cout << "CONVERGENCE VIOLATION: a gossip cell failed to "
                   "disseminate or left epsilon\n";
    }
  }

  if (auto json_path = args.get("json"); json_path && !json_path->empty()) {
    std::ofstream out(*json_path);
    if (!out) {
      std::cerr << "cannot open " << *json_path << " for writing\n";
      return 2;
    }
    out << "{\n  \"bench\": \"bench_sharded_aggregation\",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"shard_seed\": " << shard_seed << ",\n"
        << "  \"nodes\": " << n << ",\n"
        << "  \"pairs\": " << pairs << ",\n"
        << "  \"intervals\": " << intervals << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"hardware_threads\": " << hardware_threads << ",\n"
        << "  \"centralized_ms\": "
        << st::util::fmt(oracle.best_total_ms, 3) << ",\n"
        << "  \"sync_bit_identical\": "
        << (sync_identical ? "true" : "false") << ",\n"
        << "  \"gossip_within_epsilon\": " << (gossip_ok ? "true" : "false")
        << ",\n  \"sync\": [\n";
    for (std::size_t i = 0; i < sync_rows.size(); ++i) {
      const SyncRow& r = sync_rows[i];
      out << "    {\"shards\": " << r.shards << ", \"threads\": "
          << r.threads << ", \"wall_ms\": " << st::util::fmt(r.wall_ms, 3)
          << ", \"cut_edges\": " << r.cut_edges << ", \"pairs_remote\": "
          << r.pairs_remote << ", \"boundary_bytes\": " << r.boundary_bytes
          << ", \"bit_identical\": " << (r.identical ? "true" : "false")
          << "}" << (i + 1 < sync_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"gossip\": [\n";
    for (std::size_t i = 0; i < gossip_rows.size(); ++i) {
      const GossipRow& r = gossip_rows[i];
      out << "    {\"shards\": " << r.shards << ", \"rounds\": " << r.rounds
          << ", \"converged\": " << (r.converged ? "true" : "false")
          << ", \"wall_ms\": " << st::util::fmt(r.wall_ms, 3)
          << ", \"boundary_bytes\": " << r.boundary_bytes
          << ", \"max_residual\": " << st::util::fmt(r.residual, 6)
          << ", \"max_rep_delta\": " << st::util::fmt(r.rep_delta, 6) << "}"
          << (i + 1 < gossip_rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "(json: " << *json_path << ")\n";
  }

  return sync_identical && gossip_ok ? 0 : 1;
}
