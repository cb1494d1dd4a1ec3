// Warm-vs-cold wall-clock of the SocialTrust update interval under a
// steady-state Section 5.1 workload, measuring what the persistent
// SocialStateCache (DESIGN.md §13) buys: while the relationships hold
// still between intervals, the path cache, whose one witness is the
// graph's structure epoch checked at each interval boundary, serves
// every shortest-path lookup without redoing the bounded search, and the
// results stay bit-identical to a cold recompute.
//
// Protocol: one network, one recurring rating stream (peers keep rating
// their regular partners), and between intervals a small random subset
// of nodes mutates its social state (interactions, the odd interest
// request) — the steady state the paper's update interval lives in. Two
// plugins process the identical interval sequence: `warm` keeps its
// cache across intervals, `cold` has it wiped before every update(),
// i.e. the retired per-interval-memo behaviour. Interval 0 is the
// shared cold start and excluded from the steady-state aggregates.
//
// Flags:
//   --threads <list>    comma-separated worker counts     (default 1,4)
//   --nodes <list>      comma-separated node counts       (default 1000,10000)
//   --intervals <n>     update intervals per run          (default 8)
//   --churn <pct>       % of nodes mutating per interval  (default 8)
//   --rel-churn <pct>   % of nodes whose *relationships* are rewired per
//                       interval (friendships added and removed mid-run,
//                       default 0). Topology churn moves the structure
//                       epoch before every interval, so the warm cache
//                       drops its paths at each boundary and stores none —
//                       the adversarial preset for the path cache's
//                       persistence bet. The cold side, cleared before
//                       every update(), opens each interval like a new
//                       cache and stores every interval.
//   --reps <n>          repetitions, min totals are kept  (default 2)
//   --json <path>       also write results as JSON (the
//                       BENCH_incremental_closeness.json artifact)
//   --quick             1000 nodes, 4 intervals, 1 rep, threads 1,2
//                       (the ctest smoke entry)
//   --seed <n>          workload seed                     (default 42)
//
// Exit code is non-zero if any warm interval is not bit-identical to
// its cold twin, if the steady-state path hit rate falls below 80%, or
// (full runs only — --quick skips the timing gate to stay robust on
// loaded CI machines) if the steady-state speedup falls below 2x. With
// --rel-churn > 0 the hit-rate and speedup gates are reported but not
// enforced: rewiring the topology every interval deliberately defeats
// the path cache's steady-state assumption. Two hard claims are left
// and gated: bit-identity, and that the warm cache holds no path after
// any steady-state interval (an interval opened after a relationship
// change stores nothing).

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/socialtrust.hpp"
#include "graph/generators.hpp"
#include "reputation/ebay.hpp"
#include "stats/rng.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using st::core::InterestProfiles;
using st::core::SocialStateCache;
using st::core::SocialTrustConfig;
using st::core::SocialTrustPlugin;
using st::graph::NodeId;
using st::graph::SocialGraph;
using st::reputation::Rating;

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct Workload {
  SocialGraph graph{1};
  InterestProfiles profiles{1, 1};
  std::vector<Rating> ratings;  ///< the recurring per-interval stream
};

/// Section 5.1-style network and a stable rating stream: a colluding
/// clique plus normal nodes rating direct neighbours, 2-hop neighbours
/// (friend-of-friend closeness, Eq. 3) and the occasional distant pair
/// (bottleneck path, Eq. 4) — the mix bench_parallel_update uses, kept
/// constant across intervals so steady-state reuse is measurable.
Workload make_workload(std::size_t n, st::stats::Rng& rng) {
  Workload w;
  // k = 6 (sparser than bench_parallel_update's 10): longer social
  // distances push more pairs onto the bottleneck branch, whose bounded
  // path search is what the cache keeps — the cost this bench is about.
  w.graph = st::graph::watts_strogatz(n, 6, 0.1, rng);
  w.profiles = InterestProfiles(n, 20);

  auto rate = [&](NodeId rater, NodeId ratee, double value,
                  std::size_t times) {
    for (std::size_t k = 0; k < times; ++k) {
      w.ratings.push_back(
          Rating{rater, ratee, value, 0, 0, st::reputation::kNoInterest});
    }
    w.graph.record_interaction(rater, ratee,
                               static_cast<double>(times));
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
      rate(v, peer, rng.bernoulli(0.85) ? 1.0 : -1.0, 1);
    }
    for (int k = 0; k < 2; ++k) {
      NodeId mid = neighbors[rng.index(neighbors.size())];
      auto second = w.graph.neighbors(mid);
      if (second.empty()) continue;
      NodeId hop2 = second[rng.index(second.size())];
      if (hop2 != v) rate(v, hop2, 1.0, 1);
    }
    // A fifth of the population also rates a distant stranger — the
    // Eq. 4 bottleneck-path branch whose BFS dominates a cold interval.
    if (rng.bernoulli(0.2)) {
      rate(v, static_cast<NodeId>(rng.index(n)), 1.0, 1);
    }
  }
  return w;
}

/// Mutates the social state of roughly `pct`% of the nodes — new
/// interactions towards existing neighbours, occasionally a fresh
/// interest request — and returns the exact count of distinct nodes
/// touched. Relationships are left alone: the topology only changes at
/// setup and on whitewashing in the simulator, and the path cache is
/// exactly the bet that it rarely does.
std::size_t apply_churn(Workload& w, st::stats::Rng& rng, double pct) {
  const std::size_t n = w.graph.size();
  const auto target = static_cast<std::size_t>(
      static_cast<double>(n) * pct / 100.0);
  std::vector<bool> touched(n, false);
  std::size_t distinct = 0;
  for (std::size_t step = 0; step < target; ++step) {
    const auto v = static_cast<NodeId>(rng.index(n));
    auto neighbors = w.graph.neighbors(v);
    if (neighbors.empty()) continue;
    const NodeId peer = neighbors[rng.index(neighbors.size())];
    w.graph.record_interaction(v, peer, 1.0 + rng.uniform());
    if (rng.bernoulli(0.3)) {
      w.profiles.record_request(
          v, static_cast<st::reputation::InterestId>(rng.index(20)), 1.0);
    }
    if (!touched[v]) {
      touched[v] = true;
      ++distinct;
    }
  }
  return distinct;
}

/// Rewires the friendship topology around roughly `pct`% of the nodes:
/// each step picks a node and either drops the friendship to one of its
/// current neighbours or befriends a random stranger (alternating, so
/// the edge count stays roughly stable across a long run). Every flip
/// moves the graph's structure epoch, so every cached path genuinely
/// misses — the scenario the steady-state preset (apply_churn)
/// deliberately avoids.
std::size_t apply_rel_churn(Workload& w, st::stats::Rng& rng, double pct) {
  const std::size_t n = w.graph.size();
  const auto target = static_cast<std::size_t>(
      static_cast<double>(n) * pct / 100.0);
  std::vector<bool> touched(n, false);
  std::size_t distinct = 0;
  for (std::size_t step = 0; step < target; ++step) {
    const auto v = static_cast<NodeId>(rng.index(n));
    bool flipped = false;
    if (step % 2 == 0) {
      auto neighbors = w.graph.neighbors(v);
      if (!neighbors.empty()) {
        const NodeId peer = neighbors[rng.index(neighbors.size())];
        flipped = w.graph.remove_relationship(
            v, peer, st::graph::Relationship::kFriendship);
      }
    } else {
      const auto u = static_cast<NodeId>(rng.index(n));
      if (u != v) {
        flipped = w.graph.add_relationship(
            v, u, st::graph::Relationship::kFriendship);
      }
    }
    if (flipped && !touched[v]) {
      touched[v] = true;
      ++distinct;
    }
  }
  return distinct;
}

/// Bit-for-bit identity of what the determinism contract covers: the
/// adjusted rating stream and the wrapped system's reputations.
bool outputs_identical(const SocialTrustPlugin& a,
                       const SocialTrustPlugin& b) {
  auto ra = a.last_adjusted();
  auto rb = b.last_adjusted();
  if (ra.size() != rb.size()) return false;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].rater != rb[i].rater || ra[i].ratee != rb[i].ratee ||
        !bits_equal(ra[i].value, rb[i].value)) {
      return false;
    }
  }
  auto pa = a.reputations();
  auto pb = b.reputations();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (!bits_equal(pa[i], pb[i])) return false;
  }
  return true;
}

struct Row {
  std::size_t nodes = 0;
  std::size_t pairs = 0;
  std::size_t threads = 0;
  std::size_t steady_intervals = 0;
  double churn_node_pct = 0.0;   ///< measured distinct-nodes-mutated share
  double cold_ms = 0.0;          ///< per steady-state interval
  double warm_ms = 0.0;          ///< per steady-state interval
  double speedup = 0.0;
  double structure_hit_rate_pct = 0.0;  ///< steady-state intervals
  /// Most paths the warm cache held after a steady-state interval.
  std::size_t max_warm_paths = 0;
  bool identical = true;
};

double timed_update(SocialTrustPlugin& plugin,
                    std::span<const Rating> ratings) {
  auto start = std::chrono::steady_clock::now();
  plugin.update(ratings);
  auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// One full interval sequence (fresh workload, fresh plugins) for one
/// (nodes, threads) configuration.
Row run_sequence(std::size_t n, std::size_t threads, std::size_t intervals,
                 double churn_pct, double rel_churn_pct,
                 std::uint64_t seed) {
  st::stats::Rng rng(seed);
  Workload w = make_workload(n, rng);

  SocialTrustConfig cfg;
  cfg.threads = threads;
  SocialTrustPlugin warm(std::make_unique<st::reputation::EbayReputation>(n),
                         w.graph, w.profiles, cfg);
  SocialTrustPlugin cold(std::make_unique<st::reputation::EbayReputation>(n),
                         w.graph, w.profiles, cfg);

  Row row;
  row.nodes = n;
  row.threads = threads;
  double cold_total = 0.0, warm_total = 0.0;
  std::size_t churn_nodes = 0;
  SocialStateCache::StatsSnapshot steady_base;
  for (std::size_t interval = 0; interval < intervals; ++interval) {
    if (interval > 0) {
      churn_nodes += apply_churn(w, rng, churn_pct);
      if (rel_churn_pct > 0.0) apply_rel_churn(w, rng, rel_churn_pct);
    }
    cold.social_cache().clear();  // the retired per-interval-memo regime
    // Alternate which plugin runs first so neither systematically
    // benefits from CPU caches warmed by the other.
    double cold_ms = 0.0, warm_ms = 0.0;
    if (interval % 2 == 0) {
      cold_ms = timed_update(cold, w.ratings);
      warm_ms = timed_update(warm, w.ratings);
    } else {
      warm_ms = timed_update(warm, w.ratings);
      cold_ms = timed_update(cold, w.ratings);
    }
    row.identical = row.identical && outputs_identical(cold, warm);
    if (interval == 0) {
      steady_base = warm.social_cache().stats();
    } else {
      cold_total += cold_ms;
      warm_total += warm_ms;
      row.max_warm_paths =
          std::max(row.max_warm_paths, warm.social_cache().size());
    }
  }
  row.pairs = warm.last_report().pairs_total;
  row.steady_intervals = intervals > 1 ? intervals - 1 : 0;
  if (row.steady_intervals > 0) {
    const auto steady = static_cast<double>(row.steady_intervals);
    row.cold_ms = cold_total / steady;
    row.warm_ms = warm_total / steady;
    row.speedup = warm_total > 0.0 ? cold_total / warm_total : 0.0;
    row.churn_node_pct = 100.0 *
                         static_cast<double>(churn_nodes) / steady /
                         static_cast<double>(n);
    const auto stats = warm.social_cache().stats();
    const auto shits =
        static_cast<double>(stats.structure_hits - steady_base.structure_hits);
    const auto smisses = static_cast<double>(stats.structure_misses -
                                             steady_base.structure_misses);
    row.structure_hit_rate_pct =
        shits + smisses > 0.0 ? 100.0 * shits / (shits + smisses) : 0.0;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  st::util::CliArgs args(argc, argv);
  const st::bench::CommonFlags common =
      st::bench::parse_common_flags(args, "1,4", "1,2", 2, 1);
  const bool quick = common.quick;
  auto node_counts = st::bench::parse_size_list(
      args.get_or("nodes", quick ? "1000" : "1000,10000"));
  const auto& thread_counts = common.threads;
  const auto intervals = static_cast<std::size_t>(
      args.get_int("intervals", quick ? 4 : 8));
  const std::size_t reps = common.reps;
  const double churn_pct =
      static_cast<double>(args.get_int("churn", 8));
  const double rel_churn_pct =
      static_cast<double>(args.get_int("rel-churn", 0));
  const std::uint64_t seed = common.seed;

  std::cout << "=== bench_incremental_closeness ===\n"
            << "(warm = persistent SocialStateCache, cold = cache wiped "
               "every interval;\n " << intervals << " intervals, interval 0 "
            << "excluded as cold start, churn " << churn_pct
            << "% of nodes/interval,\n relationship churn " << rel_churn_pct
            << "% of nodes/interval, min of " << reps
            << " reps; hardware threads: "
            << std::thread::hardware_concurrency() << ")\n\n";

  std::vector<Row> rows;
  for (std::size_t n : node_counts) {
    for (std::size_t threads : thread_counts) {
      Row best;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        Row row = run_sequence(n, threads, intervals, churn_pct,
                               rel_churn_pct, seed);
        if (rep == 0) {
          best = row;
        } else {
          // Identity and hit rate are deterministic per seed; only the
          // wall-clock varies, so keep the quietest rep of each side.
          best.identical = best.identical && row.identical;
          best.max_warm_paths =
              std::max(best.max_warm_paths, row.max_warm_paths);
          best.cold_ms = std::min(best.cold_ms, row.cold_ms);
          best.warm_ms = std::min(best.warm_ms, row.warm_ms);
          best.speedup =
              best.warm_ms > 0.0 ? best.cold_ms / best.warm_ms : 0.0;
        }
      }
      rows.push_back(best);
    }
  }

  st::util::Table table({"nodes", "pairs", "threads", "cold ms", "warm ms",
                         "speedup", "struct hits", "max warm paths",
                         "identical"});
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.nodes), std::to_string(r.pairs),
                   std::to_string(r.threads), st::util::fmt(r.cold_ms, 2),
                   st::util::fmt(r.warm_ms, 2), st::util::fmt(r.speedup, 2),
                   st::util::fmt(r.structure_hit_rate_pct, 1) + "%",
                   std::to_string(r.max_warm_paths),
                   r.identical ? "yes" : "NO (BUG)"});
  }
  std::cout << table.to_string() << "\n";

  bool all_identical = true;
  bool warm_stored_nothing = true;
  bool hit_rate_ok = true;
  bool speedup_ok = true;
  for (const Row& r : rows) {
    all_identical = all_identical && r.identical;
    warm_stored_nothing = warm_stored_nothing && r.max_warm_paths == 0;
    hit_rate_ok = hit_rate_ok && r.structure_hit_rate_pct >= 80.0;
    speedup_ok = speedup_ok && r.speedup >= 2.0;
  }
  // Topology churn deliberately defeats the path cache's
  // steady-state assumption, so under --rel-churn the performance gates
  // become informational, and the gate is instead that the warm cache
  // stored no path; bit-identity stays a hard gate regardless.
  const bool perf_gated = rel_churn_pct <= 0.0;
  if (!all_identical) {
    std::cout << "BIT-IDENTITY VIOLATION: warm cache changed the adjusted "
                 "ratings or reputations\n";
  }
  if (!perf_gated && !warm_stored_nothing) {
    std::cout << "STORE VIOLATION: the warm cache held paths after an "
                 "interval opened after a relationship change\n";
  }
  if (!hit_rate_ok) {
    std::cout << (perf_gated
                      ? "HIT RATE BELOW TARGET: steady-state path hit rate "
                        "under 80%\n"
                      : "note: steady-state path hit rate under 80% (not "
                        "gated under --rel-churn)\n");
  }
  if (!speedup_ok) {
    std::cout << (!perf_gated
                      ? "note: steady-state speedup under 2x (not gated "
                        "under --rel-churn)\n"
                  : quick ? "note: steady-state speedup under 2x (not gated "
                            "in --quick)\n"
                          : "SPEEDUP BELOW TARGET: steady-state speedup "
                            "under 2x\n");
  }

  if (auto json_path = args.get("json"); json_path && !json_path->empty()) {
    std::ofstream out(*json_path);
    if (!out) {
      std::cerr << "cannot open " << *json_path << " for writing\n";
      return 2;
    }
    out << "{\n  \"bench\": \"bench_incremental_closeness\",\n"
        << "  \"seed\": " << seed << ",\n  \"reps\": " << reps
        << ",\n  \"intervals\": " << intervals
        << ",\n  \"churn_pct\": " << st::util::fmt(churn_pct, 1)
        << ",\n  \"rel_churn_pct\": " << st::util::fmt(rel_churn_pct, 1)
        << ",\n  \"hardware_threads\": "
        << std::thread::hardware_concurrency()
        << ",\n  \"warm_bit_identical_to_cold\": "
        << (all_identical ? "true" : "false") << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"nodes\": " << r.nodes << ", \"pairs\": " << r.pairs
          << ", \"threads\": " << r.threads
          << ", \"steady_intervals\": " << r.steady_intervals
          << ", \"churn_node_pct\": " << st::util::fmt(r.churn_node_pct, 2)
          << ", \"cold_ms_per_interval\": " << st::util::fmt(r.cold_ms, 3)
          << ", \"warm_ms_per_interval\": " << st::util::fmt(r.warm_ms, 3)
          << ", \"speedup\": " << st::util::fmt(r.speedup, 3)
          << ", \"structure_hit_rate_pct\": "
          << st::util::fmt(r.structure_hit_rate_pct, 2)
          << ", \"max_warm_paths\": " << r.max_warm_paths << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "(json: " << *json_path << ")\n";
  }

  if (!all_identical) return 1;
  if (!perf_gated && !warm_stored_nothing) return 1;
  if (perf_gated && !hit_rate_ok) return 1;
  if (perf_gated && !quick && !speedup_ok) return 1;
  return 0;
}
