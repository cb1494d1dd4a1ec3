#pragma once
// Shared driver code for the experiment benches.
//
// Every bench binary reproduces one table or figure of the paper: it runs
// the corresponding experiment at the paper's scale (Section 5.1 defaults),
// prints the rows/series the paper reports plus an ASCII rendering of the
// figure's shape, and optionally writes CSV for external plotting.
//
// Common flags (parsed by Context):
//   --seed <u64>    base RNG seed               (default 42)
//   --runs <n>      repetitions per experiment  (default 5, as in the paper)
//   --cycles <n>    simulation cycles           (default 50)
//   --csv <dir>     also write CSV files into <dir>
//   --quick         reduced scale for smoke runs (2 runs, 20 cycles)
//   --threads <n>   SocialTrust update-interval workers (default 1 =
//                   serial, 0 = hardware concurrency; results identical)
//   --obs           enable the metrics/tracing layer (src/obs/)
//   --obs-out <p>   as --obs, streaming interval events to <p> as JSONL
//                   (implies --obs; see docs/OBSERVABILITY.md)

#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "collusion/models.hpp"
#include "sim/experiment.hpp"
#include "sim/factories.hpp"
#include "stats/summary.hpp"
#include "util/ascii_chart.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace st::bench {

/// The flag vocabulary every bench binary shares, parsed in one place so
/// the figure drivers (via Context) and the standalone perf benches
/// (bench_parallel_update, bench_csr_graph)
/// agree on spelling and defaults:
///   --seed <u64>      base RNG seed                        (default 42)
///   --quick           reduced scale for smoke runs
///   --threads <list>  comma-separated worker counts; single values parse
///                     to a one-element list
///   --reps <n>        timed repetitions (min is kept)
///   --obs             enable the metrics/tracing layer
///   --obs-out <path>  as --obs, streaming interval events as JSONL
struct CommonFlags {
  std::uint64_t seed = 42;
  bool quick = false;
  std::vector<std::size_t> threads;
  std::size_t reps = 0;
  bool obs = false;
  std::string obs_out;  ///< empty unless --obs-out was given
};

/// Comma-separated positive integers ("1,2,8"); unparsable or
/// non-positive tokens are skipped, in line with the forgiving strtoll
/// behaviour of util::CliArgs.
std::vector<std::size_t> parse_size_list(const std::string& csv);

/// Parses the shared flags above. `default_threads` / `quick_threads`
/// are the --threads csv defaults at full and --quick scale
/// (quick_threads null = same as full); reps likewise.
CommonFlags parse_common_flags(const util::CliArgs& args,
                               const char* default_threads = "1",
                               const char* quick_threads = nullptr,
                               std::size_t default_reps = 3,
                               std::size_t quick_reps = 2);

class Context {
 public:
  Context(int argc, char** argv, std::string bench_name);

  /// The paper's Section 5.1 experiment configuration with the given
  /// colluder good-behaviour probability B.
  sim::ExperimentConfig paper_config(double colluder_b) const;

  /// Prints a table (and writes CSV when --csv was given).
  void emit(const std::string& table_name, const util::Table& table) const;

  /// Writes CSV only (no stdout) — for bulky per-node tables.
  void emit_csv(const std::string& table_name,
                const util::Table& table) const;

  /// Prints a section heading.
  void heading(const std::string& text) const;

  std::uint64_t seed() const noexcept { return seed_; }
  std::size_t runs() const noexcept { return runs_; }
  /// SocialTrust update-interval worker count (--threads).
  std::size_t threads() const noexcept { return threads_; }
  const util::CliArgs& args() const noexcept { return args_; }

 private:
  util::CliArgs args_;
  std::string bench_name_;
  std::uint64_t seed_;
  std::size_t runs_;
  std::size_t cycles_;
  std::size_t threads_;
  std::optional<std::string> csv_dir_;
};

/// Named system factories matching the paper's labels. Valid names:
/// "eBay", "EigenTrust", "eBay+SocialTrust", "EigenTrust+SocialTrust",
/// "EigenTrust(Kamvar)". Throws on unknown names. `threads` sets the
/// SocialTrust update-interval worker count for the +SocialTrust systems
/// (ignored by the bare baselines).
sim::SystemFactory system_by_name(const std::string& name,
                                  std::size_t threads = 1);

/// Strategy factory for "PCM" / "MCM" / "MMM" / "" (none).
sim::StrategyFactory strategy_by_name(const std::string& model,
                                      collusion::CollusionOptions options);

/// Group-level summary rows of one aggregated experiment (the numbers the
/// reputation-distribution figures visualise).
util::Table summary_table(const sim::AggregateResult& agg);

/// Renders the per-node reputation distribution (the paper's Figs. 7-18
/// panels) as an ASCII bar chart: pretrusted ids first, then colluders,
/// then bucketised normal nodes.
void print_distribution(const std::string& caption,
                        const sim::AggregateResult& agg,
                        const sim::SimConfig& cfg);

/// Per-node CSV table (node, type, mean reputation, ci) for one panel.
util::Table distribution_table(const sim::AggregateResult& agg,
                               const sim::SimConfig& cfg);

/// Runs one figure panel (one system under one attack) and prints it.
sim::AggregateResult run_panel(const Context& ctx, const std::string& panel,
                               const std::string& system,
                               const std::string& model,
                               collusion::CollusionOptions options,
                               double colluder_b);

/// Complete driver for the Figs. 8-18 family: runs the listed systems
/// against one attack and prints all panels plus a comparison summary.
void collusion_figure(Context& ctx, const std::string& figure,
                      const std::string& model,
                      collusion::CollusionOptions options, double colluder_b,
                      const std::vector<std::string>& systems);

}  // namespace st::bench
