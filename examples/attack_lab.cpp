// Attack lab: a configurable command-line driver for exploring the full
// attack/defence matrix — choose the collusion model, colluder behaviour,
// population sizes, counterattacks, and the defending system, and get the
// reputation outcome and request-share leakage.
//
//   $ ./attack_lab --model MMM --b 0.6 --colluders 30 --system ...
//     (see flag list below)
//   $ ./attack_lab --model PCM --b 0.2 --compromised 7 --falsify
//   $ ./attack_lab --list
//
// Flags:
//   --model PCM|MCM|MMM      collusion model (default PCM)
//   --system <name>          defending system (default: compare all four)
//   --b <p>                  colluder authentic-service probability (0.6)
//   --colluders <n>          colluder count (30)
//   --pretrusted <n>         pretrusted count (9)
//   --compromised <n>        compromised pretrusted nodes (0)
//   --falsify                colluders falsify social information
//   --rate <n>               fake ratings per query cycle (20)
//   --distance <1-3>         conspirator social distance (1)
//   --cycles <n>, --runs <n>, --seed <u64>

#include <iostream>

#include "collusion/models.hpp"
#include "sim/experiment.hpp"
#include "sim/factories.hpp"
#include "stats/summary.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

st::sim::SystemFactory system_by_name(const std::string& name) {
  if (name == "eBay") return st::sim::make_ebay_factory();
  if (name == "EigenTrust") return st::sim::make_paper_eigentrust_factory();
  if (name == "eBay+SocialTrust")
    return st::sim::make_socialtrust_factory(st::sim::make_ebay_factory());
  if (name == "EigenTrust+SocialTrust")
    return st::sim::make_socialtrust_factory(
        st::sim::make_paper_eigentrust_factory());
  throw std::invalid_argument("unknown system '" + name +
                              "' (try --list)");
}

}  // namespace

int main(int argc, char** argv) {
  st::util::CliArgs args(argc, argv);
  if (args.has("list")) {
    std::cout << "models:  PCM MCM MMM\n"
              << "systems: eBay EigenTrust eBay+SocialTrust "
                 "EigenTrust+SocialTrust\n";
    return 0;
  }

  std::string model = args.get_or("model", "PCM");
  st::collusion::CollusionOptions options;
  options.ratings_per_query_cycle =
      static_cast<std::size_t>(args.get_int("rate", 20));
  options.compromised_pretrusted =
      static_cast<std::size_t>(args.get_int("compromised", 0));
  options.falsify_social_info = args.has("falsify");
  options.conspirator_distance =
      static_cast<std::size_t>(args.get_int("distance", 1));

  st::sim::ExperimentConfig config;
  config.sim.colluder_authentic = args.get_double("b", 0.6);
  config.sim.colluder_count =
      static_cast<std::size_t>(args.get_int("colluders", 30));
  config.sim.pretrusted_count =
      static_cast<std::size_t>(args.get_int("pretrusted", 9));
  config.sim.simulation_cycles =
      static_cast<std::size_t>(args.get_int("cycles", 50));
  config.runs = static_cast<std::size_t>(args.get_int("runs", 3));
  config.base_seed = args.get_u64("seed", 42);

  st::sim::StrategyFactory strategy =
      [&]() -> st::sim::StrategyFactory {
    if (model == "PCM")
      return [options] {
        return std::make_unique<st::collusion::PairwiseCollusion>(options);
      };
    if (model == "MCM")
      return [options] {
        return std::make_unique<st::collusion::MultiNodeCollusion>(options);
      };
    if (model == "MMM")
      return [options] {
        return std::make_unique<st::collusion::MutualMultiNodeCollusion>(
            options);
      };
    throw std::invalid_argument("unknown model '" + model + "'");
  }();

  std::cout << "attack lab: " << model
            << " (B=" << config.sim.colluder_authentic << ", "
            << config.sim.colluder_count << " colluders";
  if (options.compromised_pretrusted)
    std::cout << ", " << options.compromised_pretrusted
              << " compromised pretrusted";
  if (options.falsify_social_info) std::cout << ", falsified social info";
  if (options.conspirator_distance > 1)
    std::cout << ", conspirator distance " << options.conspirator_distance;
  std::cout << ")\n\n";

  std::vector<std::string> systems;
  if (auto chosen = args.get("system"); chosen && !chosen->empty()) {
    systems.push_back(*chosen);
  } else {
    systems = {"eBay", "EigenTrust", "eBay+SocialTrust",
               "EigenTrust+SocialTrust"};
  }

  st::util::Table table({"system", "colluders (boosted)", "normal mean",
                         "pretrusted", "% requests to colluders",
                         "median cycles to suppress"});
  for (const std::string& name : systems) {
    auto agg = run_experiment(config, system_by_name(name), strategy);
    st::stats::Accumulator boosted;
    for (const auto& run : agg.per_run) boosted.add(run.boosted_final_mean);
    table.add_row(
        {name, st::util::fmt(boosted.mean(), 6),
         st::util::fmt(agg.normal_mean.mean(), 6),
         st::util::fmt(agg.pretrusted_mean.mean(), 6),
         st::util::fmt(agg.colluder_share.mean() * 100.0, 2) + "%",
         st::util::fmt(
             st::stats::percentile(agg.pooled_convergence_cycles, 50), 0)});
  }
  table.print(std::cout);
  std::cout << "\n(suppression cycles of "
            << config.sim.simulation_cycles + 1
            << " mean the colluder never fell below 0.001)\n";
  return 0;
}
