// Ablation: substrate-level design choices.
//   * the paper-variant EigenTrust vs the faithful Kamvar et al.
//     power iteration (which resists pair-wise collusion natively);
//   * repeat patronage (sticky selection) on/off;
//   * distributed SocialTrust overhead: cross-manager social-information
//     fetches per interval as the manager count grows.

#include "common.hpp"
#include "core/resource_manager.hpp"

int main(int argc, char** argv) {
  st::bench::Context ctx(argc, argv, "ablation_mechanisms");

  ctx.heading("EigenTrust variant under PCM B=0.6");
  {
    st::util::Table table({"variant", "colluder mean rep",
                           "pretrusted mean rep",
                           "% requests to colluders"});
    for (const std::string& system :
         {std::string("EigenTrust"), std::string("EigenTrust(Kamvar)")}) {
      auto agg = run_experiment(
          ctx.paper_config(0.6),
          st::bench::system_by_name(system, ctx.threads()),
          st::bench::strategy_by_name("PCM", {}));
      table.add_row({system, st::util::fmt(agg.colluder_mean.mean(), 6),
                     st::util::fmt(agg.pretrusted_mean.mean(), 6),
                     st::util::fmt(agg.colluder_share.mean() * 100.0, 2) +
                         "%"});
    }
    ctx.emit("eigentrust_variant", table);
    std::cout << "(the faithful row-normalised EigenTrust resists PCM by "
                 "construction;\n the paper's evaluation dynamics require "
                 "the weighted-accumulation variant — see DESIGN.md)\n\n";
  }

  ctx.heading("repeat patronage (sticky selection) under PCM B=0.6");
  {
    st::util::Table table({"selection", "colluder mean rep",
                           "% requests to colluders"});
    for (bool sticky : {true, false}) {
      auto config = ctx.paper_config(0.6);
      config.sim.sticky_selection = sticky;
      auto agg = run_experiment(config,
                                st::bench::system_by_name("EigenTrust"),
                                st::bench::strategy_by_name("PCM", {}));
      table.add_row({sticky ? "sticky (default)" : "uniform re-draw",
                     st::util::fmt(agg.colluder_mean.mean(), 6),
                     st::util::fmt(agg.colluder_share.mean() * 100.0, 2) +
                         "%"});
    }
    ctx.emit("sticky_selection", table);
  }

  ctx.heading("distributed SocialTrust: manager traffic under PCM B=0.6");
  {
    st::util::Table table({"managers", "ratings routed/interval",
                           "info requests/interval", "local hits/interval"});
    for (std::size_t managers : {1u, 2u, 4u, 8u, 16u}) {
      st::core::SocialTrustConfig manager_config;
      manager_config.threads = ctx.threads();
      auto factory = st::sim::make_distributed_socialtrust_factory(
          st::sim::make_paper_eigentrust_factory(), manager_config, managers);
      // One run is enough: traffic accounting is per-interval and stable.
      auto config = ctx.paper_config(0.6);
      config.runs = 1;
      st::sim::Simulator sim(
          config.sim, factory,
          std::make_unique<st::collusion::PairwiseCollusion>(),
          ctx.seed());
      auto* net = dynamic_cast<st::core::ResourceManagerNetwork*>(
          &sim.system());
      sim.run();
      const auto& total = net->total_traffic();
      auto cycles = static_cast<double>(config.sim.simulation_cycles);
      table.add_row(
          {std::to_string(managers),
           st::util::fmt(static_cast<double>(total.ratings_routed) / cycles,
                         0),
           st::util::fmt(static_cast<double>(total.info_requests) / cycles,
                         1),
           st::util::fmt(static_cast<double>(total.local_hits) / cycles,
                         1)});
    }
    ctx.emit("manager_traffic", table);
  }
  return 0;
}
