// Extension experiment: whitewashing (identity reset) on top of pair-wise
// collusion — can colluders escape SocialTrust by shedding their crushed
// identities and rejoining fresh?
//
// Expected shape: no. A fresh identity has no earned reputation, so its
// partner's ratings carry no weight under the EigenTrust variant, and the
// re-established high-frequency concentration pattern is re-detected
// within one update interval. Whitewashing costs the attackers whatever
// standing they had without buying new amplification.

#include "collusion/whitewashing.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  st::bench::Context ctx(argc, argv, "extension_whitewashing");

  st::util::Table table({"system", "attack", "colluder mean rep",
                         "normal mean rep", "% requests to colluders"});
  for (const std::string& system :
       {std::string("EigenTrust"), std::string("EigenTrust+SocialTrust")}) {
    for (bool whitewash : {false, true}) {
      st::sim::StrategyFactory strategy;
      if (whitewash) {
        strategy = [] {
          return std::make_unique<st::collusion::WhitewashingCollusion>();
        };
      } else {
        strategy = st::bench::strategy_by_name("PCM", {});
      }
      auto agg = run_experiment(
          ctx.paper_config(0.6),
          st::bench::system_by_name(system, ctx.threads()), strategy);
      table.add_row({system, whitewash ? "PCM + whitewashing" : "PCM",
                     st::util::fmt(agg.colluder_mean.mean(), 6),
                     st::util::fmt(agg.normal_mean.mean(), 6),
                     st::util::fmt(agg.colluder_share.mean() * 100.0, 2) +
                         "%"});
    }
  }
  ctx.emit("comparison", table);
  return 0;
}
