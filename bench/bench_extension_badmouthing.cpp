// Extension experiment: negative-rating collusion ("Similar results can be
// obtained for the collusion of negative ratings", Section 5.1).
//
// A colluding group floods negative ratings at victims — either the
// pretrusted nodes or normal competitors sharing the attackers' interests.
// Measured: how much reputation the victims lose under each system.
// Expected shape: SocialTrust's B4 detector attenuates the high-frequency
// negative ratings, so the victims keep their standing.

#include "collusion/badmouthing.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  st::bench::Context ctx(argc, argv, "extension_badmouthing");

  for (bool target_pretrusted : {true, false}) {
    ctx.heading(std::string("victims: ") +
                (target_pretrusted ? "pretrusted nodes"
                                   : "normal competitors"));
    st::sim::StrategyFactory strategy = [target_pretrusted] {
      st::collusion::BadMouthingOptions options;
      options.target_pretrusted = target_pretrusted;
      return std::make_unique<st::collusion::BadMouthingCollusion>(options);
    };

    st::util::Table table({"system", "pretrusted mean", "normal mean",
                           "attacker mean"});
    for (const std::string& system :
         {std::string("eBay"), std::string("eBay+SocialTrust"),
          std::string("EigenTrust"), std::string("EigenTrust+SocialTrust")}) {
      auto agg = run_experiment(
          ctx.paper_config(0.6),
          st::bench::system_by_name(system, ctx.threads()), strategy);
      table.add_row({system, st::util::fmt(agg.pretrusted_mean.mean(), 6),
                     st::util::fmt(agg.normal_mean.mean(), 6),
                     st::util::fmt(agg.colluder_mean.mean(), 6)});
    }
    ctx.emit(target_pretrusted ? "vs_pretrusted" : "vs_competitors", table);
  }
  return 0;
}
