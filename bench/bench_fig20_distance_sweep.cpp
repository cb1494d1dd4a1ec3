// Fig. 20: average colluder reputation vs the social distance between
// conspirators (1-3 hops), under EigenTrust+SocialTrust, for PCM, MCM and
// MMM, with the normal-node average for contrast.
//
// Paper shape: colluder reputations stay below normal nodes at every
// distance — keeping a "normal-looking" social distance does not rescue
// the attack, because SocialTrust also weighs interaction frequency and
// interest similarity.

#include "common.hpp"

int main(int argc, char** argv) {
  st::bench::Context ctx(argc, argv, "fig20_distance_sweep");
  st::util::Table table({"social hops", "colluders (PCM)", "colluders (MCM)",
                         "colluders (MMM)", "normal (PCM)", "normal (MCM)",
                         "normal (MMM)"});
  for (std::size_t distance = 1; distance <= 3; ++distance) {
    std::vector<std::string> row{std::to_string(distance)};
    std::vector<std::string> normal_cells;
    for (const std::string& model :
         {std::string("PCM"), std::string("MCM"), std::string("MMM")}) {
      st::collusion::CollusionOptions options;
      options.conspirator_distance = distance;
      auto agg = run_experiment(
          ctx.paper_config(0.6),
          st::bench::system_by_name("EigenTrust+SocialTrust", ctx.threads()),
          st::bench::strategy_by_name(model, options));
      row.push_back(st::util::fmt(agg.colluder_mean.mean(), 6));
      normal_cells.push_back(st::util::fmt(agg.normal_mean.mean(), 6));
    }
    for (auto& cell : normal_cells) row.push_back(cell);
    table.add_row(row);
  }
  ctx.emit("by_distance", table);
  return 0;
}
