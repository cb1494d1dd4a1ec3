// Table 1: percentage of requests sent to colluders, for every collusion
// model (PCM/MCM/MMM), both colluder behaviours (B=0.2, B=0.6), and six
// system configurations — eBay, EigenTrust, EigenTrust with compromised
// pretrusted nodes ("(Pre)"), and each with SocialTrust.
//
// Paper shape: the baselines leak double-digit request shares to the
// colluders (more at B=0.6 and in the mutual models); every SocialTrust
// configuration pushes the share down to a few percent, compromised
// pretrusted nodes or not.

#include "common.hpp"

int main(int argc, char** argv) {
  st::bench::Context ctx(argc, argv, "table1_request_share");
  struct SystemSpec {
    std::string label;
    std::string factory;
    bool compromised;
  };
  const std::vector<SystemSpec> systems{
      {"eBay", "eBay", false},
      {"EigenTrust", "EigenTrust", false},
      {"EigenTrust (Pre)", "EigenTrust", true},
      {"eBay+SocialTrust", "eBay+SocialTrust", false},
      {"EigenTrust+SocialTrust", "EigenTrust+SocialTrust", false},
      {"EigenTrust+SocialTrust (Pre)", "EigenTrust+SocialTrust", true},
  };

  for (const std::string& model :
       {std::string("PCM"), std::string("MCM"), std::string("MMM")}) {
    ctx.heading("Table 1: " + model);
    st::util::Table table({"system", "B=0.2", "B=0.6"});
    for (const auto& spec : systems) {
      std::vector<std::string> row{spec.label};
      for (double b : {0.2, 0.6}) {
        st::collusion::CollusionOptions options;
        if (spec.compromised) options.compromised_pretrusted = 7;
        auto agg = run_experiment(
            ctx.paper_config(b),
            st::bench::system_by_name(spec.factory, ctx.threads()),
            st::bench::strategy_by_name(model, options));
        row.push_back(
            st::util::fmt(agg.colluder_share.mean() * 100.0, 1) + "%");
      }
      table.add_row(row);
    }
    ctx.emit(model, table);
  }
  return 0;
}
