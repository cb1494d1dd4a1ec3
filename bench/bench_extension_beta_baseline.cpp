// Extension experiment: the Beta reputation baseline (Jøsang & Ismail)
// under the paper's three collusion models, with and without SocialTrust.
//
// Demonstrates the plugin's system-agnosticism beyond the paper's own two
// baselines: Beta reputation aggregates per-ratee evidence with no rater
// weighting at all, so high-frequency fake ratings inflate it directly —
// and the same SocialTrust plugin attenuates them.

#include "common.hpp"
#include "reputation/beta.hpp"

namespace {

st::sim::SystemFactory make_beta_factory() {
  return [](const st::graph::SocialGraph&, const st::core::InterestProfiles&,
            const std::vector<st::sim::NodeId>&, std::size_t n) {
    return std::make_unique<st::reputation::BetaReputation>(n);
  };
}

}  // namespace

int main(int argc, char** argv) {
  st::bench::Context ctx(argc, argv, "extension_beta_baseline");

  for (const std::string& model :
       {std::string("PCM"), std::string("MCM"), std::string("MMM")}) {
    ctx.heading("Beta reputation under " + model + ", B=0.6");
    st::util::Table table({"system", "colluder mean rep", "normal mean rep",
                           "% requests to colluders"});
    auto plain = run_experiment(ctx.paper_config(0.6), make_beta_factory(),
                                st::bench::strategy_by_name(model, {}));
    table.add_row({"Beta", st::util::fmt(plain.colluder_mean.mean(), 6),
                   st::util::fmt(plain.normal_mean.mean(), 6),
                   st::util::fmt(plain.colluder_share.mean() * 100.0, 2) +
                       "%"});
    auto guarded = run_experiment(
        ctx.paper_config(0.6),
        st::sim::make_socialtrust_factory(make_beta_factory(),
                                          st::core::SocialTrustConfig{},
                                          ctx.threads()),
        st::bench::strategy_by_name(model, {}));
    table.add_row({"Beta+SocialTrust",
                   st::util::fmt(guarded.colluder_mean.mean(), 6),
                   st::util::fmt(guarded.normal_mean.mean(), 6),
                   st::util::fmt(guarded.colluder_share.mean() * 100.0, 2) +
                       "%"});
    ctx.emit(model, table);
  }
  return 0;
}
