// Ablation: which parts of SocialTrust do the work?
//
// Sweeps the design choices DESIGN.md calls out, under PCM/MMM at B=0.6:
//   * adjustment components — closeness-only (Eq. 6), similarity-only
//     (Eq. 8), combined (Eq. 9, paper default);
//   * Gaussian baseline — per-rater leave-one-out, system-wide empirical,
//     hybrid (default);
//   * Gaussian width — |max-min| (Eq. 6 literal) vs stddev (default);
//   * detector gating on/off;
//   * hardened Eq. (10)/behaviour-weighted similarity vs the static
//     Eq. (2)/Eq. (7) variants.
// Metric: mean colluder reputation (lower = stronger defence) and the
// request share leaked to colluders.

#include "common.hpp"

int main(int argc, char** argv) {
  st::bench::Context ctx(argc, argv, "ablation_components");

  struct Variant {
    std::string label;
    st::core::SocialTrustConfig config;
  };
  std::vector<Variant> variants;
  {
    st::core::SocialTrustConfig base;
    variants.push_back({"full SocialTrust (default)", base});
    auto v = base;
    v.components = st::core::AdjustmentComponents::kClosenessOnly;
    variants.push_back({"closeness only (Eq. 6)", v});
    v = base;
    v.components = st::core::AdjustmentComponents::kSimilarityOnly;
    variants.push_back({"similarity only (Eq. 8)", v});
    v = base;
    v.baseline = st::core::BaselineSource::kPerRater;
    variants.push_back({"per-rater baseline", v});
    v = base;
    v.baseline = st::core::BaselineSource::kSystemWide;
    variants.push_back({"system-wide baseline", v});
    v = base;
    v.width = st::core::GaussianWidth::kRange;
    variants.push_back({"width = |max-min| (literal Eq. 6)", v});
    v = base;
    v.gate_on_detector = false;
    variants.push_back({"no detector gate (adjust all)", v});
    v = base;
    v.weighted_relationships = false;
    v.weighted_interests = false;
    variants.push_back({"static info only (Eq. 2 / Eq. 7)", v});
  }

  for (const std::string& model : {std::string("PCM"), std::string("MMM")}) {
    ctx.heading("ablation under " + model + ", B=0.6");
    st::util::Table table({"variant", "colluder mean rep",
                           "normal mean rep", "% requests to colluders"});
    // Unprotected baseline for contrast.
    auto plain = run_experiment(ctx.paper_config(0.6),
                                st::bench::system_by_name("EigenTrust"),
                                st::bench::strategy_by_name(model, {}));
    table.add_row({"(no SocialTrust)",
                   st::util::fmt(plain.colluder_mean.mean(), 6),
                   st::util::fmt(plain.normal_mean.mean(), 6),
                   st::util::fmt(plain.colluder_share.mean() * 100.0, 2) +
                       "%"});
    for (const auto& variant : variants) {
      auto factory = st::sim::make_socialtrust_factory(
          st::sim::make_paper_eigentrust_factory(), variant.config,
          ctx.threads());
      auto agg = run_experiment(ctx.paper_config(0.6), factory,
                                st::bench::strategy_by_name(model, {}));
      table.add_row({variant.label,
                     st::util::fmt(agg.colluder_mean.mean(), 6),
                     st::util::fmt(agg.normal_mean.mean(), 6),
                     st::util::fmt(agg.colluder_share.mean() * 100.0, 2) +
                         "%"});
    }
    ctx.emit(model, table);
  }
  return 0;
}
