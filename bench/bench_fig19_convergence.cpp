// Fig. 19: efficiency of collusion deterrence — number of simulation
// cycles until colluder reputations drop (and stay) below 0.001, under
// MMM, reported as 1st percentile / median / 99th percentile over all
// colluders and runs.
//
// Paper shape: EigenTrust and EigenTrust+SocialTrust converge within a few
// cycles; eBay takes several times longer (B = 0.2); at B = 0.6 only the
// SocialTrust-guarded systems converge at all (plain eBay cannot detect
// colluders, which is why the paper omits it from panel (b)).

#include "common.hpp"

int main(int argc, char** argv) {
  st::bench::Context ctx(argc, argv, "fig19_convergence");
  const auto cycles =
      static_cast<double>(ctx.paper_config(0.2).sim.simulation_cycles);

  for (double b : {0.2, 0.6}) {
    ctx.heading("Fig19(" + std::string(b == 0.2 ? "a" : "b") +
                "): cycles until colluder reputation < 0.001, MMM, B=" +
                st::util::fmt(b, 1));
    st::util::Table table({"system", "1st percentile", "median",
                           "99th percentile", "% colluders suppressed"});
    for (const std::string& system :
         {std::string("SocialTrust"), std::string("EigenTrust"),
          std::string("eBay")}) {
      // "SocialTrust" in the figure means EigenTrust+SocialTrust.
      std::string factory_name =
          system == "SocialTrust" ? "EigenTrust+SocialTrust" : system;
      auto agg = run_experiment(ctx.paper_config(b),
                                st::bench::system_by_name(factory_name,
                                                          ctx.threads()),
                                st::bench::strategy_by_name("MMM", {}));
      const auto& pooled = agg.pooled_convergence_cycles;
      std::size_t suppressed = 0;
      for (double c : pooled) {
        if (c <= cycles) ++suppressed;
      }
      table.add_row(
          {system, st::util::fmt(st::stats::percentile(pooled, 1), 1),
           st::util::fmt(st::stats::percentile(pooled, 50), 1),
           st::util::fmt(st::stats::percentile(pooled, 99), 1),
           st::util::fmt(100.0 * static_cast<double>(suppressed) /
                             static_cast<double>(pooled.size()),
                         1) +
               "%"});
    }
    ctx.emit(b == 0.2 ? "a_b02" : "b_b06", table);
  }
  std::cout << "(a convergence value of cycles+1 = " << cycles + 1
            << " means the colluder never dropped below 0.001)\n";
  return 0;
}
