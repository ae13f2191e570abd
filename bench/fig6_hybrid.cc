/**
 * @file
 * Regenerates Figure 6: average processor energy-delay reduction of
 * the hybrid selective-sets-and-ways organization against both pure
 * organizations, 2..16-way 32K caches.
 *
 * Paper shape to verify: hybrid >= max(selective-ways,
 * selective-sets) at every associativity.
 *
 * The design space lives in scenarios/fig6.scn (side x assoc x org
 * axes); this bench renders it as the paper's two per-side panels.
 */

#include "bench/common.hh"

using namespace rcache;

int
main()
{
    const bench::Figure fig(bench::loadScenario("fig6.scn"));
    bench::banner("Figure 6: hybrid organization effectiveness",
                  "Fig 6 (hybrid vs selective-ways/sets, 2..16-way)",
                  fig.spec().insts);

    const double n = static_cast<double>(fig.numApps());
    for (const std::string &side :
         bench::axisValues(fig.spec(), "side")) {
        std::cout << bench::sidePanel(side)
                  << " — avg reduction (%) in processor "
                     "energy-delay\n\n";
        TextTable t({"assoc", "hybrid", "selective-ways",
                     "selective-sets", "hybrid>=both?"});
        for (const std::string &assoc :
             bench::axisValues(fig.spec(), "assoc")) {
            const auto sum = [&](const char *org) {
                return fig.sum(&SweepRecord::edReductionPct,
                               {{"side", side},
                                {"assoc", assoc},
                                {"org", org}});
            };
            const double hyb = sum("hybrid"), ways = sum("ways"),
                         sets = sum("sets");
            const bool dominates =
                hyb >= ways - 0.05 * n && hyb >= sets - 0.05 * n;
            t.addRow({assoc + "-way", TextTable::pct(hyb / n),
                      TextTable::pct(ways / n),
                      TextTable::pct(sets / n),
                      dominates ? "yes" : "NO"});
        }
        t.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "paper: hybrid d$ 9/12/13/15, i$ 11/13/14/17.\n";
    return 0;
}
