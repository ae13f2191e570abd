/**
 * @file
 * Regenerates Figure 4: average processor energy-delay reduction of
 * static selective-ways vs static selective-sets for 32K d- and
 * i-caches at 2/4/8/16-way set-associativity, on the base
 * out-of-order processor.
 *
 * Paper shape to verify: selective-sets wins at <= 4-way (peaking at
 * 4-way), selective-ways wins at >= 8-way and grows with
 * associativity.
 *
 * The design space lives in scenarios/fig4.scn (side x assoc x org
 * axes); this bench renders it as the paper's two per-side panels,
 * averaging over the suite. `rcache-sim sweep --scenario
 * scenarios/fig4.scn` reports the same cells as CSV rows.
 */

#include "bench/common.hh"

using namespace rcache;

int
main()
{
    const bench::Figure fig(bench::loadScenario("fig4.scn"));
    bench::banner(
        "Figure 4: resizable cache organizations",
        "Fig 4 (static selective-ways vs selective-sets, 2..16-way)",
        fig.spec().insts);

    const double n = static_cast<double>(fig.numApps());
    for (const std::string &side :
         bench::axisValues(fig.spec(), "side")) {
        std::cout << bench::sidePanel(side)
                  << " — avg reduction (%) in processor "
                     "energy-delay\n\n";
        TextTable t({"assoc", "selective-ways", "selective-sets"});
        for (const std::string &assoc :
             bench::axisValues(fig.spec(), "assoc")) {
            const auto avg = [&](const char *org) {
                return TextTable::pct(
                    fig.sum(&SweepRecord::edReductionPct,
                            {{"side", side},
                             {"assoc", assoc},
                             {"org", org}}) /
                    n);
            };
            t.addRow({assoc + "-way", avg("ways"), avg("sets")});
        }
        t.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "paper: d$ ways 5/8/11/15, sets 9/11/9/6; "
                 "i$ ways 6/10/13/17, sets 11/12/11/8.\n";
    return 0;
}
