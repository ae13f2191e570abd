/**
 * @file
 * Regenerates Figure 5: per-application comparison of static
 * selective-ways vs selective-sets for 32K 4-way d- and i-caches —
 * average cache-size reduction and processor energy-delay reduction.
 *
 * The design space lives in scenarios/fig5.scn (side x org axes on a
 * 4-way base system); this bench renders it as the paper's two
 * per-side panels.
 */

#include "bench/common.hh"

using namespace rcache;

int
main()
{
    const bench::Figure fig(bench::loadScenario("fig5.scn"));
    bench::banner(
        "Figure 5: selective-ways vs selective-sets, 4-way 32K",
        "Fig 5 (per-application size & energy-delay reductions)",
        fig.spec().insts);

    for (const std::string &side :
         bench::axisValues(fig.spec(), "side")) {
        std::cout << bench::sidePanel(side) << "\n\n";
        TextTable t({"app", "ways size-red", "sets size-red",
                     "ways E*D-red", "sets E*D-red", "ways perf",
                     "sets perf"});
        double wsz = 0, ssz = 0, wed = 0, sed = 0;
        for (std::size_t a = 0; a < fig.numApps(); ++a) {
            const SweepRecord &w =
                fig.cell(a, {{"side", side}, {"org", "ways"}});
            const SweepRecord &s =
                fig.cell(a, {{"side", side}, {"org", "sets"}});
            wsz += w.sizeReductionPct;
            ssz += s.sizeReductionPct;
            wed += w.edReductionPct;
            sed += s.edReductionPct;
            t.addRow({w.app, TextTable::pct(w.sizeReductionPct),
                      TextTable::pct(s.sizeReductionPct),
                      TextTable::pct(w.edReductionPct),
                      TextTable::pct(s.edReductionPct),
                      TextTable::pct(w.perfDegradationPct),
                      TextTable::pct(s.perfDegradationPct)});
        }
        const double n = static_cast<double>(fig.numApps());
        t.addRow({"AVG", TextTable::pct(wsz / n),
                  TextTable::pct(ssz / n), TextTable::pct(wed / n),
                  TextTable::pct(sed / n), "-", "-"});
        t.print(std::cout);
        std::cout << '\n';
    }
    return 0;
}
