/**
 * @file
 * Regenerates Figure 8: static vs dynamic resizing of a 2-way 32K
 * selective-sets i-cache on both processor configurations.
 *
 * Paper shape to verify: i-cache resizing saves more on the in-order
 * processor (larger i-cache energy share); dynamic's advantage grows
 * with out-of-order issue, where i-misses are more exposed.
 *
 * The design space lives in scenarios/fig8.scn (core x strategy
 * axes).
 */

#include "bench/common.hh"

using namespace rcache;

int
main()
{
    const bench::Figure fig(bench::loadScenario("fig8.scn"));
    bench::banner(
        "Figure 8: i-cache resizing strategy",
        "Fig 8 (static vs dynamic selective-sets, 2-way i-cache)",
        fig.spec().insts);
    bench::strategyPanels(fig);
    std::cout << "paper: (a) static 16%, dynamic 18%; "
                 "(b) static 11%, dynamic 15% (averages).\n";
    return 0;
}
