/** @file
 * Cross-module integration tests for the organization comparison
 * (paper Section 4.1) on a reduced scale: full System runs with
 * real profiles through the cell path, checking the qualitative
 * claims.
 */

#include <gtest/gtest.h>

#include <utility>

#include "tests/scenario/sweep_cells.hh"

namespace rcache
{

namespace
{
/** Static d-cache cells at 150k instructions on 32K L1s of
 *  associativity @p assoc; @p body holds the [workloads] and [axes]
 *  sections. */
std::vector<SweepRecord>
cells(unsigned assoc, const std::string &body,
      const std::string &side = "dcache")
{
    const std::string a = std::to_string(assoc);
    return sweepCells("[scenario]\ninsts = 150000\n\n[system]\n"
                      "il1.assoc = " + a + "\ndl1.assoc = " + a +
                      "\n\n[search]\nside = " + side + "\n\n" + body);
}

/** Per-org E.D reduction summed over @p apps (app order), for the
 *  org axis "ways,sets": {ways, sets}. */
std::pair<double, double>
waysVsSets(unsigned assoc, const std::string &apps,
           const std::string &side = "dcache")
{
    double ways = 0, sets = 0;
    const auto r = cells(assoc,
                         "[workloads]\napps = " + apps +
                             "\n\n[axes]\norg = ways,sets\n",
                         side);
    for (std::size_t i = 0; i < r.size(); i += 2) {
        ways += r[i].edReductionPct;
        sets += r[i + 1].edReductionPct;
    }
    return {ways, sets};
}
} // namespace

TEST(OrganizationsIntegration, SmallWsAppsPreferSelectiveSetsMinimum)
{
    // ammp (4-way): selective-sets reaches 4K, selective-ways stops
    // at one 8K way -> sets shrink further (paper Fig 5a).
    const auto r =
        cells(4, "[workloads]\napps = ammp\n\n[axes]\norg = sets,ways\n");
    ASSERT_EQ(r.size(), 2u);
    const SweepRecord &sets = r[0], &ways = r[1];
    EXPECT_LT(sets.avgDl1Bytes, ways.avgDl1Bytes);
    EXPECT_GE(sets.edReductionPct, ways.edReductionPct);
}

TEST(OrganizationsIntegration, ConflictAppsNeedAssociativity)
{
    // vpr carries a 4-block alias set: selective-sets (keeps 4 ways)
    // must beat selective-ways (drops ways) at 4-way (paper Fig 5a).
    const auto [ways, sets] = waysVsSets(4, "vpr");
    EXPECT_GT(sets, ways);
}

TEST(OrganizationsIntegration, LargeWsAppDoesNotDownsize)
{
    // swim's d-side streams through ~28K: downsizing thrashes, so
    // the profiling search keeps the full size (paper Fig 5a).
    for (const SweepRecord &out :
         cells(4, "[workloads]\napps = swim\n\n[axes]\n"
                  "org = sets,ways\n"))
        EXPECT_EQ(out.bestLevel, 0u) << out.org;
}

TEST(OrganizationsIntegration, HybridAtLeastAsGoodAsBoth4Way)
{
    // Paper Fig 6 at the Table 1 design point, on three contrasting
    // apps (small-WS, conflict-heavy, between-sizes).
    const auto r = cells(4, "[workloads]\napps = ammp,vpr,compress\n\n"
                            "[axes]\norg = hybrid,sets,ways\n");
    ASSERT_EQ(r.size(), 9u);
    for (std::size_t i = 0; i < r.size(); i += 3) {
        const SweepRecord &hyb = r[i], &sets = r[i + 1],
                          &ways = r[i + 2];
        EXPECT_GE(hyb.edReductionPct, sets.edReductionPct - 0.3)
            << hyb.app;
        EXPECT_GE(hyb.edReductionPct, ways.edReductionPct - 0.3)
            << hyb.app;
    }
}

TEST(OrganizationsIntegration, SelectiveWaysWinsAtHighAssoc)
{
    // 16-way: selective-ways' 2K-grain full-range spectrum dominates
    // selective-sets' coarse top (paper Fig 4, averaged here over a
    // few apps for speed).
    const auto [ways, sets] = waysVsSets(16, "ammp,compress,gcc,su2cor");
    EXPECT_GT(ways, sets);
}

TEST(OrganizationsIntegration, SelectiveSetsWinsAtLowAssocICache)
{
    // 2-way i-cache: selective-sets' smaller minimum size wins on
    // small-footprint apps (paper Fig 4b).
    const auto [ways, sets] =
        waysVsSets(2, "ammp,compress,m88ksim,swim", "icache");
    EXPECT_GT(sets, ways);
}

TEST(OrganizationsIntegration, ResizingTagOverheadVisibleAtFullSize)
{
    // A selective-sets cache left at full size pays only the
    // resizing tag bits vs a non-resizable baseline: a small but
    // non-zero energy-delay penalty.
    const SweepRecord out = cells(2, "[workloads]\napps = swim\n")[0];
    if (out.bestLevel == 0) {
        EXPECT_LT(out.edReductionPct, 0.0);
        EXPECT_GT(out.edReductionPct, -1.0);
    }
}

} // namespace rcache
