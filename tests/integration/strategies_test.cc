/** @file
 * Cross-module integration tests for the strategy comparison
 * (paper Section 4.2) on a reduced scale.
 */

#include <gtest/gtest.h>

#include "tests/scenario/sweep_cells.hh"

namespace rcache
{

namespace
{
// Long enough for several periods of the phased profiles; the
// dynamic-vs-static contrast needs the adaptation to amortize.
constexpr std::uint64_t kInsts = 1200000;

/** Selective-sets cells at kInsts; @p body holds the [system],
 *  [workloads], [axes] and [search] sections. */
std::vector<SweepRecord>
cells(const std::string &body)
{
    return sweepCells("[scenario]\ninsts = " + std::to_string(kInsts) +
                      "\n\n" + body);
}
} // namespace

TEST(StrategiesIntegration, StaticMatchesDynamicOnConstantApps)
{
    // ammp's working set never changes: static captures everything
    // and dynamic converges to the same size (paper Sec 4.2.1 type 1).
    const auto r = cells(R"([workloads]
apps = ammp

[axes]
strategy = static,dynamic
)");
    ASSERT_EQ(r.size(), 2u);
    const SweepRecord &st = r[0], &dy = r[1];
    EXPECT_NEAR(st.edReductionPct, dy.edReductionPct, 2.0);
    EXPECT_GT(dy.sizeReductionPct, 50.0);
}

TEST(StrategiesIntegration, DynamicCompetitiveOnPeriodicAppInOrder)
{
    // su2cor + blocking d-cache: the exposed-miss scenario the paper
    // highlights for dynamic resizing. With our synthetic streams and
    // the faithful end-of-interval controller, dynamic matches static
    // within a small margin (the controller's hi-phase detection lag
    // costs roughly what the low-phase dips save; see
    // EXPERIMENTS.md); it must never be catastrophically worse.
    const auto r = cells(R"([system]
core = inorder

[workloads]
apps = su2cor

[axes]
strategy = static,dynamic
)");
    ASSERT_EQ(r.size(), 2u);
    const SweepRecord &st = r[0], &dy = r[1];
    EXPECT_GE(dy.edReductionPct, st.edReductionPct - 1.0);
    EXPECT_GE(dy.edReductionPct, -0.5);
}

TEST(StrategiesIntegration, OoOHidesMissLatencyForStatic)
{
    // With out-of-order issue the same app allows aggressive static
    // downsizing (paper Sec 4.2.1: "static resizing possibly performs
    // as good as dynamic").
    const auto r = cells(R"([workloads]
apps = su2cor

[axes]
core = ooo,inorder
)");
    ASSERT_EQ(r.size(), 2u);
    EXPECT_GT(r[0].edReductionPct, r[1].edReductionPct);
}

TEST(StrategiesIntegration, DynamicTracksPeriodicPhases)
{
    // The controller's level trace must actually move for a
    // periodic workload.
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;
    SyntheticWorkload wl(profileByName("su2cor"));
    System sys(cfg);
    DynamicParams dyn;
    dyn.intervalAccesses = 1024;
    dyn.missBound = 51; // 5%
    dyn.sizeBoundBytes = 8 * 1024;
    RunResult r = sys.run(wl, kInsts, {},
                          ResizeSetup{Strategy::Dynamic, 0, dyn});
    unsigned lo = 99, hi = 0;
    for (unsigned lvl : r.dl1LevelTrace) {
        lo = std::min(lo, lvl);
        hi = std::max(hi, lvl);
    }
    EXPECT_EQ(lo, 0u);  // reaches full size in the hi phase
    EXPECT_GE(hi, 1u);  // and shrinks in the lo phase
    EXPECT_GT(r.dl1Resizes, 2u);
}

TEST(StrategiesIntegration, ICacheSavesMoreOnInOrder)
{
    // Paper Sec 4.2.2: i-cache resizing achieves larger reductions on
    // the in-order processor (larger i-cache energy share).
    const auto r = cells(R"([workloads]
apps = ammp,compress,m88ksim

[axes]
core = ooo,inorder

[search]
side = icache
)");
    ASSERT_EQ(r.size(), 6u);
    double ooo_sum = 0, inord_sum = 0;
    for (std::size_t i = 0; i < r.size(); i += 2) {
        ooo_sum += r[i].edReductionPct;
        inord_sum += r[i + 1].edReductionPct;
    }
    EXPECT_GT(inord_sum, ooo_sum);
}

TEST(StrategiesIntegration, PerfDegradationWithinPaperBounds)
{
    // The paper reports all best-E*D points within 6% performance
    // degradation; check ours on the base config.
    for (const SweepRecord &out : cells(R"([workloads]
apps = ammp,gcc,su2cor,compress

[axes]
strategy = static,dynamic
)"))
        EXPECT_LT(out.perfDegradationPct, 6.0)
            << out.app << " " << out.strategy;
}

} // namespace rcache
