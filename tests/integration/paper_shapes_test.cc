/** @file
 * End-to-end checks of the paper's headline results at reduced
 * scale: Fig 9's additivity and ~20% combined saving, and the Fig 4
 * organization crossover.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/experiment.hh"
#include "tests/scenario/sweep_cells.hh"

namespace rcache
{

namespace
{
/** Static selective-sets cells at 250k instructions; @p body holds
 *  the [system], [workloads] and [axes] sections. */
std::vector<SweepRecord>
cells(const std::string &body)
{
    return sweepCells("[scenario]\ninsts = 250000\n\n" + body);
}
} // namespace

TEST(PaperShapesTest, Fig9AdditivityOnFavourableApps)
{
    const auto r = cells(R"([workloads]
apps = ammp,m88ksim,ijpeg

[axes]
side = dcache,icache,both
)");
    ASSERT_EQ(r.size(), 9u);
    for (std::size_t i = 0; i < r.size(); i += 3) {
        const SweepRecord &d = r[i], &ic = r[i + 1], &both = r[i + 2];
        // Combined savings within 4 points of the sum (paper: "the
        // overall reductions ... are close to the summation").
        EXPECT_NEAR(both.edReductionPct,
                    d.edReductionPct + ic.edReductionPct, 4.0)
            << both.app;
    }
}

TEST(PaperShapesTest, Fig9CombinedSavingsSubstantial)
{
    // Paper: ~20% average combined saving. Small-WS apps should
    // individually exceed 15% here.
    for (const SweepRecord &both : cells(R"([workloads]
apps = ammp,m88ksim

[search]
side = both
)"))
        EXPECT_GT(both.edReductionPct, 15.0) << both.app;
}

TEST(PaperShapesTest, Fig4CrossoverDcache)
{
    // selective-sets ahead at 4-way, selective-ways ahead at 16-way,
    // averaged over a representative app subset.
    const auto r = cells(R"([workloads]
apps = ammp,compress,vpr,su2cor

[axes]
assoc = 4,16
org = sets,ways
)");
    ASSERT_EQ(r.size(), 16u);
    // Per app: 4-way sets, 4-way ways, 16-way sets, 16-way ways.
    double sum[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < r.size(); ++i)
        sum[i % 4] += r[i].edReductionPct;
    EXPECT_GT(sum[0], sum[1]);
    EXPECT_GT(sum[3], sum[2]);
}

TEST(PaperShapesTest, EnergyDelayAlwaysPositiveAndFinite)
{
    const Experiment exp(SystemConfig::base(), 50000);
    std::vector<RunJob> jobs;
    for (const auto &p : spec2000Suite())
        jobs.push_back(exp.baselineJob(p));
    for (const RunResult &r : SweepRunner(2).run(jobs)) {
        EXPECT_GT(r.edp(), 0.0) << r.workload;
        EXPECT_TRUE(std::isfinite(r.edp())) << r.workload;
        EXPECT_GT(r.ipc(), 0.1) << r.workload;
        EXPECT_LT(r.ipc(), 4.0) << r.workload;
    }
}

} // namespace rcache
