/** @file Tests for the experiment (profiling search) driver. */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

namespace rcache
{

namespace
{
constexpr std::uint64_t kInsts = 120000;
} // namespace

TEST(ExperimentTest, BaselineIsMemoized)
{
    Experiment exp(SystemConfig::base(), kInsts);
    auto p = profileByName("ammp");
    RunResult a = exp.baseline(p);
    RunResult b = exp.baseline(p);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TEST(ExperimentTest, StaticSearchPicksMinimumED)
{
    Experiment exp(SystemConfig::base(), kInsts);
    auto p = profileByName("ammp");
    auto out = exp.staticSearch(p, CacheSide::DCache,
                                Organization::SelectiveSets);
    // ammp has a tiny working set: a much smaller cache must win.
    EXPECT_GT(out.bestLevel, 0u);
    EXPECT_GT(out.edReductionPct(), 5.0);
    EXPECT_LT(out.best.avgDl1Bytes, 32 * 1024.0);
    // And the best point cannot be worse than the full-size point.
    EXPECT_LE(out.best.edp(), out.baseline.edp() * 1.01);
}

TEST(ExperimentTest, StaticSearchOnlyTouchesRequestedSide)
{
    Experiment exp(SystemConfig::base(), kInsts);
    auto p = profileByName("ammp");
    auto d = exp.staticSearch(p, CacheSide::DCache,
                              Organization::SelectiveSets);
    EXPECT_DOUBLE_EQ(d.best.avgIl1Bytes, 32 * 1024.0);
    auto i = exp.staticSearch(p, CacheSide::ICache,
                              Organization::SelectiveSets);
    EXPECT_DOUBLE_EQ(i.best.avgDl1Bytes, 32 * 1024.0);
}

TEST(ExperimentTest, DynamicSearchNeverMuchWorseThanBaseline)
{
    // The grid includes a size-bound equal to the full size, so the
    // profiled dynamic point can only lose the resizing-tag-bit
    // overhead.
    Experiment exp(SystemConfig::base(), kInsts);
    for (const char *n : {"swim", "gcc"}) {
        auto out = exp.dynamicSearch(profileByName(n),
                                     CacheSide::DCache,
                                     Organization::SelectiveSets);
        EXPECT_GT(out.edReductionPct(), -1.0) << n;
    }
}

TEST(ExperimentTest, DynamicSearchShrinksSmallWorkingSet)
{
    Experiment exp(SystemConfig::base(), kInsts);
    auto out = exp.dynamicSearch(profileByName("ammp"),
                                 CacheSide::DCache,
                                 Organization::SelectiveSets);
    EXPECT_GT(out.sizeReductionPct(CacheSide::DCache), 30.0);
    EXPECT_GT(out.edReductionPct(), 3.0);
}

TEST(ExperimentTest, BothSidesOutcomeCombines)
{
    Experiment exp(SystemConfig::base(), kInsts);
    auto p = profileByName("m88ksim");
    auto both = exp.staticSearchBoth(p, Organization::SelectiveSets);
    EXPECT_LT(both.best.avgDl1Bytes, 32 * 1024.0);
    EXPECT_LT(both.best.avgIl1Bytes, 32 * 1024.0);
    auto d = exp.staticSearch(p, CacheSide::DCache,
                              Organization::SelectiveSets);
    auto i = exp.staticSearch(p, CacheSide::ICache,
                              Organization::SelectiveSets);
    // Additivity within slack (paper Fig 9).
    EXPECT_NEAR(both.edReductionPct(),
                d.edReductionPct() + i.edReductionPct(), 4.0);
}

TEST(ExperimentTest, RunPointHonorsExplicitSetups)
{
    Experiment exp(SystemConfig::base(), kInsts);
    auto p = profileByName("ammp");
    RunResult r = exp.runPoint(
        p, Organization::SelectiveSets, Organization::SelectiveWays,
        ResizeSetup{Strategy::Static, 1, {}},
        ResizeSetup{Strategy::Static, 1, {}});
    EXPECT_DOUBLE_EQ(r.avgIl1Bytes, 16 * 1024.0); // sets level 1
    EXPECT_DOUBLE_EQ(r.avgDl1Bytes, 16 * 1024.0); // ways level 1 (1w)
}

TEST(ExperimentTest, SearchGridsExposed)
{
    EXPECT_FALSE(Experiment::missBoundFractions().empty());
    EXPECT_FALSE(Experiment::intervalGrid().empty());
    for (double f : Experiment::missBoundFractions()) {
        EXPECT_GT(f, 0.0);
        EXPECT_LT(f, 1.0);
    }
}

TEST(ExperimentTest, TieBreakPrefersLargerCacheLowerIndex)
{
    // Equal-E.D candidates: the documented strict-< contract keeps
    // the first minimum, i.e. the lower index / larger cache.
    RunResult base;
    base.insts = 1000;
    base.cycles = 100;
    base.energy.core = 10.0;

    auto point = [](double energy, std::uint64_t cycles) {
        RunResult r;
        r.insts = 1000;
        r.cycles = cycles;
        r.energy.core = energy;
        return r;
    };
    // Levels 1 and 2 have exactly equal E.D (8*100 == 4*200);
    // level 3 is strictly worse.
    const std::vector<RunResult> results = {
        point(10.0, 100), point(8.0, 100), point(4.0, 200),
        point(12.0, 100)};
    const SearchOutcome out =
        Experiment::reduceStatic(base, results);
    EXPECT_EQ(out.bestLevel, 1u);
    EXPECT_DOUBLE_EQ(out.best.edp(), 800.0);

    // Same contract through the dynamic reduction.
    std::vector<SearchCandidate> grid(results.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        grid[i].setup.strategy = Strategy::Dynamic;
        grid[i].setup.dyn.intervalAccesses = 1024 * (i + 1);
    }
    const SearchOutcome dyn =
        Experiment::reduceSearch(base, grid, results);
    EXPECT_EQ(dyn.bestParams.intervalAccesses, 2 * 1024u);
}

TEST(ExperimentTest, ZeroBaselineGuardsReturnZero)
{
    // Degenerate baselines (zero E.D / zero enabled bytes) must not
    // divide by zero; the accessors warn and return 0.
    SearchOutcome out;
    out.best.cycles = 100;
    out.best.energy.core = 5.0;
    out.best.avgDl1Bytes = 1024;
    EXPECT_EQ(out.baseline.edp(), 0.0);
    EXPECT_DOUBLE_EQ(out.relativeED(), 0.0);
    EXPECT_DOUBLE_EQ(out.edReductionPct(), 0.0);
    EXPECT_DOUBLE_EQ(out.perfDegradationPct(), 0.0);
    EXPECT_DOUBLE_EQ(out.sizeReductionPct(CacheSide::DCache), 0.0);
    EXPECT_DOUBLE_EQ(out.sizeReductionPct(CacheSide::ICache), 0.0);
}

TEST(ExperimentTest, SearchGridOverrideShrinksDynamicGrid)
{
    Experiment exp(SystemConfig::base(), kInsts);
    const std::size_t full_size =
        exp.dynamicGrid(CacheSide::DCache,
                        Organization::SelectiveSets)
            .size();
    EXPECT_EQ(full_size, 2u * 4u * 4u);

    SearchGrid grid;
    grid.intervals = {4096};
    grid.missFractions = {0.01};
    grid.sizeFractions = {0, 1.0};
    exp.setSearchGrid(grid);
    const auto small = exp.dynamicGrid(CacheSide::DCache,
                                       Organization::SelectiveSets);
    ASSERT_EQ(small.size(), 2u);
    EXPECT_EQ(small[0].intervalAccesses, 4096u);
    EXPECT_EQ(small[0].missBound, 40u);
    EXPECT_EQ(small[0].sizeBoundBytes, 0u);
    EXPECT_EQ(small[1].sizeBoundBytes, 32u * 1024u);
}

TEST(ExperimentTest, GenericSearchMatchesWrappers)
{
    Experiment exp(SystemConfig::base(), kInsts);
    auto p = profileByName("ammp");
    const SearchOutcome wrapped = exp.staticSearch(
        p, CacheSide::DCache, Organization::SelectiveSets);
    const SearchOutcome generic =
        exp.search(p, CacheSide::DCache,
                   Organization::SelectiveSets, Strategy::Static);
    EXPECT_EQ(wrapped.bestLevel, generic.bestLevel);
    EXPECT_DOUBLE_EQ(wrapped.best.edp(), generic.best.edp());
}

TEST(ExperimentTest, PerfDegradationSignConvention)
{
    Experiment exp(SystemConfig::base(), kInsts);
    auto out = exp.staticSearch(profileByName("ammp"),
                                CacheSide::DCache,
                                Organization::SelectiveSets);
    // Downsizing can only slow the run down (or leave it equal).
    EXPECT_GE(out.perfDegradationPct(), -0.5);
}

} // namespace rcache
