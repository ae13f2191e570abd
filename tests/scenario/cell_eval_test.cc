/** @file
 * Tests for the shared cell-evaluation path (scenario/cell_eval.hh):
 * records must not depend on how cells are grouped into batches —
 * the sweep's chunk boundaries — and must be exactly the rows
 * runScenarioSweep writes.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <sstream>

#include "scenario/cell_eval.hh"
#include "scenario/scenario_sweep.hh"

namespace rcache
{

namespace
{

/** side=both cells (static only) over a 'mix' axis. */
const char *const kBothMix = R"([scenario]
name = cell-eval-both
insts = 12000

[cores]
count = 2
quantum = 4000

[workloads]
apps = gcc

[axes]
mix = gcc+m88ksim,ammp
side = dcache,both
org = ways,sets

[search]
strategy = static
)";

/** Dynamic-strategy cells over a 'mix' axis. */
const char *const kDynamicMix = R"([scenario]
name = cell-eval-dynamic
insts = 12000

[cores]
count = 2
quantum = 4000

[workloads]
apps = gcc

[axes]
mix = gcc+m88ksim,ammp
strategy = static,dynamic

[search]
side = dcache
org = sets
intervals = 1024
miss-fractions = 0.01
size-fractions = 0,1
)";

std::string
csvOf(const std::vector<SweepRecord> &records)
{
    std::ostringstream os;
    os << sweepCsvHeader() << '\n';
    writeSweepCsvRows(os, records);
    return os.str();
}

/** A serial PhaseRunner that counts the jobs it runs. */
PhaseRunner
countingRunner(std::size_t &runs)
{
    return [&runs](std::vector<RunJob> &jobs,
                   const std::vector<std::size_t> &cells) {
        EXPECT_EQ(cells.size(), jobs.size());
        runs += jobs.size();
        return SweepRunner::runSerial(jobs);
    };
}

void
expectChunkInvariant(const char *text)
{
    std::string err;
    const auto spec = ScenarioSpec::parseText(text, "cell-eval.scn",
                                              &err);
    ASSERT_TRUE(spec) << err;
    const auto space = ParamSpace::build(*spec, &err);
    ASSERT_TRUE(space) << err;
    const std::vector<AppEntry> apps = resolveApps(*spec, &err);
    ASSERT_FALSE(apps.empty()) << err;
    const CellScope scope{*space, apps};
    std::vector<std::size_t> cells(apps.size() * space->numPoints());
    std::iota(cells.begin(), cells.end(), 0);

    // Every cell in one batch.
    BaselineMemo whole_memo;
    std::size_t whole_runs = 0;
    const std::vector<SweepRecord> whole = evaluateCells(
        scope, cells, whole_memo, countingRunner(whole_runs));
    ASSERT_EQ(whole.size(), cells.size());

    // One cell per batch, the memo carried across batches: the
    // smallest chunks a sweep can form.
    BaselineMemo carried;
    std::size_t single_runs = 0;
    std::vector<SweepRecord> single;
    for (const std::size_t cell : cells) {
        const auto recs = evaluateCells(scope, {cell}, carried,
                                        countingRunner(single_runs));
        ASSERT_EQ(recs.size(), 1u);
        single.push_back(recs[0]);
    }
    EXPECT_EQ(csvOf(single), csvOf(whole));
    // The carried memo ran each baseline once, like the single batch.
    EXPECT_EQ(single_runs, whole_runs);
    EXPECT_EQ(carried.size(), whole_memo.size());

    SweepOptions so;
    so.jobs = 2;
    so.quiet = true;
    so.outPath = testing::TempDir() + "/cell_eval_" + spec->name +
                 ".csv";
    ASSERT_EQ(runScenarioSweep(*space, so), 0);
    std::ifstream in(so.outPath, std::ios::binary);
    std::ostringstream swept;
    swept << in.rdbuf();
    EXPECT_EQ(swept.str(), csvOf(whole));
}

} // namespace

TEST(CellEvalTest, BothSidesMixRecordsIndependentOfChunking)
{
    expectChunkInvariant(kBothMix);
}

TEST(CellEvalTest, DynamicMixRecordsIndependentOfChunking)
{
    expectChunkInvariant(kDynamicMix);
}

} // namespace rcache
