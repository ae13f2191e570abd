/** @file Tests for the sweep runner: ordering, determinism,
 *  progress, cancellation, and search cells that do not depend on
 *  the worker count. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>

#include "runner/sweep_runner.hh"
#include "sim/experiment.hh"
#include "tests/scenario/sweep_cells.hh"

namespace rcache
{

namespace
{

constexpr std::uint64_t kInsts = 60000;

/** Bit-identical comparison of everything a run reports. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.energy.total(), b.energy.total());
    EXPECT_EQ(a.avgIl1Bytes, b.avgIl1Bytes);
    EXPECT_EQ(a.avgDl1Bytes, b.avgDl1Bytes);
    EXPECT_EQ(a.il1MissRatio, b.il1MissRatio);
    EXPECT_EQ(a.dl1MissRatio, b.dl1MissRatio);
    EXPECT_EQ(a.l2MissRatio, b.l2MissRatio);
    EXPECT_EQ(a.il1Resizes, b.il1Resizes);
    EXPECT_EQ(a.dl1Resizes, b.dl1Resizes);
    EXPECT_EQ(a.il1LevelTrace, b.il1LevelTrace);
    EXPECT_EQ(a.dl1LevelTrace, b.dl1LevelTrace);
}

/** A mixed batch: static levels of two apps plus a few dynamic
 *  points, all through the public job enumeration. */
std::vector<RunJob>
mixedBatch(const Experiment &exp)
{
    std::vector<RunJob> jobs;
    for (const char *name : {"ammp", "gcc"}) {
        auto s = exp.searchJobs(profileByName(name), CacheSide::DCache,
                                Organization::SelectiveSets,
                                Strategy::Static);
        jobs.insert(jobs.end(), s.begin(), s.end());
    }
    auto d = exp.searchJobs(profileByName("swim"), CacheSide::DCache,
                            Organization::SelectiveSets,
                            Strategy::Dynamic);
    jobs.insert(jobs.end(), d.begin(), d.begin() + 6);
    return jobs;
}

} // namespace

TEST(SweepRunnerTest, ParallelResultsBitIdenticalToSerial)
{
    Experiment exp(SystemConfig::base(), kInsts);
    const auto jobs = mixedBatch(exp);

    const auto serial = SweepRunner::runSerial(jobs);
    SweepRunner parallel(4);
    const auto par = parallel.run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(par.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdentical(serial[i], par[i]);
}

TEST(SweepRunnerTest, ResultsAreInJobOrder)
{
    Experiment exp(SystemConfig::base(), kInsts);
    std::vector<RunJob> jobs;
    for (const char *name : {"ammp", "gcc", "swim", "vpr"})
        jobs.push_back(exp.baselineJob(profileByName(name)));

    SweepRunner runner(4);
    const auto results = runner.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(results[i].workload, jobs[i].profile.name);
}

TEST(SweepRunnerTest, ForEachCallsEveryIndexOnce)
{
    for (const unsigned workers : {1u, 3u}) {
        const SweepRunner runner(workers);
        std::vector<std::atomic<int>> calls(50);
        std::vector<std::size_t> order;
        std::mutex mtx;
        runner.forEach(calls.size(), [&](std::size_t i) {
            ++calls[i];
            std::lock_guard<std::mutex> lk(mtx);
            order.push_back(i);
        });
        for (const auto &c : calls)
            EXPECT_EQ(c.load(), 1);
        // At parallelism 1 the calls run inline, in index order.
        if (workers == 1)
            EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    }
}

TEST(SweepRunnerTest, ProgressReachesTotalExactlyOnce)
{
    Experiment exp(SystemConfig::base(), kInsts);
    std::vector<RunJob> jobs;
    for (const char *name : {"ammp", "gcc", "swim"})
        jobs.push_back(exp.baselineJob(profileByName(name)));

    SweepRunner runner(2);
    std::vector<std::size_t> seen;
    std::size_t total_seen = 0;
    runner.setProgress([&](std::size_t done, std::size_t total,
                           const RunJob &) {
        seen.push_back(done);
        total_seen = total;
    });
    runner.run(jobs);
    EXPECT_EQ(seen.size(), jobs.size());
    EXPECT_EQ(total_seen, jobs.size());
    // Every count 1..N reported exactly once (order may vary).
    std::sort(seen.begin(), seen.end());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i + 1);
}

TEST(SweepRunnerTest, CancelSkipsUnstartedJobs)
{
    Experiment exp(SystemConfig::base(), kInsts);
    std::vector<RunJob> jobs;
    for (const char *name : {"ammp", "gcc"})
        jobs.push_back(exp.baselineJob(profileByName(name)));

    SweepRunner runner(1);
    runner.requestCancel();
    const auto results = runner.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (const auto &r : results)
        EXPECT_EQ(r.insts, 0u) << "job ran despite cancellation";

    runner.resetCancel();
    const auto rerun = runner.run(jobs);
    EXPECT_GT(rerun[0].insts, 0u);
}

namespace
{

/** Every searched field of two record lists, compared exactly. */
void
expectSameRecords(const std::vector<SweepRecord> &a,
                  const std::vector<SweepRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].app + " " + a[i].axes);
        EXPECT_EQ(a[i].bestLevel, b[i].bestLevel);
        EXPECT_EQ(a[i].intervalAccesses, b[i].intervalAccesses);
        EXPECT_EQ(a[i].missBound, b[i].missBound);
        EXPECT_EQ(a[i].sizeBoundBytes, b[i].sizeBoundBytes);
        EXPECT_EQ(a[i].baselineEdp, b[i].baselineEdp);
        EXPECT_EQ(a[i].bestEdp, b[i].bestEdp);
        EXPECT_EQ(a[i].baselineCycles, b[i].baselineCycles);
        EXPECT_EQ(a[i].bestCycles, b[i].bestCycles);
        EXPECT_EQ(a[i].avgIl1Bytes, b[i].avgIl1Bytes);
        EXPECT_EQ(a[i].avgDl1Bytes, b[i].avgDl1Bytes);
    }
}

} // namespace

TEST(SweepRunnerTest, ExperimentSearchesIdenticalWithAndWithoutRunner)
{
    // Static per-side cells and the side=both combined point.
    const std::string scn = R"([scenario]
insts = 60000

[workloads]
apps = ammp

[axes]
side = dcache,both
)";
    expectSameRecords(sweepCells(scn, 1), sweepCells(scn, 3));
}

TEST(SweepRunnerTest, DynamicSearchIdenticalWithAndWithoutRunner)
{
    const std::string scn = R"([scenario]
insts = 60000

[workloads]
apps = swim

[search]
strategy = dynamic
)";
    expectSameRecords(sweepCells(scn, 1), sweepCells(scn, 3));
}

TEST(SweepRunnerTest, ExecuteRunJobIsPure)
{
    Experiment exp(SystemConfig::base(), kInsts);
    const RunJob job = exp.baselineJob(profileByName("gcc"));
    expectIdentical(executeRunJob(job), executeRunJob(job));
}

} // namespace rcache
