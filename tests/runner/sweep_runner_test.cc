/** @file Tests for the sweep runner: ordering, determinism,
 *  progress, cancellation, and parity with serial Experiment use. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>

#include "runner/sweep_runner.hh"
#include "sim/experiment.hh"

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
        auto s = exp.staticSearchJobs(profileByName(name),
                                      CacheSide::DCache,
                                      Organization::SelectiveSets);
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

TEST(SweepRunnerTest, ExperimentSearchesIdenticalWithAndWithoutRunner)
{
    const auto p = profileByName("ammp");

    Experiment serial(SystemConfig::base(), kInsts);
    const auto s_static = serial.staticSearch(
        p, CacheSide::DCache, Organization::SelectiveSets);
    const auto s_both =
        serial.staticSearchBoth(p, Organization::SelectiveSets);

    Experiment threaded(SystemConfig::base(), kInsts);
    SweepRunner runner(4);
    threaded.setRunner(&runner);
    const auto t_static = threaded.staticSearch(
        p, CacheSide::DCache, Organization::SelectiveSets);
    const auto t_both =
        threaded.staticSearchBoth(p, Organization::SelectiveSets);

    EXPECT_EQ(s_static.bestLevel, t_static.bestLevel);
    expectIdentical(s_static.baseline, t_static.baseline);
    expectIdentical(s_static.best, t_static.best);
    EXPECT_EQ(s_both.bestLevel, t_both.bestLevel);
    expectIdentical(s_both.best, t_both.best);
}

TEST(SweepRunnerTest, DynamicSearchIdenticalWithAndWithoutRunner)
{
    const auto p = profileByName("swim");

    Experiment serial(SystemConfig::base(), kInsts);
    const auto s = serial.dynamicSearch(
        p, CacheSide::DCache, Organization::SelectiveSets);

    Experiment threaded(SystemConfig::base(), kInsts);
    SweepRunner runner(3);
    threaded.setRunner(&runner);
    const auto t = threaded.dynamicSearch(
        p, CacheSide::DCache, Organization::SelectiveSets);

    expectIdentical(s.best, t.best);
    EXPECT_EQ(s.bestParams.intervalAccesses,
              t.bestParams.intervalAccesses);
    EXPECT_EQ(s.bestParams.missBound, t.bestParams.missBound);
    EXPECT_EQ(s.bestParams.sizeBoundBytes,
              t.bestParams.sizeBoundBytes);
}

TEST(SweepRunnerTest, ExecuteRunJobIsPure)
{
    Experiment exp(SystemConfig::base(), kInsts);
    const RunJob job = exp.baselineJob(profileByName("gcc"));
    expectIdentical(executeRunJob(job), executeRunJob(job));
}

TEST(SweepRunnerTest, BaselineMemoSafeUnderConcurrentUse)
{
    // Hammer the memoized baseline from many threads; TSan-clean and
    // every thread must observe the same result.
    Experiment exp(SystemConfig::base(), kInsts);
    const auto p = profileByName("ammp");
    const RunResult ref = exp.baseline(p);

    ThreadPool pool(4);
    std::atomic<int> mismatches{0};
    for (int i = 0; i < 16; ++i) {
        pool.submit([&] {
            RunResult r = exp.baseline(p);
            if (r.cycles != ref.cycles ||
                r.energy.total() != ref.energy.total())
                ++mismatches;
        });
    }
    pool.waitIdle();
    EXPECT_EQ(mismatches.load(), 0);
}

} // namespace rcache
