/** @file
 * AnalyticBatch runs its passes on a runner's workers and prices
 * serially: on a fig4-shaped grid over synthetic and trace streams,
 * every result must equal the serial batch's at any worker count,
 * whether the jobs arrive in one list or in sweep-sized chunks. A
 * pass keeps only its baseline counts after run(), and still refuses
 * a configuration it was never given.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analytic/analytic_engine.hh"
#include "core/size_schedule.hh"
#include "scenario/scenario_spec.hh"
#include "tests/sim/expect_same_result.hh"
#include "workload/profiles.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

namespace
{

constexpr std::uint64_t kInsts = 30000;

std::vector<BenchmarkProfile>
streams()
{
    BenchmarkProfile trace;
    std::string err;
    EXPECT_TRUE(traceProfileFromSpec(
        "trace:" + std::string(RCACHE_TEST_DATA_DIR) + "/mini.trace",
        &trace, &err))
        << err;
    return {profileByName("ammp"), profileByName("gcc"),
            profileByName("swim"), trace};
}

/** The Figure 4 grid per stream: both sides, ways and sets, assoc
 *  2..16, the full-size baseline plus every static level. */
std::vector<RunJob>
fig4Grid()
{
    std::vector<RunJob> jobs;
    for (const BenchmarkProfile &profile : streams()) {
        for (const Organization org :
             {Organization::SelectiveWays, Organization::SelectiveSets}) {
            for (const unsigned assoc : {2u, 4u, 8u, 16u}) {
                RunJob base;
                base.profile = profile;
                base.insts = kInsts;
                base.engine = EngineSpec::makeAnalytic();
                base.cfg.il1.assoc = assoc;
                base.cfg.dl1.assoc = assoc;
                base.cfg.il1Org = org;
                base.cfg.dl1Org = org;
                base.label = profile.name + "/" +
                             organizationToken(org) + "/a" +
                             std::to_string(assoc);
                jobs.push_back(base);
                for (const bool icache : {false, true}) {
                    const CacheGeometry &g =
                        icache ? base.cfg.il1 : base.cfg.dl1;
                    const auto levels = buildSchedule(org, g).size();
                    for (unsigned lvl = 0; lvl < levels; ++lvl) {
                        RunJob j = base;
                        ResizeSetup &side = icache ? j.il1 : j.dl1;
                        side.strategy = Strategy::Static;
                        side.staticLevel = lvl;
                        j.label += (icache ? "/i" : "/d") +
                                   std::to_string(lvl);
                        jobs.push_back(j);
                    }
                }
            }
        }
    }
    return jobs;
}

AnalyticBatch
registered(const std::vector<RunJob> &jobs)
{
    AnalyticBatch batch;
    for (const RunJob &job : jobs)
        batch.registerConfig(job.cfg, job.profile, job.insts);
    return batch;
}

} // namespace

TEST(AnalyticBatchTest, ParallelEqualsSerial)
{
    const std::vector<RunJob> jobs = fig4Grid();
    const std::vector<RunResult> serial = registered(jobs).price(jobs);
    ASSERT_EQ(serial.size(), jobs.size());

    for (const unsigned workers : {1u, 2u, 3u, 8u}) {
        const SweepRunner runner(workers);
        AnalyticBatch batch = registered(jobs);
        const std::vector<RunResult> all = batch.price(jobs, runner);
        ASSERT_EQ(all.size(), jobs.size());
        for (std::size_t k = 0; k < jobs.size(); ++k)
            expectSame(all[k], serial[k],
                       jobs[k].label + " @" + std::to_string(workers));

        // Sweep-sized chunks: each price() call runs the passes its
        // jobs need plus later ones, and never a pass twice.
        AnalyticBatch chunked = registered(jobs);
        for (std::size_t at = 0; at < jobs.size(); at += 7) {
            const std::vector<RunJob> chunk(
                jobs.begin() + at,
                jobs.begin() + std::min(at + 7, jobs.size()));
            const std::vector<RunResult> got =
                chunked.price(chunk, runner);
            for (std::size_t k = 0; k < chunk.size(); ++k)
                expectSame(got[k], serial[at + k],
                           chunk[k].label + " chunked @" +
                               std::to_string(workers));
        }
    }
}

TEST(AnalyticBatchTest, BaselineAfterRun)
{
    SystemConfig cfg;
    AnalyticPass pass(profileByName("gcc"), kInsts);
    pass.addConfig(cfg);
    pass.run();

    // The counts the cross-check compared survive the contexts.
    const AnalyticPass::BaselineStats &b = pass.baseline(cfg);
    EXPECT_EQ(b.il1Accesses, pass.il1Accesses());
    EXPECT_EQ(b.dl1Accesses, pass.dl1Accesses());
    EXPECT_EQ(b.dl1Misses,
              pass.dl1MissesAt(cfg.dl1.numSets(), cfg.dl1.assoc));
    EXPECT_GT(b.l2Accesses, 0u);

    SystemConfig other = cfg;
    other.dl1.assoc = cfg.dl1.assoc * 2;
    EXPECT_DEATH(pass.baseline(other), "no baseline context");
}

} // namespace rcache
