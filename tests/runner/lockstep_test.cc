/** @file
 * Lockstep groups: Systems fed one shared stream in windows must
 * report exactly what each reports when run alone from its own
 * workload, under the full-detail and the sampled engine. Covered:
 * synthetic and trace streams, both core models, every resizing
 * strategy, every replacement policy, a sampled run ending in a
 * short tail period, telemetry (timeline rows, warmup rows included,
 * on an interval neither the window nor the spans divide, and resize
 * events), the group plan, and whole mixed batches through
 * SweepRunner at several worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "cache/replacement.hh"
#include "runner/sweep_runner.hh"
#include "sim/experiment.hh"
#include "telemetry/run_telemetry.hh"
#include "tests/sim/expect_same_result.hh"
#include "workload/profiles.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

namespace
{

constexpr std::uint64_t kInsts = 30000;

/** The sampled points' engine and length: four 7000-instruction
 *  periods, then a 1500-instruction tail period that keeps its 1000
 *  measured instructions and warms only 500. */
const EngineSpec kSampled = EngineSpec::makeSampled(7000, 1000, 2000);
constexpr std::uint64_t kSampledInsts = 29500;

BenchmarkProfile
traceProfile(const std::string &file)
{
    BenchmarkProfile p;
    std::string err;
    EXPECT_TRUE(traceProfileFromSpec(
        "trace:" + std::string(RCACHE_TEST_DATA_DIR) + "/" + file, &p,
        &err))
        << err;
    return p;
}

std::vector<BenchmarkProfile>
streams()
{
    return {profileByName("gcc"), profileByName("swim"),
            traceProfile("mini.trace"), traceProfile("skewed_scan.trace")};
}

/** One design point on @p profile: dl1 resizing by @p strategy
 *  (level 1, or a short controller interval) under @p policy. */
RunJob
designPoint(const BenchmarkProfile &profile, CoreModel model,
            const std::string &policy, Strategy strategy)
{
    RunJob job;
    job.profile = profile;
    job.insts = kInsts;
    job.cfg.coreModel = model;
    job.cfg.policy = policy;
    if (strategy != Strategy::None)
        job.cfg.dl1Org = Organization::SelectiveSets;
    job.dl1.strategy = strategy;
    job.dl1.staticLevel = 1;
    job.dl1.dyn.intervalAccesses = 512;
    job.dl1.dyn.missBound = 16;
    job.label = profile.name + "/" + policy + "/" +
                strategyName(strategy) + "/" +
                (model == CoreModel::InOrder ? "io" : "ooo");
    return job;
}

/** Both core models x none/static/dynamic dl1 resizing x three
 *  policies, all on @p profile, in full detail. */
std::vector<RunJob>
designPoints(const BenchmarkProfile &profile)
{
    std::vector<RunJob> jobs;
    for (const CoreModel model :
         {CoreModel::OutOfOrder, CoreModel::InOrder})
        for (const char *policy : {"lru", "random", "wtlfu"})
            for (const Strategy strategy :
                 {Strategy::None, Strategy::Static, Strategy::Dynamic})
                jobs.push_back(
                    designPoint(profile, model, policy, strategy));
    return jobs;
}

/** Every replacement policy x static/dynamic dl1 resizing on
 *  @p profile under kSampled, the in-order core on alternate points. */
std::vector<RunJob>
sampledPoints(const BenchmarkProfile &profile)
{
    std::vector<RunJob> jobs;
    for (const std::string &policy : replacementPolicyNames()) {
        for (const Strategy strategy :
             {Strategy::Static, Strategy::Dynamic}) {
            const CoreModel model = jobs.size() % 2
                                        ? CoreModel::InOrder
                                        : CoreModel::OutOfOrder;
            RunJob job = designPoint(profile, model, policy, strategy);
            job.insts = kSampledInsts;
            job.engine = kSampled;
            job.label += "/sampled";
            jobs.push_back(job);
        }
    }
    return jobs;
}

/** The full-detail and the sampled design points on @p profile, as
 *  the two groups a sweep would lockstep. */
std::vector<std::vector<RunJob>>
groupsOn(const BenchmarkProfile &profile)
{
    return {designPoints(profile), sampledPoints(profile)};
}

/** The reference: a fresh workload and System for @p job alone. */
RunResult
solo(const RunJob &job)
{
    const std::unique_ptr<Workload> wl = makeWorkload(job.profile);
    System sys(job.cfg);
    return sys.run(*wl, job.insts, job.il1, job.dl1, job.engine,
                   job.telemetry);
}

std::vector<std::size_t>
allOf(const std::vector<RunJob> &jobs)
{
    std::vector<std::size_t> group(jobs.size());
    std::iota(group.begin(), group.end(), 0);
    return group;
}

std::string
timelineText(const RunTelemetry &t)
{
    std::ostringstream os;
    writeTimelineJsonl(os, t.timeline);
    return os.str();
}

std::string
eventsText(const RunTelemetry &t)
{
    std::ostringstream os;
    writeResizeEventsJsonl(os, t.events.events());
    return os.str();
}

} // namespace

TEST(LockstepTest, GroupEqualsSoloOnEveryStream)
{
    for (const BenchmarkProfile &profile : streams()) {
        for (const std::vector<RunJob> &jobs : groupsOn(profile)) {
            std::vector<double> busy;
            const std::vector<RunResult> grouped =
                executeLockstep(jobs, allOf(jobs), &busy);
            ASSERT_EQ(grouped.size(), jobs.size());
            ASSERT_EQ(busy.size(), jobs.size());
            for (std::size_t k = 0; k < jobs.size(); ++k) {
                expectSame(grouped[k], solo(jobs[k]), jobs[k].label);
                EXPECT_GE(busy[k], 0.0);
            }
        }
    }
}

TEST(LockstepTest, DynamicPointsActuallyResize)
{
    // The identity above is only meaningful if the dynamic points
    // move levels mid-run on some stream, under each engine.
    std::uint64_t full = 0;
    std::uint64_t sampled = 0;
    for (const BenchmarkProfile &profile : streams()) {
        for (const std::vector<RunJob> &jobs : groupsOn(profile)) {
            for (const RunResult &r : executeLockstep(jobs, allOf(jobs)))
                (r.engine == EngineMode::Sampled ? sampled : full) +=
                    r.dl1Resizes;
        }
    }
    EXPECT_GT(full, 0u);
    EXPECT_GT(sampled, 0u);
}

TEST(LockstepTest, TelemetryEqualsSolo)
{
    // 777 shares no factor with the 128-instruction stream window or
    // the sampled spans (2000 warm, 1000 measured, a 500-instruction
    // tail warmup), so probe samples, warmup rows included, fall
    // mid-window and mid-span.
    for (const BenchmarkProfile &profile :
         {profileByName("swim"), traceProfile("skewed_scan.trace")}) {
        for (std::vector<RunJob> &jobs : groupsOn(profile)) {
            std::vector<RunTelemetry> grouped_t(jobs.size());
            std::vector<RunTelemetry> solo_t(jobs.size());
            for (std::size_t k = 0; k < jobs.size(); ++k) {
                for (RunTelemetry *t : {&grouped_t[k], &solo_t[k]}) {
                    t->timelineInterval = 777;
                    t->resizeEvents = true;
                }
            }
            for (std::size_t k = 0; k < jobs.size(); ++k)
                jobs[k].telemetry = &grouped_t[k];
            const std::vector<RunResult> grouped =
                executeLockstep(jobs, allOf(jobs));

            bool any_events = false;
            for (std::size_t k = 0; k < jobs.size(); ++k) {
                jobs[k].telemetry = &solo_t[k];
                expectSame(grouped[k], solo(jobs[k]), jobs[k].label);
                EXPECT_FALSE(grouped_t[k].timeline.empty());
                EXPECT_EQ(timelineText(grouped_t[k]),
                          timelineText(solo_t[k]))
                    << jobs[k].label;
                EXPECT_EQ(eventsText(grouped_t[k]),
                          eventsText(solo_t[k]))
                    << jobs[k].label;
                any_events =
                    any_events || !grouped_t[k].events.empty();
                const bool warmup_rows = std::any_of(
                    grouped_t[k].timeline.begin(),
                    grouped_t[k].timeline.end(),
                    [](const TimelineRow &r) {
                        return r.phase == "warmup";
                    });
                EXPECT_EQ(warmup_rows, jobs[k].engine.sampled())
                    << jobs[k].label;
            }
            EXPECT_TRUE(any_events) << profile.name;
        }
    }
}

TEST(LockstepTest, PlanGroupsJobsSharingStreamAndEngine)
{
    std::vector<RunJob> jobs;
    const auto add = [&](const char *app, std::uint64_t insts) {
        RunJob job;
        job.profile = profileByName(app);
        job.insts = insts;
        jobs.push_back(job);
        return jobs.size() - 1;
    };
    const EngineSpec sampled = EngineSpec::makeSampled(10000, 1000, 2000);
    for (int i = 0; i < 10; ++i)
        add("gcc", kInsts);                    // jobs 0-9
    add("gcc", 2 * kInsts);                    // 10: another length
    jobs[add("gcc", kInsts)].engine = sampled; // 11: sampled
    jobs[add("gcc", kInsts)].cfg.cores = 2;    // 12: multi-core
    BenchmarkProfile reseeded = profileByName("gcc");
    reseeded.seed = 7;                         // 13: same name, other
    jobs.push_back(jobs[0]);                   //     stream
    jobs.back().profile = reseeded;
    add("gcc", kInsts);                        // 14: joins jobs 0-9
    jobs[add("gcc", kInsts)].engine =          // 15: another shape
        EngineSpec::makeSampled(10000, 1000, 3000);
    jobs[add("gcc", kInsts)].engine =          // 16: analytic
        EngineSpec::makeAnalytic();
    jobs[add("gcc", kInsts)].engine = sampled; // 17: joins job 11
    const std::size_t multi_sampled = add("gcc", kInsts);
    jobs[multi_sampled].engine = sampled;      // 18: multi-core,
    jobs[multi_sampled].cfg.cores = 2;         //     sampled
    jobs[add("gcc", kInsts)].engine = sampled; // 19: joins job 11
    jobs[add("gcc", kInsts)].engine = sampled; // 20: joins job 11

    using Groups = std::vector<std::vector<std::size_t>>;
    // One worker: the full-detail stream of 11 jobs splits at the cap
    // of 8; the four sampled jobs of one shape form one group.
    EXPECT_EQ(planLockstepGroups(jobs, 1),
              (Groups{{0, 1, 2, 3, 4, 5, 6, 7},
                      {8, 9, 14},
                      {10},
                      {11, 17, 19, 20},
                      {12},
                      {13},
                      {15},
                      {16},
                      {18}}));
    // Three workers: K = ceil(11 / 3) = 4 for the full-detail stream
    // and ceil(4 / 3) = 2 for the sampled one.
    EXPECT_EQ(planLockstepGroups(jobs, 3),
              (Groups{{0, 1, 2, 3},
                      {4, 5, 6, 7},
                      {8, 9, 14},
                      {10},
                      {11, 17},
                      {12},
                      {13},
                      {15},
                      {16},
                      {18},
                      {19, 20}}));
    // More workers than jobs: every job runs alone.
    EXPECT_EQ(planLockstepGroups(jobs, 16).size(), jobs.size());
}

TEST(LockstepTest, MixedBatchMatchesSerialAtEveryJobCount)
{
    // Full-detail jobs of two apps at two lengths, sampled copies of
    // some of them (grouped apart from the full-detail ones), and a
    // multi-core job that must bypass grouping.
    std::vector<RunJob> jobs;
    for (const std::uint64_t insts : {kInsts, kInsts + 5000}) {
        Experiment exp(SystemConfig::base(), insts);
        for (const char *app : {"ammp", "gcc"}) {
            const auto s = exp.searchJobs(
                profileByName(app), CacheSide::DCache,
                Organization::SelectiveSets, Strategy::Static);
            jobs.insert(jobs.end(), s.begin(), s.end());
        }
        const auto d = exp.searchJobs(profileByName("swim"),
                                      CacheSide::DCache,
                                      Organization::SelectiveSets,
                                      Strategy::Dynamic);
        jobs.insert(jobs.end(), d.begin(), d.begin() + 4);
    }
    for (std::size_t i = 0; i < 5; ++i) {
        RunJob sampled = jobs[i];
        sampled.engine = EngineSpec::makeSampled(10000, 1000, 2000);
        jobs.push_back(sampled);
    }
    RunJob multi = jobs.front();
    multi.cfg.cores = 2;
    multi.mixProfiles = {profileByName("gcc"), profileByName("swim")};
    jobs.push_back(multi);
    jobs.push_back(jobs[1]);

    const std::vector<RunResult> serial = SweepRunner::runSerial(jobs);
    for (const unsigned workers : {1u, 2u, 3u, 8u}) {
        SweepRunner runner(workers);
        const std::vector<RunResult> got = runner.run(jobs);
        ASSERT_EQ(got.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            expectSame(got[i], serial[i],
                       jobs[i].label + " @jobs " +
                           std::to_string(workers));
    }
}

} // namespace rcache
