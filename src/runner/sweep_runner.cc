#include "runner/sweep_runner.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "analytic/analytic_engine.hh"
#include "sim/multi_core_system.hh"
#include "telemetry/trace_events.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

namespace
{

/** Most jobs one lockstep group runs: bounds a worker's memory at
 *  this many Systems while amortizing the stream across them. */
constexpr std::size_t maxGroupJobs = 8;

} // namespace

RunResult
executeRunJob(const RunJob &job)
{
    // A single core would silently simulate only mixProfiles[0];
    // every layer above validates this (ParamSpace::build, the CLI),
    // so reaching here is a caller bug.
    rc_assert(job.cfg.cores > 1 || job.mixProfiles.size() <= 1);
    if (job.engine.analytic())
        return runAnalyticJob(job);
    if (job.cfg.cores > 1) {
        MultiCoreSystem sys(job.cfg);
        const std::vector<BenchmarkProfile> mix =
            job.mixProfiles.empty()
                ? std::vector<BenchmarkProfile>{job.profile}
                : job.mixProfiles;
        return sys
            .run(mix, job.insts, job.il1, job.dl1, job.engine,
                 job.telemetry)
            .aggregate;
    }
    const std::unique_ptr<Workload> wl = makeWorkload(job.profile);
    System sys(job.cfg);
    return sys.run(*wl, job.insts, job.il1, job.dl1, job.engine,
                   job.telemetry);
}

bool
lockstepEligible(const RunJob &job)
{
    return !job.engine.analytic() && job.cfg.cores == 1;
}

bool
baselineEquivalent(const RunJob &job)
{
    const auto full = [](const ResizeSetup &s) {
        return s.strategy == Strategy::None ||
               (s.strategy == Strategy::Static && s.staticLevel == 0);
    };
    return job.cfg.cores == 1 && full(job.il1) && full(job.dl1);
}

RunResult
foldIntoBaseline(const RunResult &baseline, const RunJob &job)
{
    rc_assert(baselineEquivalent(job));
    RunResult res = baseline;
    priceEnergy(res, job.cfg);
    return res;
}

std::vector<std::vector<std::size_t>>
planLockstepGroups(const std::vector<RunJob> &jobs,
                   unsigned parallelism)
{
    std::vector<std::vector<std::size_t>> groups;
    // Eligible jobs by stream, streams in order of first appearance.
    std::vector<std::vector<std::size_t>> streams;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!lockstepEligible(jobs[i])) {
            groups.push_back({i});
            continue;
        }
        const auto same = std::find_if(
            streams.begin(), streams.end(), [&](const auto &stream) {
                const RunJob &first = jobs[stream.front()];
                return first.insts == jobs[i].insts &&
                       first.engine == jobs[i].engine &&
                       first.profile == jobs[i].profile;
            });
        if (same != streams.end())
            same->push_back(i);
        else
            streams.push_back({i});
    }

    const std::size_t workers = std::max(1u, parallelism);
    for (const std::vector<std::size_t> &stream : streams) {
        const std::size_t k = std::min(
            maxGroupJobs, (stream.size() + workers - 1) / workers);
        for (std::size_t at = 0; at < stream.size(); at += k)
            groups.emplace_back(
                stream.begin() + at,
                stream.begin() + std::min(stream.size(), at + k));
    }
    std::sort(groups.begin(), groups.end(),
              [](const auto &a, const auto &b) {
                  return a.front() < b.front();
              });
    return groups;
}

std::vector<RunResult>
executeLockstep(const std::vector<RunJob> &jobs,
                const std::vector<std::size_t> &group,
                std::vector<double> *busy_seconds)
{
    using Clock = std::chrono::steady_clock;
    rc_assert(!group.empty());
    const RunJob &lead = jobs[group.front()];
    const std::size_t n = group.size();

    std::vector<Clock::duration> busy(n, Clock::duration::zero());
    const auto timed = [&](std::size_t k, const auto &fn) {
        if (!busy_seconds)
            return fn();
        const auto t0 = Clock::now();
        fn();
        busy[k] += Clock::now() - t0;
    };

    const std::unique_ptr<Workload> wl = makeWorkload(lead.profile);
    std::vector<std::unique_ptr<System>> systems(n);
    for (std::size_t k = 0; k < n; ++k) {
        const RunJob &job = jobs[group[k]];
        rc_assert(lockstepEligible(job) && job.insts == lead.insts &&
                  job.engine == lead.engine &&
                  job.profile == lead.profile);
        job.engine.validate();
        timed(k, [&] {
            systems[k] = std::make_unique<System>(job.cfg);
            systems[k]->open(job.il1, job.dl1, job.engine.mode,
                             job.telemetry);
        });
    }

    System::drive(*wl, lead.insts, lead.engine, [&](const auto &fn) {
        for (std::size_t k = 0; k < n; ++k)
            timed(k, [&] { fn(*systems[k]); });
    });

    std::vector<RunResult> results(n);
    const std::string name = wl->name();
    for (std::size_t k = 0; k < n; ++k) {
        timed(k, [&] {
            results[k] = systems[k]->result(name, lead.insts);
            systems[k].reset();
        });
    }
    if (busy_seconds) {
        busy_seconds->clear();
        for (const Clock::duration d : busy)
            busy_seconds->push_back(
                std::chrono::duration<double>(d).count());
    }
    return results;
}

SweepRunner::SweepRunner(unsigned num_jobs)
    : parallelism_(std::min(num_jobs == 0
                                ? ThreadPool::hardwareThreads()
                                : num_jobs,
                            ThreadPool::maxThreads))
{
    // Eager so concurrent run() calls on a shared runner never race
    // on pool creation.
    if (parallelism_ > 1)
        pool_ = std::make_unique<ThreadPool>(parallelism_);
}

SweepRunner::~SweepRunner() = default;

void
SweepRunner::reportProgress(std::size_t done, std::size_t total,
                            const RunJob &job) const
{
    if (!progress_)
        return;
    std::lock_guard<std::mutex> lk(progressMtx_);
    progress_(done, total, job);
}

std::vector<RunResult>
SweepRunner::runSerial(const std::vector<RunJob> &jobs)
{
    std::vector<RunResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        results[i] = executeRunJob(jobs[i]);
    return results;
}

void
SweepRunner::executeGroup(const std::vector<RunJob> &jobs,
                          const std::vector<std::size_t> &group,
                          std::uint64_t group_id,
                          std::vector<RunResult> &results) const
{
    using Clock = TraceEventRecorder::Clock;
    const Clock::time_point begin =
        trace_ ? trace_->now() : Clock::time_point{};
    std::vector<double> busy;
    if (group.size() == 1) {
        results[group.front()] = executeRunJob(jobs[group.front()]);
    } else {
        std::vector<RunResult> rs =
            executeLockstep(jobs, group, trace_ ? &busy : nullptr);
        for (std::size_t k = 0; k < group.size(); ++k)
            results[group[k]] = std::move(rs[k]);
    }
    if (!trace_)
        return;

    // One span per job, back to back over the group's window, each
    // sized by its System's share of the measured work (equal shares
    // when nothing was measured).
    const Clock::time_point end = trace_->now();
    double total = std::accumulate(busy.begin(), busy.end(), 0.0);
    if (total <= 0) {
        busy.assign(group.size(), 1.0);
        total = static_cast<double>(group.size());
    }
    double upto = 0;
    Clock::time_point at = begin;
    for (std::size_t k = 0; k < group.size(); ++k) {
        upto += busy[k];
        const Clock::time_point to =
            k + 1 == group.size()
                ? end
                : begin + std::chrono::duration_cast<Clock::duration>(
                              (end - begin) * (upto / total));
        const RunJob &job = jobs[group[k]];
        TraceEventRecorder::Args args{{"label", job.label}};
        if (!job.tracePoint.empty())
            args.emplace_back("point", job.tracePoint);
        args.emplace_back("group", std::to_string(group_id));
        args.emplace_back("group_size", std::to_string(group.size()));
        trace_->completeSpan(job.label, at, to, std::move(args));
        at = to;
    }
}

std::vector<RunResult>
SweepRunner::run(const std::vector<RunJob> &jobs) const
{
    std::vector<RunResult> results(jobs.size());
    const std::vector<std::vector<std::size_t>> groups =
        planLockstepGroups(jobs, parallelism_);
    const std::uint64_t first_id = nextGroupId_.fetch_add(groups.size());

    // done is shared across group tasks only for progress display;
    // results[i] is written exclusively by the task of job i's group.
    std::atomic<std::size_t> done{0};
    const auto run_group = [&](std::size_t g) {
        if (cancelRequested())
            return;
        executeGroup(jobs, groups[g], first_id + g, results);
        for (const std::size_t i : groups[g])
            reportProgress(done.fetch_add(1) + 1, jobs.size(), jobs[i]);
    };

    forEach(groups.size(), run_group);
    return results;
}

void
SweepRunner::forEach(std::size_t n,
                     const std::function<void(std::size_t)> &fn) const
{
    if (parallelism_ <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        pool_->submit([&fn, i] { fn(i); });
    pool_->waitIdle();
}

} // namespace rcache
