#include "sim/experiment.hh"

#include "util/logging.hh"

namespace rcache
{

std::string
cacheSideName(CacheSide side)
{
    return side == CacheSide::DCache ? "dcache" : "icache";
}

Experiment::Experiment(const SystemConfig &cfg,
                       std::uint64_t num_insts)
    : cfg_(cfg), numInsts_(num_insts)
{
    // Experiments own the org selection; start from a clean slate.
    cfg_.il1Org = Organization::None;
    cfg_.dl1Org = Organization::None;
}

void
Experiment::setEngine(const EngineSpec &engine)
{
    engine.validate();
    std::lock_guard<std::mutex> lk(memoMtx_);
    engine_ = engine;
    baselineMemo_.clear();
}

const std::vector<double> &
Experiment::missBoundFractions()
{
    static const std::vector<double> fracs = SearchGrid{}.missFractions;
    return fracs;
}

const std::vector<std::uint64_t> &
Experiment::intervalGrid()
{
    static const std::vector<std::uint64_t> intervals =
        SearchGrid{}.intervals;
    return intervals;
}

SystemConfig
Experiment::configFor(CacheSide side, Organization org) const
{
    SystemConfig cfg = cfg_;
    if (side == CacheSide::DCache)
        cfg.dl1Org = org;
    else
        cfg.il1Org = org;
    return cfg;
}

std::vector<RunResult>
Experiment::execute(const std::vector<RunJob> &jobs) const
{
    return runner_ ? runner_->run(jobs)
                   : SweepRunner::runSerial(jobs);
}

std::pair<RunResult, std::vector<RunResult>>
Experiment::executeWithBaseline(const BenchmarkProfile &profile,
                                std::vector<RunJob> jobs) const
{
    bool have = false;
    RunResult base;
    {
        std::lock_guard<std::mutex> lk(memoMtx_);
        auto it = baselineMemo_.find(profile.name);
        if (it != baselineMemo_.end()) {
            have = true;
            base = it->second;
        }
    }
    if (have)
        return {base, execute(jobs)};

    // Memo miss: the baseline is just one more job in the batch.
    jobs.insert(jobs.begin(), baselineJob(profile));
    std::vector<RunResult> results = execute(jobs);
    base = results.front();
    results.erase(results.begin());
    // A cancelled batch leaves unrun jobs default-constructed
    // (insts == 0); never memoize such a non-result.
    if (base.insts != 0) {
        std::lock_guard<std::mutex> lk(memoMtx_);
        baselineMemo_.emplace(profile.name, base);
    }
    return {base, std::move(results)};
}

RunResult
Experiment::baseline(const BenchmarkProfile &profile) const
{
    // The whole lookup-or-compute is one critical section: a second
    // thread asking for the same profile blocks until the first has
    // filled the memo instead of redundantly simulating it.
    std::lock_guard<std::mutex> lk(memoMtx_);
    auto it = baselineMemo_.find(profile.name);
    if (it != baselineMemo_.end())
        return it->second;

    RunResult res = executeRunJob(baselineJob(profile));
    baselineMemo_[profile.name] = res;
    return res;
}

RunJob
Experiment::baselineJob(const BenchmarkProfile &profile) const
{
    RunJob job;
    job.label = profile.name + "/baseline";
    job.profile = profile;
    job.cfg = cfg_;
    job.insts = numInsts_;
    job.engine = engine_;
    return job;
}

RunResult
Experiment::runPoint(const BenchmarkProfile &profile,
                     Organization il1_org, Organization dl1_org,
                     const ResizeSetup &il1_setup,
                     const ResizeSetup &dl1_setup) const
{
    RunJob job;
    job.label = profile.name + "/point";
    job.profile = profile;
    job.cfg = cfg_;
    job.cfg.il1Org = il1_org;
    job.cfg.dl1Org = dl1_org;
    job.insts = numInsts_;
    job.il1 = il1_setup;
    job.dl1 = dl1_setup;
    job.engine = engine_;
    return executeRunJob(job);
}

std::vector<DynamicParams>
Experiment::dynamicGrid(CacheSide side, Organization org) const
{
    const SystemConfig cfg = configFor(side, org);
    const CacheGeometry &geom =
        side == CacheSide::DCache ? cfg.dl1 : cfg.il1;

    // Size-bound candidates as fractions of the full size; the
    // default grid ends with the full size itself, which prevents any
    // downsizing — the safe fallback the profiling pass falls back to
    // when resizing always loses.
    std::vector<DynamicParams> grid;
    grid.reserve(grid_.intervals.size() *
                 grid_.missFractions.size() *
                 grid_.sizeFractions.size());
    for (std::uint64_t interval : grid_.intervals) {
        for (double frac : grid_.missFractions) {
            for (double size_frac : grid_.sizeFractions) {
                DynamicParams dyn;
                dyn.intervalAccesses = interval;
                dyn.missBound = static_cast<std::uint64_t>(
                    frac * static_cast<double>(interval));
                dyn.sizeBoundBytes = static_cast<std::uint64_t>(
                    size_frac * static_cast<double>(geom.size));
                grid.push_back(dyn);
            }
        }
    }
    return grid;
}

std::vector<SearchCandidate>
Experiment::searchCandidates(CacheSide side, Organization org,
                             Strategy strat) const
{
    std::vector<SearchCandidate> candidates;
    if (strat == Strategy::Static) {
        const SystemConfig cfg = configFor(side, org);
        const auto schedule = buildSchedule(
            org, side == CacheSide::DCache ? cfg.dl1 : cfg.il1);
        candidates.reserve(schedule.size());
        for (unsigned level = 0; level < schedule.size(); ++level) {
            candidates.push_back(
                {ResizeSetup{Strategy::Static, level, {}},
                 "static/L" + std::to_string(level)});
        }
        return candidates;
    }
    rc_assert(strat == Strategy::Dynamic);
    const auto grid = dynamicGrid(side, org);
    candidates.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        candidates.push_back({ResizeSetup{Strategy::Dynamic, 0, grid[i]},
                              "dynamic/G" + std::to_string(i)});
    }
    return candidates;
}

std::vector<RunJob>
Experiment::searchJobs(const BenchmarkProfile &profile, CacheSide side,
                       Organization org, Strategy strat) const
{
    const SystemConfig cfg = configFor(side, org);
    const auto candidates = searchCandidates(side, org, strat);

    std::vector<RunJob> jobs;
    jobs.reserve(candidates.size());
    for (const SearchCandidate &cand : candidates) {
        RunJob job;
        job.label = profile.name + "/" + organizationName(org) + "/" +
                    cacheSideName(side) + "/" + cand.tag;
        job.profile = profile;
        job.cfg = cfg;
        job.insts = numInsts_;
        job.engine = engine_;
        (side == CacheSide::DCache ? job.dl1 : job.il1) = cand.setup;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<RunJob>
Experiment::staticSearchJobs(const BenchmarkProfile &profile,
                             CacheSide side, Organization org) const
{
    return searchJobs(profile, side, org, Strategy::Static);
}

SearchOutcome
Experiment::reduceSearch(const RunResult &baseline,
                         const std::vector<SearchCandidate> &candidates,
                         const std::vector<RunResult> &results)
{
    rc_assert(candidates.size() == results.size());
    SearchOutcome out;
    out.baseline = baseline;

    // Strict `<`: the first minimum in candidate order wins, so
    // equal-E.D ties resolve to the larger cache / lower index (see
    // the header's tie-break contract).
    bool first = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &res = results[i];
        if (res.insts == 0)
            continue; // cancelled before this job ran
        if (first || res.edp() < out.best.edp()) {
            out.best = res;
            out.bestLevel = candidates[i].setup.staticLevel;
            out.bestParams = candidates[i].setup.dyn;
            first = false;
        }
    }
    rc_assert(!first);
    return out;
}

SearchOutcome
Experiment::reduceStatic(const RunResult &baseline,
                         const std::vector<RunResult> &results)
{
    std::vector<SearchCandidate> candidates;
    candidates.reserve(results.size());
    for (unsigned level = 0; level < results.size(); ++level)
        candidates.push_back(
            {ResizeSetup{Strategy::Static, level, {}}, ""});
    return reduceSearch(baseline, candidates, results);
}

SearchOutcome
Experiment::reduceBoth(const RunResult &baseline,
                       const SearchOutcome &dcacheOut,
                       const RunResult &combined)
{
    SearchOutcome out;
    out.baseline = baseline;
    out.best = combined;
    out.bestLevel = dcacheOut.bestLevel;
    return out;
}

RunJob
Experiment::bothStaticJob(const BenchmarkProfile &profile,
                          Organization org, unsigned il1_level,
                          unsigned dl1_level) const
{
    RunJob job;
    job.label = profile.name + "/" + organizationName(org) +
                "/both/static";
    job.profile = profile;
    job.cfg = cfg_;
    job.cfg.il1Org = org;
    job.cfg.dl1Org = org;
    job.insts = numInsts_;
    job.engine = engine_;
    job.il1 = ResizeSetup{Strategy::Static, il1_level, {}};
    job.dl1 = ResizeSetup{Strategy::Static, dl1_level, {}};
    return job;
}

SearchOutcome
Experiment::search(const BenchmarkProfile &profile, CacheSide side,
                   Organization org, Strategy strat) const
{
    auto [base, results] = executeWithBaseline(
        profile, searchJobs(profile, side, org, strat));
    return reduceSearch(base, searchCandidates(side, org, strat),
                        results);
}

SearchOutcome
Experiment::staticSearch(const BenchmarkProfile &profile,
                         CacheSide side, Organization org) const
{
    return search(profile, side, org, Strategy::Static);
}

SearchOutcome
Experiment::dynamicSearch(const BenchmarkProfile &profile,
                          CacheSide side, Organization org) const
{
    return search(profile, side, org, Strategy::Dynamic);
}

SearchOutcome
Experiment::staticSearchBoth(const BenchmarkProfile &profile,
                             Organization org) const
{
    // Profile each side individually (the paper's decoupled
    // methodology), then apply both chosen sizes together. Both
    // sides' sweeps (and the baseline) go into one batch so an
    // attached runner can overlap them.
    auto jobs = staticSearchJobs(profile, CacheSide::DCache, org);
    const std::size_t n_d = jobs.size();
    const auto i_jobs = staticSearchJobs(profile, CacheSide::ICache,
                                         org);
    jobs.insert(jobs.end(), i_jobs.begin(), i_jobs.end());

    auto [base, results] =
        executeWithBaseline(profile, std::move(jobs));
    const SearchOutcome d = reduceStatic(
        base, {results.begin(), results.begin() + n_d});
    const SearchOutcome i = reduceStatic(
        base, {results.begin() + n_d, results.end()});

    SearchOutcome out;
    out.baseline = base;
    out.best = executeRunJob(
        bothStaticJob(profile, org, i.bestLevel, d.bestLevel));
    out.bestLevel = d.bestLevel;
    return out;
}

} // namespace rcache
