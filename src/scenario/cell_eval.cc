#include "scenario/cell_eval.hh"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <sstream>

#include "analytic/analytic_engine.hh"
#include "util/logging.hh"
#include "workload/profiles.hh"

namespace rcache
{

namespace
{

/** Attach the mix to every job of a multi-programmed cell (a
 *  one-component mix rides on job.profile alone). */
void
attachMix(std::vector<RunJob>::iterator begin,
          std::vector<RunJob>::iterator end,
          const EffectiveWorkload &eff)
{
    if (eff.mix.size() <= 1)
        return;
    for (auto it = begin; it != end; ++it)
        it->mixProfiles = eff.mix;
}

/** The CSV row a finished cell reports. */
SweepRecord
cellRecord(std::size_t cell, const std::string &app,
           const DesignPoint &p, const SearchOutcome &out)
{
    SweepRecord r;
    r.cell = cell;
    r.app = app;
    r.org = organizationToken(p.org);
    r.strategy = strategyName(p.strategy);
    r.side = sweepSideName(p.side);
    r.axes = p.axes;
    r.bestLevel = out.bestLevel;
    if (p.strategy == Strategy::Dynamic) {
        r.intervalAccesses = out.bestParams.intervalAccesses;
        r.missBound = out.bestParams.missBound;
        r.sizeBoundBytes = out.bestParams.sizeBoundBytes;
    }
    r.edReductionPct = out.edReductionPct();
    r.perfDegradationPct = out.perfDegradationPct();
    if (p.side == SweepSide::Both) {
        const double full =
            out.baseline.avgIl1Bytes + out.baseline.avgDl1Bytes;
        r.sizeReductionPct =
            full == 0 ? 0
                      : 100.0 * (1.0 - (out.best.avgIl1Bytes +
                                        out.best.avgDl1Bytes) /
                                           full);
    } else {
        r.sizeReductionPct = out.sizeReductionPct(cacheSideOf(p.side));
    }
    r.baselineEdp = out.baseline.edp();
    r.bestEdp = out.best.edp();
    r.baselineCycles = out.baseline.cycles;
    r.bestCycles = out.best.cycles;
    r.avgIl1Bytes = out.best.avgIl1Bytes;
    r.avgDl1Bytes = out.best.avgDl1Bytes;
    r.engine = out.best.engine;
    r.policy = p.cfg.policy;
    return r;
}

} // namespace

std::vector<AppEntry>
resolveApps(const ScenarioSpec &spec, std::string *err)
{
    std::vector<AppEntry> apps;
    if (spec.apps.empty()) {
        for (BenchmarkProfile &p : spec2000Suite()) {
            AppEntry entry;
            entry.name = p.name;
            entry.mix = {std::move(p)};
            apps.push_back(std::move(entry));
        }
        return apps;
    }
    for (const std::string &name : spec.apps) {
        auto mix = mixByName(name, err);
        if (!mix)
            return {};
        apps.push_back({name, std::move(*mix)});
    }
    return apps;
}

EffectiveWorkload
effectiveWorkload(const AppEntry &entry, const DesignPoint &p)
{
    EffectiveWorkload eff;
    if (p.mix.empty()) {
        eff.mix = entry.mix;
        eff.label = entry.mix.front();
        eff.label.name = entry.name;
    } else {
        // Validated by ParamSpace::build; failure here is a bug.
        auto mix = mixByName(p.mix);
        rc_assert(mix);
        eff.mix = std::move(*mix);
        eff.label = eff.mix.front();
        eff.label.name = p.mix;
    }
    return eff;
}

CacheSide
cacheSideOf(SweepSide side)
{
    return side == SweepSide::ICache ? CacheSide::ICache
                                     : CacheSide::DCache;
}

std::string
baselineKey(const SystemConfig &cfg, const EngineSpec &engine,
            const std::string &workload)
{
    std::ostringstream os;
    os << workload << '|' << systemConfigKey(cfg) << '|'
       << engineName(engine.mode) << '|'
       << engine.sampling.intervalInsts << '|'
       << engine.sampling.detailedInsts << '|'
       << engine.sampling.warmupInsts;
    return os.str();
}

DesignPoint
CellScope::point(std::size_t cell) const
{
    DesignPoint p = space.point(cell % space.numPoints());
    if (engine)
        p.engine = *engine;
    return p;
}

void
registerAnalytic(AnalyticBatch &batch, const CellScope &scope,
                 const std::vector<std::size_t> &cells)
{
    // All the jobs of a cell share the cell's full geometry, so
    // registering the design point covers its baseline and every
    // candidate.
    for (const std::size_t cell : cells) {
        const DesignPoint p = scope.point(cell);
        batch.registerConfig(p.cfg,
                             effectiveWorkload(scope.app(cell), p).label,
                             scope.space.spec().insts);
    }
}

CellBatch::CellBatch(const CellScope &scope, BaselineMemo &memo)
    : scope_(scope), memo_(memo)
{
}

void
CellBatch::add(std::size_t cell)
{
    Cell c;
    c.cell = cell;
    c.point = scope_.point(cell);
    c.eff = effectiveWorkload(scope_.app(cell), c.point);
    const DesignPoint &p = c.point;
    const std::size_t first = jobs_.size();

    Experiment exp(p.cfg, scope_.space.spec().insts);
    exp.setEngine(p.engine);
    exp.setSearchGrid(scope_.space.spec().search.dynGrid);

    c.baseKey = baselineKey(exp.config(), p.engine, c.eff.label.name);
    if (!memo_.count(c.baseKey) && !newBases_.count(c.baseKey)) {
        newBases_[c.baseKey] = jobs_.size();
        jobs_.push_back(exp.baselineJob(c.eff.label));
    }

    const auto append = [&](std::vector<RunJob> jobs) {
        jobs_.insert(jobs_.end(), std::make_move_iterator(jobs.begin()),
                     std::make_move_iterator(jobs.end()));
    };
    const auto plan = [&](CacheSide side) {
        const auto cands = exp.searchCandidates(side, p.org, p.strategy);
        c.candidates.insert(c.candidates.end(), cands.begin(),
                            cands.end());
        append(exp.searchJobs(c.eff.label, side, p.org, p.strategy));
    };
    c.off = jobs_.size();
    if (p.side == SweepSide::Both) {
        plan(CacheSide::DCache);
        c.mid = jobs_.size();
        plan(CacheSide::ICache);
        ++both_;
    } else {
        plan(cacheSideOf(p.side));
    }
    c.end = jobs_.size();
    attachMix(jobs_.begin() + first, jobs_.end(), c.eff);
    jobCells_.resize(jobs_.size(), cell);
    // A new baseline runs; candidates equivalent to it fold.
    folds_.resize(c.off, false);
    for (std::size_t k = c.off; k < c.end; ++k)
        folds_.push_back(baselineEquivalent(jobs_[k]));
    cells_.push_back(std::move(c));
}

std::vector<SweepRecord>
CellBatch::run(const PhaseRunner &execute)
{
    // Phase 1 runs every job but the folded ones, which reuse their
    // cell's baseline run once it is in the memo.
    std::vector<RunJob> runs;
    std::vector<std::size_t> runCells, at;
    for (std::size_t k = 0; k < jobs_.size(); ++k) {
        if (folds_[k])
            continue;
        at.push_back(k);
        runs.push_back(std::move(jobs_[k]));
        runCells.push_back(jobCells_[k]);
    }
    std::vector<RunResult> ran = execute(runs, runCells);
    std::vector<RunResult> results(jobs_.size());
    for (std::size_t i = 0; i < at.size(); ++i) {
        jobs_[at[i]] = std::move(runs[i]);
        results[at[i]] = std::move(ran[i]);
    }
    for (const auto &[key, idx] : newBases_)
        memo_[key] = results[idx];
    for (const Cell &c : cells_)
        for (std::size_t k = c.off; k < c.end; ++k)
            if (folds_[k])
                results[k] = foldIntoBaseline(memo_.at(c.baseKey),
                                              jobs_[k]);
    // Reduce candidate jobs [from, to) of cell @p c.
    const auto reduce = [&](const Cell &c, std::size_t from,
                            std::size_t to) {
        return Experiment::reduceSearch(
            memo_.at(c.baseKey),
            {c.candidates.begin() + (from - c.off),
             c.candidates.begin() + (to - c.off)},
            {results.begin() + from, results.begin() + to});
    };

    // Side=both cells: each L1 was profiled on its own; run the two
    // chosen levels together (both full size: fold into the
    // baseline).
    std::vector<RunJob> combined;
    std::vector<std::size_t> combinedCells, combinedAt;
    std::vector<SearchOutcome> dOuts(cells_.size());
    std::vector<RunResult> both(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const Cell &c = cells_[i];
        if (c.point.side != SweepSide::Both)
            continue;
        dOuts[i] = reduce(c, c.off, c.mid);
        const SearchOutcome iOut = reduce(c, c.mid, c.end);
        Experiment exp(c.point.cfg, scope_.space.spec().insts);
        exp.setEngine(c.point.engine);
        RunJob job = exp.bothStaticJob(c.eff.label, c.point.org,
                                       iOut.bestLevel,
                                       dOuts[i].bestLevel);
        if (baselineEquivalent(job)) {
            both[i] = foldIntoBaseline(memo_.at(c.baseKey), job);
            continue;
        }
        combined.push_back(std::move(job));
        attachMix(combined.end() - 1, combined.end(), c.eff);
        combinedCells.push_back(c.cell);
        combinedAt.push_back(i);
    }
    std::vector<RunResult> ran2 = execute(combined, combinedCells);
    for (std::size_t j = 0; j < combinedAt.size(); ++j)
        both[combinedAt[j]] = std::move(ran2[j]);

    std::vector<SweepRecord> records;
    records.reserve(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const Cell &c = cells_[i];
        const SearchOutcome out =
            c.point.side == SweepSide::Both
                ? Experiment::reduceBoth(memo_.at(c.baseKey), dOuts[i],
                                         both[i])
                : reduce(c, c.off, c.end);
        records.push_back(
            cellRecord(c.cell, scope_.app(c.cell).name, c.point, out));
    }
    return records;
}

std::vector<std::string>
CellBatch::newBaselineLabels() const
{
    std::vector<std::size_t> at;
    for (const auto &entry : newBases_)
        at.push_back(entry.second);
    std::sort(at.begin(), at.end());
    std::vector<std::string> labels;
    for (const std::size_t idx : at)
        labels.push_back(jobs_[idx].label);
    return labels;
}

std::vector<SweepRecord>
evaluateCells(const CellScope &scope,
              const std::vector<std::size_t> &cells,
              BaselineMemo &memo, const PhaseRunner &execute)
{
    CellBatch batch(scope, memo);
    for (const std::size_t cell : cells)
        batch.add(cell);
    return batch.run(execute);
}

std::vector<SweepRecord>
evaluateSpace(const ParamSpace &space, const SweepRunner &runner)
{
    std::string err;
    const std::vector<AppEntry> apps = resolveApps(space.spec(), &err);
    if (apps.empty())
        rc_fatal(err);
    const CellScope scope{space, apps};
    std::vector<std::size_t> cells(apps.size() * space.numPoints());
    std::iota(cells.begin(), cells.end(), 0);

    AnalyticBatch analytic;
    const bool priced = space.spec().engine.analytic();
    if (priced)
        registerAnalytic(analytic, scope, cells);
    BaselineMemo memo;
    return evaluateCells(
        scope, cells, memo,
        [&](std::vector<RunJob> &jobs, const std::vector<std::size_t> &) {
            return priced ? analytic.price(jobs, runner)
                          : runner.run(jobs);
        });
}

} // namespace rcache
