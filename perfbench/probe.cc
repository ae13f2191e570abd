/**
 * @file
 * Layer probe for the perfbench traced mode.
 *
 * Re-runs one benchmark workload's job list single-threaded and times
 * the calls it makes into each module's public entry points, from
 * outside the library (nothing in src/ is instrumented):
 *
 *   workload  Workload::nextBatch/next/skip, through a timing
 *             decorator handed to System::run
 *   cpu       System::run, minus the layers measured inside it
 *   energy    ProcessorEnergyModel::compute, re-priced on each run's
 *             final caches (and checked equal to the run's energy)
 *   cache     Cache::access, replaying each distinct stream's data
 *             addresses per replacement policy; the per-access cost
 *             prices the accesses the real runs made
 *   core      ResizableCache::setLevel: each static run's one call on
 *             the empty cache, and every dynamic run's level trace
 *             replayed against its data stream
 *   analytic  AnalyticBatch::price over an analytic round's jobs
 *   sim       System::run under the sampled engine
 *   search    runAdaptiveSearch, minus its replayed rounds
 *   scenario  parse + ParamSpace + job enumeration
 *
 * Usage:
 *   perfbench-probe sweep SCENARIO
 *   perfbench-probe tune SCENARIO DECISION_LOG
 *
 * Prints one JSON object of raw layer measurements on stdout; the
 * benchmark script (perfbench/run.py) derives the reported metrics.
 * Exit 2 on bad input.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analytic/analytic_engine.hh"
#include "core/resizable_cache.hh"
#include "energy/energy_model.hh"
#include "scenario/cell_eval.hh"
#include "scenario/param_space.hh"
#include "scenario/scenario_spec.hh"
#include "search/adaptive_search.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/workload_factory.hh"

using namespace rcache;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "perfbench-probe: " << msg << '\n';
    std::exit(2);
}

/** Adds the time spent in every call into @p inner to @p sink. */
class TimedWorkload final : public Workload
{
  public:
    TimedWorkload(std::unique_ptr<Workload> inner, double *sink)
        : inner_(std::move(inner)), sink_(sink)
    {
    }

    MicroInst next() override
    {
        const auto t0 = Clock::now();
        const MicroInst m = inner_->next();
        *sink_ += secondsSince(t0);
        ++produced_;
        return m;
    }
    void nextBatch(MicroInst *buf, std::size_t n) override
    {
        const auto t0 = Clock::now();
        inner_->nextBatch(buf, n);
        *sink_ += secondsSince(t0);
        produced_ += n;
    }
    void reset() override { inner_->reset(); }
    void skip(std::uint64_t n) override
    {
        const auto t0 = Clock::now();
        inner_->skip(n);
        *sink_ += secondsSince(t0);
        produced_ += n;
    }
    std::string name() const override { return inner_->name(); }

    std::uint64_t produced() const { return produced_; }

  private:
    std::unique_ptr<Workload> inner_;
    double *sink_;
    std::uint64_t produced_ = 0;
};

/** One data access of a captured stream. */
struct DataRef
{
    Addr addr;
    bool write;
};

/** Raw measurements, summed over the probed runs. */
struct Layers
{
    // scenario
    double planSec = 0;
    std::size_t cells = 0;
    std::size_t jobs = 0;
    // workload (full-detail runs)
    double synthSec = 0, traceSec = 0;
    std::uint64_t synthInsts = 0, traceRecords = 0;
    std::size_t streams = 0;
    std::set<std::string> distinctStreams;
    // cpu (full-detail runs)
    double fullRunSec = 0;
    std::uint64_t detailedInsts = 0;
    // energy
    double energySec = 0;
    std::uint64_t energyCalls = 0;
    // cache: accesses the full runs made, per L1 policy
    std::map<std::string, std::uint64_t> accessesByPolicy;
    std::uint64_t dl1Accesses = 0, dl1Misses = 0, dl1Writebacks = 0;
    // core
    double resizeSec = 0;
    std::uint64_t resizeCalls = 0;
    // analytic / sim / search
    double analyticSec = 0;
    std::uint64_t geometriesPriced = 0;
    double sampledSec = 0;
    std::uint64_t sampledInsts = 0;
    double searchSec = 0;
    std::uint64_t searchDetailedInsts = 0, exhaustiveInsts = 0;
    std::size_t rounds = 0;
};

/** What the probe needs from a parsed scenario. */
struct Plan
{
    ScenarioSpec spec;
    std::optional<ParamSpace> space;
    std::vector<AppEntry> apps;
};

Plan
loadPlan(const std::string &path)
{
    Plan plan;
    std::string err;
    auto spec = ScenarioSpec::parseFile(path, &err);
    if (!spec)
        die(err);
    plan.spec = *spec;
    plan.space = ParamSpace::build(plan.spec, &err);
    if (!plan.space)
        die(err);
    plan.apps = resolveApps(plan.spec, &err);
    if (plan.apps.empty())
        die(err);
    return plan;
}

/**
 * The jobs a sweep (or one tune round) runs for @p cells under
 * @p engine: one baseline per distinct baseline key, then each cell's
 * candidates, in the engine's own enumeration order.
 */
std::vector<RunJob>
cellJobs(const Plan &plan, const std::vector<std::size_t> &cells,
         const EngineSpec &engine)
{
    std::vector<RunJob> jobs;
    std::set<std::string> bases;
    const std::size_t npoints = plan.space->numPoints();
    for (const std::size_t cell : cells) {
        DesignPoint p = plan.space->point(cell % npoints);
        p.engine = engine;
        if (p.side == SweepSide::Both)
            die("side=both scenarios are not probed");
        if (p.cfg.cores > 1)
            die("multi-core scenarios are not probed");
        const EffectiveWorkload eff =
            effectiveWorkload(plan.apps[cell / npoints], p);
        Experiment exp(p.cfg, plan.spec.insts);
        exp.setEngine(engine);
        exp.setSearchGrid(plan.spec.search.dynGrid);
        if (bases.insert(baselineKey(exp.config(), engine,
                                     eff.label.name))
                .second)
            jobs.push_back(exp.baselineJob(eff.label));
        auto cand = exp.searchJobs(eff.label, cacheSideOf(p.side),
                                   p.org, p.strategy);
        jobs.insert(jobs.end(), cand.begin(), cand.end());
    }
    return jobs;
}

/** Data accesses of the first @p insts instructions of @p profile. */
std::vector<DataRef>
captureData(const BenchmarkProfile &profile, std::uint64_t insts)
{
    std::vector<DataRef> refs;
    const std::unique_ptr<Workload> wl = makeWorkload(profile);
    forEachBatched(*wl, insts, [&](const MicroInst &m) {
        if (m.op == OpClass::Load || m.op == OpClass::Store)
            refs.push_back({m.effAddr, m.op == OpClass::Store});
    });
    return refs;
}

/**
 * Re-run @p res's dynamic dl1 decisions on @p refs: every
 * intervalAccesses accesses the cache moves to the level the real
 * run recorded, and each move's setLevel call is timed.
 */
void
replayResizes(const RunJob &job, const RunResult &res,
              const std::vector<DataRef> &refs, Layers &out)
{
    ResizableCache rc("dl1", job.cfg.dl1, job.cfg.dl1Org,
                      job.cfg.policy);
    const std::uint64_t interval = job.dl1.dyn.intervalAccesses;
    std::size_t next = 0;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        rc.cache().access(refs[i].addr, refs[i].write);
        if ((i + 1) % interval != 0 ||
            next >= res.dl1LevelTrace.size())
            continue;
        const unsigned level = res.dl1LevelTrace[next++];
        if (level == rc.currentLevel())
            continue;
        const auto t0 = Clock::now();
        rc.setLevel(level);
        out.resizeSec += secondsSince(t0);
        ++out.resizeCalls;
    }
}

/** Run @p job as executeRunJob would, timing each layer. */
RunResult
probeJob(const RunJob &job, Layers &out,
         std::map<std::string, std::vector<DataRef>> &streams)
{
    const bool trace = isTraceProfile(job.profile);
    double wl_sec = 0;
    TimedWorkload wl(makeWorkload(job.profile), &wl_sec);
    System sys(job.cfg);
    const auto t0 = Clock::now();
    const RunResult res =
        sys.run(wl, job.insts, job.il1, job.dl1, job.engine);
    const double run_sec = secondsSince(t0);

    if (job.engine.sampled()) {
        out.sampledSec += run_sec;
        out.sampledInsts += res.measuredInsts;
        return res;
    }
    out.fullRunSec += run_sec;
    out.detailedInsts += res.measuredInsts;
    (trace ? out.traceSec : out.synthSec) += wl_sec;
    (trace ? out.traceRecords : out.synthInsts) += wl.produced();
    ++out.streams;
    out.distinctStreams.insert(job.profile.name);

    const Hierarchy &hier = sys.hierarchy();
    ProcessorEnergyModel energy(job.cfg.energy);
    const auto e0 = Clock::now();
    const EnergyBreakdown eb = energy.compute(
        res.activity, sys.il1().cache(), sys.il1().extraTagBits(),
        sys.dl1().cache(), sys.dl1().extraTagBits(), hier.l2(),
        hier.memReads() + hier.memWrites());
    out.energySec += secondsSince(e0);
    ++out.energyCalls;
    if (eb.total() != res.energy.total())
        die("re-priced energy differs from the run's for " +
            job.label);

    out.accessesByPolicy[job.cfg.policy] +=
        res.il1Accesses + res.dl1Accesses + hier.l2().accesses();
    out.dl1Accesses += res.dl1Accesses;
    out.dl1Misses += res.dl1Misses;
    out.dl1Writebacks += sys.dl1().cache().writebacks();

    // A static run sets its level once, on the empty cache, before
    // the first access.
    for (const auto &[setup, geom, org] :
         {std::tuple{job.il1, job.cfg.il1, job.cfg.il1Org},
          std::tuple{job.dl1, job.cfg.dl1, job.cfg.dl1Org}}) {
        if (setup.strategy != Strategy::Static)
            continue;
        ResizableCache rc("l1", geom, org, job.cfg.policy);
        const auto r0 = Clock::now();
        rc.setLevel(setup.staticLevel);
        out.resizeSec += secondsSince(r0);
    }
    if (job.dl1.strategy == Strategy::Dynamic) {
        auto it = streams.find(job.profile.name);
        if (it == streams.end())
            it = streams
                     .emplace(job.profile.name,
                              captureData(job.profile, job.insts))
                     .first;
        replayResizes(job, res, it->second, out);
    }
    return res;
}

/**
 * Nanoseconds per Cache::access for each policy, replaying the data
 * stream of every distinct workload in @p jobs through a full-size
 * dl1. Each policy replays for at least minSec so the figure is not
 * one timer tick.
 */
std::map<std::string, double>
accessCost(const std::vector<RunJob> &jobs)
{
    constexpr double minSec = 0.05;
    std::map<std::string, const RunJob *> firstOf;
    for (const RunJob &job : jobs)
        firstOf.emplace(job.profile.name, &job);
    std::vector<std::vector<DataRef>> streams;
    const CacheGeometry geom = jobs.front().cfg.dl1;
    for (const auto &[name, job] : firstOf)
        streams.push_back(captureData(job->profile, job->insts));

    std::map<std::string, double> ns;
    for (const char *policy : {"lru", "fifo", "slru", "wtlfu"}) {
        std::uint64_t accesses = 0;
        double sec = 0;
        // Summing the hits keeps the replayed accesses observable.
        std::uint64_t sink = 0;
        while (sec < minSec) {
            for (const auto &refs : streams) {
                ResizableCache rc("dl1", geom, Organization::None,
                                  policy);
                const auto t0 = Clock::now();
                for (const DataRef &r : refs)
                    sink += rc.cache().access(r.addr, r.write).hit;
                sec += secondsSince(t0);
                accesses += refs.size();
            }
            if (accesses == 0)
                die("workload has no data accesses to replay");
        }
        if (sink > accesses)
            die("replay hit count exceeds accesses");
        ns[policy] = 1e9 * sec / static_cast<double>(accesses);
    }
    return ns;
}

void
runJobs(const std::vector<RunJob> &jobs, Layers &out)
{
    std::map<std::string, std::vector<DataRef>> streams;
    for (const RunJob &job : jobs)
        probeJob(job, out, streams);
}

/** Cells scored in each round of a tune decision log, and the log's
 *  rung engine names and sample interval. */
struct TuneLog
{
    std::vector<std::string> engines;
    std::vector<std::vector<std::size_t>> cells;
    std::uint64_t sampleInterval = 0;
};

/** The unsigned value of "key":N in a JSONL line (0 when absent). */
std::uint64_t
jsonUint(const std::string &line, const std::string &key)
{
    const auto at = line.find("\"" + key + "\":");
    if (at == std::string::npos)
        return 0;
    return std::stoull(line.substr(at + key.size() + 3));
}

std::string
jsonString(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\":\"";
    const auto at = line.find(tag);
    if (at == std::string::npos)
        return "";
    const auto begin = at + tag.size();
    return line.substr(begin, line.find('"', begin) - begin);
}

TuneLog
readTuneLog(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        die("cannot read decision log '" + path + "'");
    TuneLog log;
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("\"schema\"") != std::string::npos) {
            log.sampleInterval = jsonUint(line, "sample_interval");
        } else if (jsonString(line, "event") == "round") {
            log.engines.push_back(jsonString(line, "engine"));
            log.cells.emplace_back();
        } else if (jsonString(line, "event") == "score") {
            if (log.cells.empty())
                die("score event before any round in '" + path + "'");
            log.cells.back().push_back(jsonUint(line, "cell"));
        }
    }
    if (log.engines.empty())
        die("decision log '" + path + "' has no rounds");
    return log;
}

/** The rung engine the tuner builds for @p name (mirrors its
 *  ladder materialization). */
EngineSpec
rungEngine(const std::string &name, std::uint64_t sample_interval)
{
    if (name == "analytic")
        return EngineSpec::makeAnalytic();
    if (name == "sampled")
        return sample_interval == 0
                   ? EngineSpec::makeSampled(SamplingConfig{})
                   : EngineSpec::makeSampled(
                         sample_interval,
                         SamplingConfig::defaultDetail(sample_interval),
                         SamplingConfig::defaultWarmup(sample_interval));
    if (name == "full")
        return EngineSpec{};
    die("unknown rung engine '" + name + "'");
}

void
probeSweep(const Plan &plan, const std::vector<RunJob> &jobs,
           Layers &out)
{
    if (plan.spec.engine.mode != EngineMode::Full)
        die("only full-detail sweeps are probed");
    out.jobs = jobs.size();
    out.rounds = 1;
    runJobs(jobs, out);
    out.searchDetailedInsts = out.exhaustiveInsts = out.detailedInsts;
}

void
probeTune(const Plan &plan, const std::string &log_path, Layers &out)
{
    TuneOptions opt;
    opt.jobs = 1;
    opt.quiet = true;
    opt.emitOutputs = false;
    TuneStats stats;
    const auto s0 = Clock::now();
    if (runAdaptiveSearch(*plan.space, opt, &stats) != 0)
        die("runAdaptiveSearch failed");
    out.searchSec = secondsSince(s0);
    out.rounds = stats.rounds;
    out.searchDetailedInsts = stats.detailedInsts;
    out.exhaustiveInsts = stats.exhaustiveDetailedInsts;

    const TuneLog log = readTuneLog(log_path);
    if (log.engines.size() != stats.rounds)
        die("decision log rounds differ from the in-process search");
    for (std::size_t r = 0; r < log.engines.size(); ++r) {
        const EngineSpec engine =
            rungEngine(log.engines[r], log.sampleInterval);
        const std::vector<RunJob> jobs =
            cellJobs(plan, log.cells[r], engine);
        out.jobs += jobs.size();
        if (!engine.analytic()) {
            runJobs(jobs, out);
            continue;
        }
        const auto a0 = Clock::now();
        AnalyticBatch batch;
        for (const RunJob &job : jobs)
            batch.registerConfig(job.cfg, job.profile, job.insts);
        const std::vector<RunResult> priced = batch.price(jobs);
        out.analyticSec += secondsSince(a0);
        out.geometriesPriced += priced.size();
    }
}

void
printJson(const Layers &l, const std::map<std::string, double> &ns)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"plan_s\":" << l.planSec << ",\"cells\":" << l.cells
       << ",\"jobs\":" << l.jobs << ",\"synth_s\":" << l.synthSec
       << ",\"synth_insts\":" << l.synthInsts
       << ",\"trace_s\":" << l.traceSec
       << ",\"trace_records\":" << l.traceRecords
       << ",\"streams\":" << l.streams
       << ",\"distinct_streams\":" << l.distinctStreams.size()
       << ",\"full_run_s\":" << l.fullRunSec
       << ",\"detailed_insts\":" << l.detailedInsts
       << ",\"energy_s\":" << l.energySec
       << ",\"energy_calls\":" << l.energyCalls
       << ",\"dl1_accesses\":" << l.dl1Accesses
       << ",\"dl1_misses\":" << l.dl1Misses
       << ",\"dl1_writebacks\":" << l.dl1Writebacks
       << ",\"resize_s\":" << l.resizeSec
       << ",\"resize_calls\":" << l.resizeCalls
       << ",\"analytic_s\":" << l.analyticSec
       << ",\"geometries_priced\":" << l.geometriesPriced
       << ",\"sampled_s\":" << l.sampledSec
       << ",\"sampled_insts\":" << l.sampledInsts
       << ",\"search_s\":" << l.searchSec
       << ",\"search_detailed_insts\":" << l.searchDetailedInsts
       << ",\"exhaustive_insts\":" << l.exhaustiveInsts
       << ",\"rounds\":" << l.rounds << ",\"access_ns\":{";
    const char *sep = "";
    for (const auto &[policy, v] : ns) {
        os << sep << "\"" << policy << "\":" << v;
        sep = ",";
    }
    os << "},\"accesses_by_policy\":{";
    sep = "";
    for (const auto &[policy, v] : l.accessesByPolicy) {
        os << sep << "\"" << policy << "\":" << v;
        sep = ",";
    }
    os << "}}\n";
    std::cout << os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    const bool sweep = args.size() == 2 && args[0] == "sweep";
    if (!sweep && !(args.size() == 3 && args[0] == "tune"))
        die("usage: perfbench-probe sweep SCENARIO | "
            "tune SCENARIO DECISION_LOG");

    // Planning: parse, ParamSpace, and the exhaustive full-detail job
    // list (what a sweep runs; a tune's streams come from it too).
    Layers layers;
    const auto t0 = Clock::now();
    const Plan plan = loadPlan(args[1]);
    layers.cells = plan.apps.size() * plan.space->numPoints();
    std::vector<std::size_t> all(layers.cells);
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    const std::vector<RunJob> jobs = cellJobs(plan, all, EngineSpec{});
    layers.planSec = secondsSince(t0);

    if (sweep)
        probeSweep(plan, jobs, layers);
    else
        probeTune(plan, args[2], layers);
    printJson(layers, accessCost(jobs));
    return 0;
}
