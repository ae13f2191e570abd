#include "scenario/scenario_sweep.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "analytic/analytic_engine.hh"
#include "scenario/cell_eval.hh"
#include "sim/experiment.hh"
#include "telemetry/run_telemetry.hh"
#include "telemetry/timeline.hh"
#include "telemetry/trace_events.hh"
#include "util/checked_io.hh"
#include "util/interrupt.hh"
#include "util/logging.hh"
#include "workload/profiles.hh"

namespace rcache
{

namespace
{

int
fail(const std::string &msg)
{
    std::cerr << "rcache-sim: " << msg << '\n';
    return 2;
}

/** The sweep; the report goes to @p report when given, else to
 *  opt.outPath / opt.resumePath / stdout. */
int
sweep(const ParamSpace &space, const SweepOptions &opt,
      std::ostream *report)
{
    const ScenarioSpec &spec = space.spec();

    if (opt.format != "csv" && opt.format != "json" &&
        opt.format != "table")
        return fail("--format wants csv|json|table");
    const bool resuming = !opt.resumePath.empty();
    if (resuming && opt.format != "csv")
        return fail("--resume supports only --format csv");
    if (resuming && !opt.outPath.empty())
        return fail("--resume names the output file itself; drop "
                    "--out");

    std::string apps_err;
    const std::vector<AppEntry> apps = resolveApps(spec, &apps_err);
    if (apps.empty())
        return fail(apps_err);
    const CellScope scope{space, apps};
    const std::size_t ncells = apps.size() * space.numPoints();

    std::vector<std::size_t> owned;
    for (std::size_t c = 0; c < ncells; ++c)
        if (opt.shard.owns(c))
            owned.push_back(c);

    // ---- resume: verify the completed prefix of the prior CSV
    std::size_t skip = 0;
    std::string kept; // raw verified prefix, header included
    if (resuming) {
        std::ifstream in(opt.resumePath, std::ios::binary);
        if (in) {
            std::ostringstream buf;
            buf << in.rdbuf();
            const std::string raw = buf.str();
            // A truncated final line (no trailing newline) never ran
            // to completion; drop it and recompute its cell.
            const std::size_t last_nl = raw.rfind('\n');
            if (last_nl != std::string::npos) {
                const std::string complete =
                    raw.substr(0, last_nl + 1);
                std::istringstream cs(complete);
                std::string err;
                auto prior = readSweepCsv(cs, &err);
                if (!prior) {
                    // An unparsable prior CSV is damage, not user
                    // error: quarantine the evidence and recompute
                    // from scratch rather than refusing to run.
                    const auto aside =
                        quarantineCorruptFile(opt.resumePath);
                    RC_LOG(warn,
                           "--resume " + opt.resumePath + ": " +
                               err + "; " +
                               (aside ? "moved aside to '" +
                                            *aside + "'"
                                      : "could not move it aside") +
                               ", starting fresh");
                } else {
                    if (prior->size() > owned.size())
                        return fail("--resume " + opt.resumePath +
                                    ": holds more rows than this "
                                    "shard owns (wrong scenario or "
                                    "shard?)");
                    // Each kept row must sit exactly where this
                    // enumeration would put it — cell index, app, and
                    // every design-point coordinate. (A changed
                    // [system] or insts value is invisible to the
                    // rows and cannot be caught here.)
                    for (std::size_t i = 0; i < prior->size(); ++i) {
                        const SweepRecord &r = (*prior)[i];
                        const std::size_t cell = owned[i];
                        const DesignPoint p = scope.point(cell);
                        if (r.cell != cell ||
                            r.app != scope.app(cell).name ||
                            r.axes != p.axes ||
                            r.org != organizationToken(p.org) ||
                            r.strategy != strategyName(p.strategy) ||
                            r.side != sweepSideName(p.side))
                            return fail(
                                "--resume " + opt.resumePath +
                                ": row " + std::to_string(i + 1) +
                                " does not match this scenario/shard "
                                "enumeration (wrong scenario or "
                                "shard?)");
                    }
                    skip = prior->size();
                    kept = complete;
                }
            }
        }
    }

    // ---- analytic engine: one shared stack-distance pass per
    // distinct (workload, stream shape) pair prices every cell that
    // shares it — that is the whole point of the engine. Register
    // every remaining cell's configuration up front; AnalyticBatch
    // runs each pass lazily, on the runner's workers, the first time
    // a chunk prices against it.
    const std::vector<std::size_t> remaining(owned.begin() + skip,
                                             owned.end());
    AnalyticBatch analytic;
    if (spec.engine.analytic()) {
        registerAnalytic(analytic, scope, remaining);
        if (!opt.timelinePath.empty() || !opt.eventsPath.empty() ||
            !opt.traceEventsPath.empty())
            RC_LOG(warn,
                   "analytic engine: telemetry sidecars record "
                   "nothing (analytic cells run no timed "
                   "simulation)");
    }

    // ---- telemetry sidecars (all optional; see SweepOptions). Files
    // open before the first chunk so an early failure aborts the
    // sweep rather than losing telemetry at the end.
    const bool want_timeline = !opt.timelinePath.empty();
    const bool want_events = !opt.eventsPath.empty();
    std::ofstream timeline_os, events_os;
    if (want_timeline) {
        timeline_os.open(opt.timelinePath,
                         std::ios::binary | std::ios::trunc);
        if (!timeline_os)
            return fail("cannot write '" + opt.timelinePath + "'");
    }
    if (want_events) {
        events_os.open(opt.eventsPath,
                       std::ios::binary | std::ios::trunc);
        if (!events_os)
            return fail("cannot write '" + opt.eventsPath + "'");
    }
    std::ofstream trace_os;
    std::optional<TraceEventRecorder> trace;
    if (!opt.traceEventsPath.empty()) {
        trace_os.open(opt.traceEventsPath,
                      std::ios::binary | std::ios::trunc);
        if (!trace_os)
            return fail("cannot write '" + opt.traceEventsPath + "'");
        trace.emplace();
    }

    SweepRunner runner(opt.jobs);
    if (trace)
        runner.setTrace(&*trace);
    if (opt.progress) {
        runner.setProgress([](std::size_t done, std::size_t total,
                              const RunJob &job) {
            std::cerr << "[" << done << "/" << total << "] "
                      << job.label << '\n';
        });
    }

    // ---- open the report stream up front. CSV rows stream out as
    // their chunk completes (flushed), so an interrupted sweep
    // leaves every finished chunk on disk for --resume; only
    // json/table buffer the whole report.
    const std::string &path =
        resuming ? opt.resumePath : opt.outPath;
    std::ofstream file;
    std::ostream *os = report ? report : &std::cout;
    if (!report && !path.empty()) {
        file.open(path, std::ios::binary | std::ios::trunc);
        if (!file)
            return fail("cannot write '" + path + "'");
        os = &file;
    }
    const std::string outName = path.empty() ? "<stdout>" : path;
    const bool stream_csv = opt.format == "csv";
    if (stream_csv)
        checkedAppend(*os,
                      kept.empty() ? sweepCsvHeader() + "\n" : kept,
                      outName);

    // ---- one phase of a chunk: annotate the jobs with telemetry
    // bundles and design-point trace coordinates, run them, and
    // append their telemetry in job order. Analytic cells run only
    // their passes on the runner's workers; each job is then priced
    // from its shared pass, in job order, so the report is
    // --jobs-invariant.
    std::size_t total_runs = 0;
    const PhaseRunner execute = [&](std::vector<RunJob> &jobs,
                                    const std::vector<std::size_t> &cells) {
        std::vector<std::unique_ptr<RunTelemetry>> bundles;
        std::string point;
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            if (want_timeline || want_events) {
                bundles.push_back(std::make_unique<RunTelemetry>());
                bundles.back()->timelineInterval =
                    want_timeline ? opt.timelineInterval : 0;
                bundles.back()->resizeEvents = want_events;
                jobs[k].telemetry = bundles.back().get();
            }
            if (trace) {
                if (k == 0 || cells[k] != cells[k - 1]) {
                    const DesignPoint p = scope.point(cells[k]);
                    std::ostringstream pt;
                    pt << "cell=" << cells[k]
                       << ";app=" << scope.app(cells[k]).name
                       << ";org=" << organizationToken(p.org)
                       << ";strategy=" << strategyName(p.strategy)
                       << ";side=" << sweepSideName(p.side);
                    if (!p.axes.empty())
                        pt << ';' << p.axes;
                    point = pt.str();
                }
                jobs[k].tracePoint = point;
            }
        }
        const auto results = spec.engine.analytic()
                                 ? analytic.price(jobs, runner)
                                 : runner.run(jobs);
        total_runs += jobs.size();
        for (RunJob &job : jobs) {
            if (!job.telemetry)
                continue;
            if (want_timeline) {
                std::ostringstream rec;
                writeTimelineJsonl(rec, job.telemetry->timeline,
                                   job.label);
                checkedAppend(timeline_os, rec.str(), opt.timelinePath,
                              "telemetry.timeline.append");
            }
            if (want_events) {
                std::ostringstream rec;
                writeResizeEventsJsonl(
                    rec, job.telemetry->events.events(), job.label);
                checkedAppend(events_os, rec.str(), opt.eventsPath,
                              "telemetry.events.append");
            }
            job.telemetry = nullptr;
        }
        return results;
    };

    // ---- execute in chunks: a chunk's cells form one CellBatch, so
    // the pool stays busy across cell boundaries (baselines are
    // memoized across chunks); chunk results are reduced, written,
    // and flushed before the next chunk runs.
    BaselineMemo memo;
    std::vector<SweepRecord> buffered; // json/table only
    const std::size_t chunk_min_jobs =
        std::max<std::size_t>(64, 8 * runner.parallelism());

    const auto t0 = std::chrono::steady_clock::now();
    std::size_t next = 0;
    while (next < remaining.size()) {
        CellBatch chunk(scope, memo);
        while (next < remaining.size() &&
               (chunk.empty() || chunk.phase1Jobs() < chunk_min_jobs))
            chunk.add(remaining[next++]);
        const std::vector<SweepRecord> records = chunk.run(execute);
        if (trace)
            for (const std::string &label : chunk.newBaselineLabels())
                trace->instant("baseline-memo", {{"label", label}});

        if (stream_csv) {
            std::ostringstream rows;
            writeSweepCsvRows(rows, records);
            checkedAppend(*os, rows.str(), outName,
                          "csv.chunk.flush");
        } else {
            buffered.insert(buffered.end(), records.begin(),
                            records.end());
        }
        if (want_timeline)
            checkedFlush(timeline_os, opt.timelinePath);
        if (want_events)
            checkedFlush(events_os, opt.eventsPath);
        if (trace)
            trace->instant(
                "chunk-flush",
                {{"cells", std::to_string(chunk.size())},
                 {"jobs", std::to_string(chunk.plannedJobs())}});
        if (opt.chunkDone)
            opt.chunkDone(skip + next);
        // The chunk above is committed (written + flushed): the
        // documented resumable boundary for a polite interrupt.
        if (interruptRequested() && next < remaining.size()) {
            std::cerr << "rcache-sim: interrupted; "
                      << (skip + next) << "/" << owned.size()
                      << " cells committed";
            if (stream_csv && !report && !path.empty())
                std::cerr << "; resume with --resume " << path;
            std::cerr << '\n';
            return interruptExitCode();
        }
    }
    const auto t1 = std::chrono::steady_clock::now();

    if (trace) {
        std::ostringstream out;
        trace->write(out);
        checkedAppend(trace_os, out.str(), opt.traceEventsPath,
                      "telemetry.trace.write");
    }

    if (!stream_csv) {
        if (opt.format == "json")
            writeSweepJson(*os, buffered);
        else
            writeSweepTable(*os, buffered);
        checkedFlush(*os, outName);
    }

    if (!opt.quiet) {
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        std::cerr << "sweep: " << total_runs << " runs in " << secs
                  << " s on " << runner.parallelism()
                  << " worker(s)";
        if (opt.shard.sharded())
            std::cerr << " [shard " << opt.shard.str() << ", "
                      << remaining.size() << "/" << ncells
                      << " cells]";
        if (skip)
            std::cerr << " [resumed past " << skip << " cells]";
        std::cerr << '\n';
    }
    return 0;
}

} // namespace

int
runScenarioSweep(const ParamSpace &space, const SweepOptions &opt)
{
    return sweep(space, opt, nullptr);
}

int
runScenarioSweep(const ParamSpace &space, const SweepOptions &opt,
                 std::ostream &report)
{
    return sweep(space, opt, &report);
}

int
runScenarioSweep(const ScenarioSpec &spec, const SweepOptions &opt)
{
    std::string err;
    auto space = ParamSpace::build(spec, &err);
    if (!space)
        return fail(err);
    return runScenarioSweep(*space, opt);
}

} // namespace rcache
