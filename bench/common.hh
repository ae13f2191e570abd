/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench binary reads RCACHE_INSTS (instructions per simulated
 * run; default 400000) and RCACHE_APPS (comma-separated subset of
 * profile names) from the environment so the full suite can be scaled
 * to the machine at hand. The figure benches evaluate a scenario
 * through the one cell path (evaluateSpace, scenario/cell_eval.hh), so
 * they also honor RCACHE_JOBS (worker threads) and RCACHE_ENGINE (see
 * benchEngine below), and their tables equal `rcache-sim sweep` on the
 * same scenario. The paper ran 2 billion instructions per data point
 * on SimpleScalar; the shapes reported in EXPERIMENTS.md are stable
 * from a few hundred thousand instructions up.
 */

#ifndef RCACHE_BENCH_COMMON_HH
#define RCACHE_BENCH_COMMON_HH

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "runner/sweep_runner.hh"
#include "scenario/cell_eval.hh"
#include "scenario/param_space.hh"
#include "scenario/scenario_spec.hh"
#include "sim/table.hh"
#include "util/logging.hh"
#include "util/numformat.hh"

namespace rcache::bench
{

/** Strict unsigned value of environment variable @p name, or
 *  @p fallback when unset; fatal on anything but a decimal integer
 *  (and on 0 unless @p zero_ok). */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback, bool zero_ok)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    unsigned long long v = 0;
    if (!parseU64Strict(env, v) || (v == 0 && !zero_ok))
        rc_fatal(std::string(name) + ": expected a " +
                 (zero_ok ? "non-negative" : "positive") +
                 " integer, got '" + env + "'");
    return v;
}

/** Instructions per run (RCACHE_INSTS, default 400k). */
inline std::uint64_t
runInsts()
{
    return envU64("RCACHE_INSTS", 400000, false);
}

/** Sweep-runner worker threads (RCACHE_JOBS; default 1 = serial,
 *  0 = hardware concurrency). Results are identical either way. */
inline unsigned
benchJobs()
{
    return static_cast<unsigned>(std::min<std::uint64_t>(
        envU64("RCACHE_JOBS", 1, true), ThreadPool::maxThreads));
}

/**
 * Engine selection from RCACHE_ENGINE, in the CLI's --engine grammar
 * (parseEngineArg: full, sampled[:interval=N,...], analytic; unset
 * or empty = full detail). Sampled bench tables are comparable across
 * RCACHE_JOBS values but NOT against full-detail tables — see the
 * README's Engines section.
 */
inline EngineSpec
benchEngine()
{
    const char *env = std::getenv("RCACHE_ENGINE");
    if (!env || !*env)
        return {};
    std::string err;
    const std::optional<EngineSpec> spec = parseEngineArg(env, &err);
    if (!spec)
        rc_fatal("RCACHE_ENGINE: " + err);
    return *spec;
}

/** RCACHE_APPS split on commas (empty = the whole suite). */
inline std::vector<std::string>
appNames()
{
    std::vector<std::string> names;
    if (const char *env = std::getenv("RCACHE_APPS")) {
        std::stringstream ss(env);
        std::string name;
        while (std::getline(ss, name, ','))
            names.push_back(name);
    }
    return names;
}

/** Profiles to run (RCACHE_APPS=ammp,gcc,... or the full suite). */
inline std::vector<BenchmarkProfile>
suite()
{
    const std::vector<std::string> names = appNames();
    if (names.empty())
        return spec2000Suite();
    std::vector<BenchmarkProfile> out;
    for (const std::string &name : names)
        out.push_back(profileByName(name));
    return out;
}

/** Apply RCACHE_INSTS, RCACHE_APPS and RCACHE_ENGINE (whichever are
 *  set) to @p spec. */
inline void
applyEnv(ScenarioSpec &spec)
{
    spec.insts = envU64("RCACHE_INSTS", spec.insts, false);
    if (const std::vector<std::string> names = appNames(); !names.empty())
        spec.apps = names;
    if (const char *env = std::getenv("RCACHE_ENGINE"); env && *env)
        spec.engine = benchEngine();
}

/**
 * Directory holding the checked-in scenario files:
 * RCACHE_SCENARIO_DIR overrides the compile-time source-tree path
 * (so installed/relocated bench binaries still find them).
 */
inline std::string
scenarioDir()
{
    if (const char *env = std::getenv("RCACHE_SCENARIO_DIR"))
        return env;
#ifdef RCACHE_SCENARIO_SOURCE_DIR
    return RCACHE_SCENARIO_SOURCE_DIR;
#else
    return "scenarios";
#endif
}

/** Load scenarios/@p name with the environment applied (applyEnv);
 *  fatal with the parser diagnostic on any error. */
inline ScenarioSpec
loadScenario(const std::string &name)
{
    const std::string path = scenarioDir() + "/" + name;
    std::string err;
    auto spec = ScenarioSpec::parseFile(path, &err);
    if (!spec)
        rc_fatal(err);
    applyEnv(*spec);
    return *spec;
}

/** The values of @p spec's @p name axis; fatal if the scenario lacks
 *  it (the figure benches are shaped around specific axes). */
inline const std::vector<std::string> &
axisValues(const ScenarioSpec &spec, const std::string &name)
{
    for (const Axis &axis : spec.axes)
        if (axis.name == name)
            return axis.values;
    rc_fatal("scenario '" + spec.name + "' lacks the '" + name +
             "' axis this bench renders");
}

/**
 * A figure's cells: every (app, design point) of a scenario,
 * evaluated by evaluateSpace on RCACHE_JOBS workers. Panels look a
 * cell up by its axis values, so they do not depend on the order in
 * which the scenario lists its axes.
 */
class Figure
{
  public:
    /** Axis name -> value token, one entry per scenario axis. */
    using Coords = std::map<std::string, std::string>;

    explicit Figure(const ScenarioSpec &spec) : spec_(spec)
    {
        std::string err;
        const auto space = ParamSpace::build(spec_, &err);
        if (!space)
            rc_fatal("scenario '" + spec_.name + "': " + err);
        points_ = space->numPoints();
        records_ = evaluateSpace(*space, SweepRunner(benchJobs()));
    }

    const ScenarioSpec &spec() const { return spec_; }
    std::size_t numApps() const { return records_.size() / points_; }

    /** App @p a's record at @p at ([workloads] order). */
    const SweepRecord &
    cell(std::size_t a, const Coords &at) const
    {
        return records_[a * points_ + point(at)];
    }

    /** @p field summed over the apps at @p at, in app order. */
    double
    sum(double SweepRecord::*field, const Coords &at) const
    {
        double total = 0;
        for (std::size_t a = 0; a < numApps(); ++a)
            total += cell(a, at).*field;
        return total;
    }

  private:
    /** Row-major point index of @p at (first axis outermost). */
    std::size_t
    point(const Coords &at) const
    {
        if (at.size() != spec_.axes.size())
            rc_fatal("figure lookup names " + std::to_string(at.size()) +
                     " axes; scenario '" + spec_.name + "' has " +
                     std::to_string(spec_.axes.size()));
        std::size_t idx = 0;
        for (const Axis &axis : spec_.axes) {
            const auto it = at.find(axis.name);
            const auto v =
                it == at.end() ? axis.values.end()
                               : std::find(axis.values.begin(),
                                           axis.values.end(), it->second);
            if (v == axis.values.end())
                rc_fatal("scenario '" + spec_.name +
                         "': figure lookup misses a value of axis '" +
                         axis.name + "'");
            idx = idx * axis.values.size() +
                  static_cast<std::size_t>(v - axis.values.begin());
        }
        return idx;
    }

    ScenarioSpec spec_;
    std::size_t points_ = 1;
    std::vector<SweepRecord> records_;
};

/** The "(a) D-Cache" / "(b) I-Cache" panel title of a side token. */
inline std::string
sidePanel(const std::string &side)
{
    return side == "dcache" ? "(a) D-Cache" : "(b) I-Cache";
}

/**
 * Figures 7 and 8: static vs dynamic resizing per app, one panel per
 * value of the scenario's core axis (its other axis is strategy).
 */
inline void
strategyPanels(const Figure &fig)
{
    for (const std::string &core : axisValues(fig.spec(), "core")) {
        std::cout << (core == "inorder"
                          ? "(a) in-order issue engine with blocking "
                            "d-cache"
                          : "(b) out-of-order issue engine with "
                            "nonblocking d-cache")
                  << "\n\n";
        TextTable t({"app", "static size-red", "dynamic size-red",
                     "static E*D-red", "dynamic E*D-red"});
        double ssz = 0, dsz = 0, sed = 0, ded = 0;
        for (std::size_t a = 0; a < fig.numApps(); ++a) {
            const SweepRecord &st =
                fig.cell(a, {{"core", core}, {"strategy", "static"}});
            const SweepRecord &dy =
                fig.cell(a, {{"core", core}, {"strategy", "dynamic"}});
            ssz += st.sizeReductionPct;
            dsz += dy.sizeReductionPct;
            sed += st.edReductionPct;
            ded += dy.edReductionPct;
            t.addRow({st.app, TextTable::pct(st.sizeReductionPct),
                      TextTable::pct(dy.sizeReductionPct),
                      TextTable::pct(st.edReductionPct),
                      TextTable::pct(dy.edReductionPct)});
        }
        const double n = static_cast<double>(fig.numApps());
        t.addRow({"AVG", TextTable::pct(ssz / n),
                  TextTable::pct(dsz / n), TextTable::pct(sed / n),
                  TextTable::pct(ded / n)});
        t.print(std::cout);
        std::cout << '\n';
    }
}

/** Print the standard bench banner. Validates every environment
 *  knob, so a malformed one fails even a bench that ignores it. */
inline void
banner(const std::string &what, const std::string &paper_ref,
       std::uint64_t insts = runInsts())
{
    benchJobs();
    std::cout << "=== " << what << " ===\n"
              << "reproduces: " << paper_ref << "\n"
              << "instructions/run: " << insts << "\n";
    const EngineSpec e = benchEngine();
    if (e.mode != EngineMode::Full)
        std::cout << "engine: " << engineArg(e)
                  << " (not comparable to full-detail tables)\n";
    std::cout << '\n';
}

} // namespace rcache::bench

#endif // RCACHE_BENCH_COMMON_HH
