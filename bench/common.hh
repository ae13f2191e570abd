/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench binary reads RCACHE_INSTS (instructions per simulated
 * run; default 800000) and RCACHE_APPS (comma-separated subset of
 * profile names) from the environment so the full suite can be scaled
 * to the machine at hand; the engine-aware benches (fig4, fig9)
 * additionally honor RCACHE_ENGINE (see benchEngine below). The paper
 * ran 2 billion instructions per
 * data point on SimpleScalar; the shapes reported in EXPERIMENTS.md
 * are stable from a few hundred thousand instructions up.
 */

#ifndef RCACHE_BENCH_COMMON_HH
#define RCACHE_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "runner/sweep_runner.hh"
#include "scenario/param_space.hh"
#include "scenario/scenario_spec.hh"
#include "sim/experiment.hh"
#include "sim/table.hh"
#include "util/logging.hh"

namespace rcache::bench
{

/** Instructions per run (RCACHE_INSTS, default 400k). */
inline std::uint64_t
runInsts()
{
    if (const char *env = std::getenv("RCACHE_INSTS"))
        return std::strtoull(env, nullptr, 10);
    return 400000;
}

/** Instructions per run: RCACHE_INSTS overrides the scenario's. */
inline std::uint64_t
runInsts(const ScenarioSpec &spec)
{
    if (const char *env = std::getenv("RCACHE_INSTS"))
        return std::strtoull(env, nullptr, 10);
    return spec.insts;
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

/** Load and fully validate scenarios/@p name; fatal with the
 *  parser/registry diagnostic on any error. */
inline ScenarioSpec
loadScenario(const std::string &name)
{
    const std::string path = scenarioDir() + "/" + name;
    std::string err;
    auto spec = ScenarioSpec::parseFile(path, &err);
    if (!spec)
        rc_fatal(err);
    if (!ParamSpace::build(*spec, &err))
        rc_fatal(path + ": " + err);
    return *spec;
}

/** The named axis of @p spec; fatal if the scenario lacks it (the
 *  figure benches are shaped around specific axes). */
inline const Axis &
requireAxis(const ScenarioSpec &spec, const std::string &name)
{
    for (const Axis &axis : spec.axes)
        if (axis.name == name)
            return axis;
    rc_fatal("scenario '" + spec.name + "' lacks the '" + name +
             "' axis this bench renders");
}

/** Sweep-runner worker threads (RCACHE_JOBS; default 1 = serial,
 *  0 = hardware concurrency). Results are identical either way. */
inline unsigned
benchJobs()
{
    if (const char *env = std::getenv("RCACHE_JOBS"))
        return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    return 1;
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

/** Profiles to run (RCACHE_APPS=ammp,gcc,... or the full suite). */
inline std::vector<BenchmarkProfile>
suite()
{
    const char *env = std::getenv("RCACHE_APPS");
    if (!env)
        return spec2000Suite();
    std::vector<BenchmarkProfile> out;
    std::stringstream ss(env);
    std::string name;
    while (std::getline(ss, name, ','))
        out.push_back(profileByName(name));
    return out;
}

/** Profiles to run: RCACHE_APPS overrides the scenario's
 *  [workloads] list. */
inline std::vector<BenchmarkProfile>
suite(const ScenarioSpec &spec)
{
    if (std::getenv("RCACHE_APPS") || spec.apps.empty())
        return suite();
    std::vector<BenchmarkProfile> out;
    for (const std::string &name : spec.apps)
        out.push_back(profileByName(name));
    return out;
}

/** Base config with the L1 associativity swapped (32K total kept). */
inline SystemConfig
baseWithAssoc(unsigned assoc)
{
    SystemConfig cfg = SystemConfig::base();
    cfg.il1.assoc = assoc;
    cfg.dl1.assoc = assoc;
    return cfg;
}

/** Print the standard bench banner. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::cout << "=== " << what << " ===\n"
              << "reproduces: " << paper_ref << "\n"
              << "instructions/run: " << runInsts() << "\n";
    const EngineSpec e = benchEngine();
    if (e.mode != EngineMode::Full)
        std::cout << "engine: " << engineArg(e)
                  << " (not comparable to full-detail tables)\n";
    std::cout << '\n';
}

} // namespace rcache::bench

#endif // RCACHE_BENCH_COMMON_HH
