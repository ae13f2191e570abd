/**
 * @file
 * Perf-regression harness: named throughput benchmarks over the
 * simulator's hot paths, reported as machine-readable BENCH_*.json.
 *
 * The figure benches answer "what does the paper's design space look
 * like"; this harness answers "how fast does the simulator itself
 * run", and writes one JSON file per benchmark so CI can archive the
 * perf trajectory from PR to PR and scripts can diff two checkouts.
 *
 * Every benchmark builds its entire state fresh per repetition, times
 * only the measured region with a monotonic clock, and reports the
 * best repetition (noise on a shared machine only ever slows a run
 * down, so best-of is the robust aggregate). Results are therefore
 * comparable across runs of the same binary, and across binaries on
 * the same machine — not across machines.
 *
 * Exposed through `rcache-sim bench`; see runPerfBenches.
 */

#ifndef RCACHE_BENCH_HARNESS_PERF_HARNESS_HH
#define RCACHE_BENCH_HARNESS_PERF_HARNESS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace rcache::bench
{

/** Knobs shared by every perf benchmark. */
struct BenchOptions
{
    /** Instructions (or items) per repetition. */
    std::uint64_t items = 2000000;
    /** Timed repetitions per benchmark (best one is reported). */
    unsigned repetitions = 3;
    /** Directory BENCH_<name>.json files are written into. */
    std::string outDir = ".";
    /** Substring filter on benchmark names (empty = all). */
    std::string filter;
};

/** One benchmark's measurement. */
struct BenchResult
{
    std::string name;
    /** Unit of @c throughput ("Minst/s" or "Mops/s"). */
    std::string unit;
    /** Millions of items per second, best repetition. */
    double throughput = 0;
    /** Wall seconds of the best repetition. */
    double wallSeconds = 0;
    /** Items processed per repetition. */
    std::uint64_t items = 0;
    unsigned repetitions = 0;
    /** Benchmark-specific configuration, serialized into the JSON. */
    std::vector<std::pair<std::string, std::string>> config;
};

/** A named, registered benchmark. */
struct BenchSpec
{
    std::string name;
    std::string description;
    std::function<BenchResult(const BenchOptions &)> run;
};

/** The registry, in report order. */
const std::vector<BenchSpec> &perfBenches();

/**
 * Time @p reps runs of @p fn (a void() closure over pre-built state)
 * and return the best wall seconds. @p fn must rebuild any state it
 * consumes; the harness never reuses warm state across repetitions.
 */
double bestWallSeconds(unsigned reps, const std::function<void()> &fn);

/** Serialize @p r as the BENCH_*.json document (stable field order,
 *  shortest round-trip doubles, trailing newline). */
std::string benchJson(const BenchResult &r);

/**
 * Write @p r to @c dir/BENCH_<name>.json.
 * @return false (with @p err set) if the file cannot be written
 */
bool writeBenchJson(const BenchResult &r, const std::string &dir,
                    std::string *err);

/**
 * Run every registered benchmark whose name contains
 * @p opts.filter, print a one-line summary each, and write the JSON
 * files into @p opts.outDir (created, with parents, if missing).
 * @return 0 on success, nonzero if any file write failed
 */
int runPerfBenches(const BenchOptions &opts);

} // namespace rcache::bench

#endif // RCACHE_BENCH_HARNESS_PERF_HARNESS_HH
