/**
 * @file
 * Resizing explorer: sweep every offered configuration of an
 * organization for one application and print the full
 * size/miss/performance/energy-delay trade-off curve — the raw data
 * behind the paper's static profiling methodology.
 *
 * The level sweep runs through the runner subsystem: the baseline
 * and every level are enumerated as RunJobs and executed as one
 * batch, in parallel when jobs > 1.
 *
 * Usage: resizing_explorer [profile] [org: ways|sets|hybrid]
 *                          [side: d|i] [assoc] [instructions] [jobs]
 */

#include <iostream>

#include "example_args.hh"
#include "runner/sweep_runner.hh"
#include "sim/experiment.hh"
#include "sim/table.hh"

using namespace rcache;

namespace
{

Organization
parseOrg(const ExampleArgs &args, const std::string &s)
{
    if (s == "ways")
        return Organization::SelectiveWays;
    if (s == "sets")
        return Organization::SelectiveSets;
    if (s == "hybrid")
        return Organization::Hybrid;
    args.fail("unknown organization '" + s +
              "' (expected ways|sets|hybrid)");
}

} // namespace

int
main(int argc, char **argv)
{
    const ExampleArgs args("resizing_explorer", argc, argv);
    const std::string profile_name = args.word(1, "compress");
    const Organization org = parseOrg(args, args.word(2, "hybrid"));
    const std::string side_arg = args.word(3, "d");
    if (side_arg != "d" && side_arg != "i")
        args.fail("side: expected d or i, got '" + side_arg + "'");
    const bool dcache = side_arg == "d";
    const auto assoc =
        static_cast<unsigned>(args.count(4, "assoc", 4));
    const std::uint64_t insts = args.count(5, "instructions", 800000);
    const auto jobs =
        static_cast<unsigned>(args.count(6, "jobs", 1, true));

    BenchmarkProfile profile = profileByName(profile_name);
    SystemConfig cfg = SystemConfig::base();
    cfg.il1.assoc = assoc;
    cfg.dl1.assoc = assoc;
    if (std::string bad = cfg.dl1.validate(); !bad.empty()) {
        bad.resize(bad.size() - 2); // drop the trailing "; "
        args.fail("assoc: invalid 32K geometry (" + bad + ")");
    }

    const CacheSide side =
        dcache ? CacheSide::DCache : CacheSide::ICache;
    const CacheGeometry &geom = dcache ? cfg.dl1 : cfg.il1;
    auto schedule = buildSchedule(org, geom);

    std::cout << "resizing explorer: " << profile_name << ", "
              << organizationName(org) << " "
              << (dcache ? "d-cache" : "i-cache") << ", " << assoc
              << "-way 32K, " << insts << " instructions\n\n";

    // One batch: the non-resizable baseline plus every offered
    // level (job index == schedule level).
    Experiment exp(cfg, insts);
    SweepRunner runner(jobs);
    std::vector<RunJob> batch{exp.baselineJob(profile)};
    auto level_jobs = exp.searchJobs(profile, side, org,
                                     Strategy::Static);
    batch.insert(batch.end(), level_jobs.begin(), level_jobs.end());
    const auto results = runner.run(batch);
    const RunResult &base = results[0];

    TextTable t({"level", "size", "config", "miss ratio", "IPC",
                 "perf loss", "rel energy", "rel E*D"});
    double best_edp = 0;
    unsigned best_level = 0;
    for (unsigned lvl = 0; lvl < schedule.size(); ++lvl) {
        const RunResult &r = results[1 + lvl];
        const double miss =
            dcache ? r.dl1MissRatio : r.il1MissRatio;
        const double edp_rel = r.edp() / base.edp();
        if (lvl == 0 || r.edp() < best_edp) {
            best_edp = r.edp();
            best_level = lvl;
        }
        t.addRow({std::to_string(lvl),
                  TextTable::bytesKb(static_cast<double>(
                      schedule[lvl].sizeBytes(geom.blockSize))),
                  std::to_string(schedule[lvl].ways) + "-way x " +
                      std::to_string(schedule[lvl].sets) + " sets",
                  TextTable::pct(100 * miss),
                  TextTable::num(r.ipc()),
                  TextTable::pct(100.0 * (static_cast<double>(
                                              r.cycles) /
                                              base.cycles -
                                          1.0)),
                  TextTable::num(r.energy.total() /
                                     base.energy.total(),
                                 3),
                  TextTable::num(edp_rel, 3)});
    }
    t.print(std::cout);

    std::cout << "\nbest energy-delay at level " << best_level
              << " ("
              << TextTable::bytesKb(static_cast<double>(
                     schedule[best_level].sizeBytes(geom.blockSize)))
              << "): " << TextTable::pct(100 * (1 - best_edp /
                                                        base.edp()))
              << " reduction vs non-resizable.\n";
    return 0;
}
