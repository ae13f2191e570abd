/**
 * @file
 * Quickstart: build the paper's base system (Table 2), run one
 * workload three ways — non-resizable, static selective-sets, dynamic
 * selective-sets — and print the energy-delay comparison. The
 * baseline and both profiling searches run as one batch of RunJobs;
 * each search reduces to its minimum-energy-delay candidate.
 *
 * Usage: quickstart [profile-name] [instructions]
 */

#include <iostream>

#include "example_args.hh"
#include "runner/sweep_runner.hh"
#include "sim/experiment.hh"
#include "sim/table.hh"

using namespace rcache;

int
main(int argc, char **argv)
{
    const ExampleArgs args("quickstart", argc, argv);
    const std::string profile_name = args.word(1, "compress");
    const std::uint64_t insts = args.count(2, "instructions", 1000000);

    BenchmarkProfile profile = profileByName(profile_name);

    // The paper's base system: 4-wide OoO, 32K 2-way L1s, 512K L2.
    SystemConfig cfg = SystemConfig::base();
    Experiment exp(cfg, insts);

    std::cout << "rcache quickstart: " << profile_name << ", " << insts
              << " instructions, base system ("
              << coreModelName(cfg.coreModel) << ")\n\n";

    const CacheSide side = CacheSide::DCache;
    const Organization org = Organization::SelectiveSets;
    std::vector<RunJob> jobs{exp.baselineJob(profile)};
    const auto st_jobs =
        exp.searchJobs(profile, side, org, Strategy::Static);
    const auto dy_jobs =
        exp.searchJobs(profile, side, org, Strategy::Dynamic);
    jobs.insert(jobs.end(), st_jobs.begin(), st_jobs.end());
    jobs.insert(jobs.end(), dy_jobs.begin(), dy_jobs.end());
    const std::vector<RunResult> runs = SweepRunner::runSerial(jobs);
    const RunResult &base = runs[0];
    const auto st_end = runs.begin() + 1 + st_jobs.size();

    std::cout << "baseline (non-resizable 32K 2-way d-cache):\n"
              << "  cycles " << base.cycles << "  IPC "
              << TextTable::num(base.ipc()) << "  d-miss "
              << TextTable::pct(100 * base.dl1MissRatio) << "\n"
              << base.energy << '\n';

    const SearchOutcome st = Experiment::reduceSearch(
        base, exp.searchCandidates(side, org, Strategy::Static),
        {runs.begin() + 1, st_end});
    const SearchOutcome dy = Experiment::reduceSearch(
        base, exp.searchCandidates(side, org, Strategy::Dynamic),
        {st_end, runs.end()});

    TextTable t({"d-cache setup", "avg size", "miss ratio",
                 "perf loss", "E*D reduction"});
    t.addRow({"non-resizable", TextTable::bytesKb(base.avgDl1Bytes),
              TextTable::pct(100 * base.dl1MissRatio), "-", "-"});
    t.addRow({"static selective-sets",
              TextTable::bytesKb(st.best.avgDl1Bytes),
              TextTable::pct(100 * st.best.dl1MissRatio),
              TextTable::pct(st.perfDegradationPct()),
              TextTable::pct(st.edReductionPct())});
    t.addRow({"dynamic selective-sets",
              TextTable::bytesKb(dy.best.avgDl1Bytes),
              TextTable::pct(100 * dy.best.dl1MissRatio),
              TextTable::pct(dy.perfDegradationPct()),
              TextTable::pct(dy.edReductionPct())});
    t.print(std::cout);

    std::cout << "\nstatic best level: " << st.bestLevel << " ("
              << TextTable::bytesKb(static_cast<double>(
                     st.best.avgDl1Bytes))
              << "), dynamic miss-bound " << dy.bestParams.missBound
              << "/interval\n";
    return 0;
}
