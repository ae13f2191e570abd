/**
 * @file
 * Dynamic adaptation trace: run the miss-ratio-based controller on a
 * phased workload and print the selected cache size at every interval
 * boundary as an ASCII strip chart — making the paper's "dynamic
 * resizing reacts to varying working sets" visible.
 *
 * Usage: dynamic_adaptation [profile] [missBound%] [instructions]
 */

#include <iostream>

#include "example_args.hh"
#include "sim/experiment.hh"
#include "sim/table.hh"

using namespace rcache;

int
main(int argc, char **argv)
{
    const ExampleArgs args("dynamic_adaptation", argc, argv);
    const std::string profile_name = args.word(1, "su2cor");
    const double bound_pct = args.number(2, "missBound%", 2.5);
    const std::uint64_t insts = args.count(3, "instructions", 1200000);

    BenchmarkProfile profile = profileByName(profile_name);
    SystemConfig cfg = SystemConfig::base();
    cfg.coreModel = CoreModel::InOrder; // expose the misses
    cfg.dl1Org = Organization::SelectiveSets;

    DynamicParams dyn;
    dyn.intervalAccesses = 8192;
    dyn.missBound = static_cast<std::uint64_t>(
        bound_pct / 100.0 * static_cast<double>(dyn.intervalAccesses));
    dyn.sizeBoundBytes = 16 * 1024;

    std::cout << "dynamic adaptation: " << profile_name
              << " d-cache, in-order core, interval "
              << dyn.intervalAccesses << " accesses, miss-bound "
              << dyn.missBound << ", size-bound "
              << TextTable::bytesKb(static_cast<double>(
                     dyn.sizeBoundBytes))
              << "\n\n";

    SyntheticWorkload wl(profile);
    System sys(cfg);
    RunResult r = sys.run(wl, insts, {},
                          ResizeSetup{Strategy::Dynamic, 0, dyn});

    const auto schedule =
        buildSchedule(Organization::SelectiveSets, cfg.dl1);

    // Strip chart: one row per size level, one column per ~interval.
    const auto &trace = r.dl1LevelTrace;
    const std::size_t width = 72;
    const std::size_t stride = std::max<std::size_t>(
        1, trace.size() / width);
    for (unsigned lvl = 0; lvl < schedule.size(); ++lvl) {
        std::cout << TextTable::bytesKb(static_cast<double>(
                         schedule[lvl].sizeBytes(32)))
                  << "\t|";
        for (std::size_t i = 0; i < trace.size(); i += stride)
            std::cout << (trace[i] == lvl ? '#' : ' ');
        std::cout << "|\n";
    }
    std::cout << "\t time ->  (" << trace.size()
              << " intervals total)\n\n";

    // Compare against the baseline.
    SyntheticWorkload wb(profile);
    System base(SystemConfig::base());
    // Use the same core model for a fair comparison.
    SystemConfig bcfg = cfg;
    bcfg.dl1Org = Organization::None;
    SyntheticWorkload wb2(profile);
    System base2(bcfg);
    RunResult b = base2.run(wb2, insts);

    std::cout << "average enabled d-cache size: "
              << TextTable::bytesKb(r.avgDl1Bytes) << " (of 32K; "
              << TextTable::pct(100 * (1 - r.avgDl1Bytes / 32768.0))
              << " reduction)\n"
              << "resizes: " << r.dl1Resizes
              << ", performance loss: "
              << TextTable::pct(
                     100.0 * (static_cast<double>(r.cycles) /
                                  b.cycles -
                              1.0))
              << ", processor E*D reduction: "
              << TextTable::pct(100.0 * (1 - r.edp() / b.edp()))
              << "\n";
    return 0;
}
