/** @file
 * Test helper: a scenario's cells evaluated through the one cell path
 * (evaluateSpace), the way the sweep and the figure benches do.
 */

#ifndef RCACHE_TESTS_SCENARIO_SWEEP_CELLS_HH
#define RCACHE_TESTS_SCENARIO_SWEEP_CELLS_HH

#include <string>
#include <vector>

#include "scenario/cell_eval.hh"
#include "util/logging.hh"

namespace rcache
{

/**
 * Parse the scenario text @p scn, evaluate every cell on @p jobs
 * workers, and return the records app-major (cell order). A scenario
 * that does not parse or build is a bug in the test: it panics with
 * the diagnostic.
 */
inline std::vector<SweepRecord>
sweepCells(const std::string &scn, unsigned jobs = 1)
{
    std::string err;
    const auto spec = ScenarioSpec::parseText(scn, "test.scn", &err);
    if (!spec)
        rc_panic(err);
    const auto space = ParamSpace::build(*spec, &err);
    if (!space)
        rc_panic(err);
    return evaluateSpace(*space, SweepRunner(jobs));
}

} // namespace rcache

#endif // RCACHE_TESTS_SCENARIO_SWEEP_CELLS_HH
