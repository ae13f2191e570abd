/**
 * @file
 * Cell evaluation: the one plan -> execute -> reduce path behind
 * every design-space search.
 *
 * A "cell" is one (app, design point) pair with a stable app-major
 * global index. For each cell the paper's method runs the
 * non-resizable baseline and every candidate of the cell's
 * (side, org, strategy) search; for side=both it profiles each L1 on
 * its own, then runs the two chosen levels together (the Fig 9
 * method). The minimum-E·D point becomes the cell's SweepRecord.
 *
 * A candidate that simulates the same machine as the cell's baseline
 * (runner/sweep_runner.hh baselineEquivalent: single-core, every L1
 * setup None or Static at level 0 — each static search's full-size
 * candidate, and a side=both combined run at levels (0, 0)) is never
 * run: CellBatch folds it into the baseline's run, repricing that
 * run's energy with the candidate's own tag bits
 * (foldIntoBaseline). The record is bit-identical to running it, so
 * each distinct machine is simulated once per cell. Multi-core
 * candidates always run.
 *
 * CellBatch is that method, once. The exhaustive sweep
 * (scenario/scenario_sweep.cc) feeds it one chunk at a time with a
 * baseline memo that spans chunks; the adaptive search
 * (search/adaptive_search.cc) feeds it one round (or one claim unit)
 * under the rung's engine. Both hand it a PhaseRunner that executes
 * each phase's job list — on a SweepRunner, or priced from shared
 * analytic passes — and may annotate the jobs first (telemetry,
 * trace points). Because there is one planner and one fold, a tune
 * winner row is byte-identical to the exhaustive sweep's row for the
 * same cell under the same engine.
 */

#ifndef RCACHE_SCENARIO_CELL_EVAL_HH
#define RCACHE_SCENARIO_CELL_EVAL_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "scenario/param_space.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace rcache
{

class AnalyticBatch;

/** One [workloads] entry: a profile, or a '+'-joined mix. */
struct AppEntry
{
    /** The name as written (the CSV app column). */
    std::string name;
    /** Resolved components (size 1 for a plain profile). */
    std::vector<BenchmarkProfile> mix;
};

/**
 * Resolve a scenario's [workloads] list (empty = the whole SPEC2000
 * suite) into AppEntry rows, in enumeration order. On an unknown
 * name returns an empty vector and sets @p err.
 */
std::vector<AppEntry> resolveApps(const ScenarioSpec &spec,
                                  std::string *err);

/** The workload a cell actually simulates, after any 'mix' axis
 *  override. */
struct EffectiveWorkload
{
    /** Label profile the cell's jobs are built from: the first
     *  component carrying the full mix name (what labels/memo keys
     *  show). */
    BenchmarkProfile label;
    std::vector<BenchmarkProfile> mix;
};

EffectiveWorkload effectiveWorkload(const AppEntry &entry,
                                    const DesignPoint &p);

/** The CacheSide a single-side sweep side resizes (not Both). */
CacheSide cacheSideOf(SweepSide side);

/** Memo key of a cell's baseline: the full scenario-visible system
 *  identity (core count/quantum/models included via systemConfigKey)
 *  plus the engine selection (insts are sweep-constant). @p workload
 *  is the effective workload name — the mix override when a 'mix'
 *  axis set one, else the cell's app. */
std::string baselineKey(const SystemConfig &cfg,
                        const EngineSpec &engine,
                        const std::string &workload);

/** The cells of one scenario and the engine they run under. */
struct CellScope
{
    const ParamSpace &space;
    /** resolveApps(space.spec()). */
    const std::vector<AppEntry> &apps;
    /** Non-null: every cell runs under this engine instead of its
     *  design point's own (a tune rung). */
    const EngineSpec *engine = nullptr;

    /** Cell @p cell's design point, engine override applied. */
    DesignPoint point(std::size_t cell) const;
    const AppEntry &app(std::size_t cell) const
    {
        return apps[cell / space.numPoints()];
    }
};

/** Baseline results by baselineKey. Owned by the caller so it can
 *  span batches (the sweep's chunks). */
using BaselineMemo = std::map<std::string, RunResult>;

/**
 * Executes one phase's jobs and returns their results in job order.
 * @p cells parallels @p jobs: the cell each job was planned for (a
 * shared baseline belongs to the first cell that needed it). The
 * runner may annotate the jobs (telemetry, trace points) before it
 * runs them.
 */
using PhaseRunner = std::function<std::vector<RunResult>(
    std::vector<RunJob> &jobs, const std::vector<std::size_t> &cells)>;

/** Register @p cells' configurations with @p batch; a shared pass
 *  cannot learn new geometries once it has run, so register every
 *  cell an AnalyticBatch will price before pricing any. */
void registerAnalytic(AnalyticBatch &batch, const CellScope &scope,
                      const std::vector<std::size_t> &cells);

/** See file comment. */
class CellBatch
{
  public:
    /** @p memo, and what @p scope refers to, must outlive the
     *  batch. */
    CellBatch(const CellScope &scope, BaselineMemo &memo);

    /**
     * Plan @p cell's phase-1 jobs: its baseline, unless the memo or
     * an earlier cell of this batch already has it, then its
     * candidates (side=both: every d-cache level, then every i-cache
     * level), marking those that fold into the baseline.
     */
    void add(std::size_t cell);

    bool empty() const { return cells_.empty(); }
    std::size_t size() const { return cells_.size(); }
    /** Phase-1 jobs planned so far, folded ones included (what the
     *  sweep sizes its chunks by). */
    std::size_t phase1Jobs() const { return jobs_.size(); }
    /** Every job of the method: phase 1 plus one combined run per
     *  side=both cell, folded ones included (the tune's cost
     *  model). */
    std::size_t plannedJobs() const { return jobs_.size() + both_; }

    /**
     * Run phase 1's unfolded jobs through @p execute, publish its
     * new baselines to the memo, fold the rest into them, run the
     * side=both combined points that do not fold through
     * @p execute, and reduce every cell to its minimum-E·D record.
     * @return one record per added cell, in add() order. Call once.
     */
    std::vector<SweepRecord> run(const PhaseRunner &execute);

    /** Labels of the baselines this batch ran, in job order. */
    std::vector<std::string> newBaselineLabels() const;

  private:
    struct Cell
    {
        std::size_t cell = 0;
        DesignPoint point;
        EffectiveWorkload eff;
        std::string baseKey;
        /** Candidate jobs: [off, end); side=both splits d-cache
         *  [off, mid) from i-cache [mid, end). */
        std::size_t off = 0, mid = 0, end = 0;
        /** One per candidate job, in job order. */
        std::vector<SearchCandidate> candidates;
    };

    CellScope scope_;
    BaselineMemo &memo_;
    std::vector<Cell> cells_;
    std::vector<RunJob> jobs_;
    std::vector<std::size_t> jobCells_;
    /** Per phase-1 job: baselineEquivalent, so it folds. */
    std::vector<bool> folds_;
    /** Baselines first planned here: key -> job index. */
    std::map<std::string, std::size_t> newBases_;
    std::size_t both_ = 0;
};

/** Plan, execute, and reduce @p cells in one CellBatch. */
std::vector<SweepRecord>
evaluateCells(const CellScope &scope,
              const std::vector<std::size_t> &cells,
              BaselineMemo &memo, const PhaseRunner &execute);

/**
 * Evaluate every cell of @p space — each [workloads] app at each
 * design point, app-major — as one CellBatch on @p runner, pricing
 * analytic cells from shared passes as the sweep does. The apps must
 * resolve (the parser checks [workloads]; a bad programmatic list is
 * fatal).
 * @return one record per cell, in cell order
 */
std::vector<SweepRecord> evaluateSpace(const ParamSpace &space,
                                       const SweepRunner &runner);

} // namespace rcache

#endif // RCACHE_SCENARIO_CELL_EVAL_HH
