/** @file
 * Tests for the shared cell-evaluation path (scenario/cell_eval.hh):
 * records must not depend on how cells are grouped into batches —
 * the sweep's chunk boundaries — and must be exactly the rows
 * runScenarioSweep writes. A candidate folded into its cell's
 * baseline run must equal running it.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <set>
#include <sstream>

#include "scenario/cell_eval.hh"
#include "scenario/scenario_sweep.hh"
#include "tests/sim/expect_same_result.hh"

namespace rcache
{

namespace
{

/** side=both cells (static only) over a 'mix' axis. */
const char *const kBothMix = R"([scenario]
name = cell-eval-both
insts = 12000

[cores]
count = 2
quantum = 4000

[workloads]
apps = gcc

[axes]
mix = gcc+m88ksim,ammp
side = dcache,both
org = ways,sets

[search]
strategy = static
)";

/** Dynamic-strategy cells over a 'mix' axis. */
const char *const kDynamicMix = R"([scenario]
name = cell-eval-dynamic
insts = 12000

[cores]
count = 2
quantum = 4000

[workloads]
apps = gcc

[axes]
mix = gcc+m88ksim,ammp
strategy = static,dynamic

[search]
side = dcache
org = sets
intervals = 1024
miss-fractions = 0.01
size-fractions = 0,1
)";

/** Single-core static cells of every side and organization: each
 *  cell's full-size candidate folds, and so do side=both combined
 *  runs at levels (0, 0). */
const char *const kFoldSingle = R"([scenario]
name = cell-eval-fold
insts = 12000

[workloads]
apps = gcc,swim

[axes]
side = dcache,icache,both
org = ways,sets,hybrid

[engine]
mode = sampled
interval = 4000
detail = 1000
warmup = 1000

[search]
strategy = static
)";

std::string
csvOf(const std::vector<SweepRecord> &records)
{
    std::ostringstream os;
    os << sweepCsvHeader() << '\n';
    writeSweepCsvRows(os, records);
    return os.str();
}

/** A serial PhaseRunner that counts the jobs it runs. */
PhaseRunner
countingRunner(std::size_t &runs)
{
    return [&runs](std::vector<RunJob> &jobs,
                   const std::vector<std::size_t> &cells) {
        EXPECT_EQ(cells.size(), jobs.size());
        runs += jobs.size();
        return SweepRunner::runSerial(jobs);
    };
}

void
expectChunkInvariant(const char *text)
{
    std::string err;
    const auto spec = ScenarioSpec::parseText(text, "cell-eval.scn",
                                              &err);
    ASSERT_TRUE(spec) << err;
    const auto space = ParamSpace::build(*spec, &err);
    ASSERT_TRUE(space) << err;
    const std::vector<AppEntry> apps = resolveApps(*spec, &err);
    ASSERT_FALSE(apps.empty()) << err;
    const CellScope scope{*space, apps};
    std::vector<std::size_t> cells(apps.size() * space->numPoints());
    std::iota(cells.begin(), cells.end(), 0);

    // Every cell in one batch.
    BaselineMemo whole_memo;
    std::size_t whole_runs = 0;
    const std::vector<SweepRecord> whole = evaluateCells(
        scope, cells, whole_memo, countingRunner(whole_runs));
    ASSERT_EQ(whole.size(), cells.size());

    // One cell per batch, the memo carried across batches: the
    // smallest chunks a sweep can form.
    BaselineMemo carried;
    std::size_t single_runs = 0;
    std::vector<SweepRecord> single;
    for (const std::size_t cell : cells) {
        const auto recs = evaluateCells(scope, {cell}, carried,
                                        countingRunner(single_runs));
        ASSERT_EQ(recs.size(), 1u);
        single.push_back(recs[0]);
    }
    EXPECT_EQ(csvOf(single), csvOf(whole));
    // The carried memo ran each baseline once, like the single batch.
    EXPECT_EQ(single_runs, whole_runs);
    EXPECT_EQ(carried.size(), whole_memo.size());

    SweepOptions so;
    so.jobs = 2;
    so.quiet = true;
    so.outPath = testing::TempDir() + "/cell_eval_" + spec->name +
                 ".csv";
    ASSERT_EQ(runScenarioSweep(*space, so), 0);
    std::ifstream in(so.outPath, std::ios::binary);
    std::ostringstream swept;
    swept << in.rdbuf();
    EXPECT_EQ(swept.str(), csvOf(whole));
}

} // namespace

TEST(CellEvalTest, BothSidesMixRecordsIndependentOfChunking)
{
    expectChunkInvariant(kBothMix);
}

TEST(CellEvalTest, DynamicMixRecordsIndependentOfChunking)
{
    expectChunkInvariant(kDynamicMix);
}

TEST(CellEvalTest, FoldedRecordsIndependentOfChunking)
{
    expectChunkInvariant(kFoldSingle);
}

TEST(CellEvalTest, FoldedEqualsSolo)
{
    const EngineSpec engines[] = {EngineSpec{},
                                  EngineSpec::makeSampled(4000, 1000,
                                                          1000),
                                  EngineSpec::makeAnalytic()};
    const BenchmarkProfile gcc = profileByName("gcc");
    std::size_t checked = 0;
    for (const EngineSpec &engine : engines) {
        for (const std::string policy : {"lru", "slru", "wtlfu"}) {
            // The analytic engine prices LRU only.
            if (engine.analytic() && policy != "lru")
                continue;
            SystemConfig cfg = SystemConfig::base();
            cfg.policy = policy;
            Experiment exp(cfg, 12000);
            exp.setEngine(engine);
            const RunResult base = executeRunJob(exp.baselineJob(gcc));
            for (const Organization org :
                 {Organization::SelectiveWays,
                  Organization::SelectiveSets, Organization::Hybrid}) {
                std::vector<RunJob> jobs;
                for (const CacheSide side :
                     {CacheSide::DCache, CacheSide::ICache})
                    for (RunJob &job : exp.searchJobs(
                             gcc, side, org, Strategy::Static))
                        if (baselineEquivalent(job))
                            jobs.push_back(std::move(job));
                jobs.push_back(exp.bothStaticJob(gcc, org, 0, 0));
                // The full-size level of each side, and (0, 0).
                ASSERT_EQ(jobs.size(), 3u);
                for (const RunJob &job : jobs) {
                    ASSERT_TRUE(baselineEquivalent(job)) << job.label;
                    const RunResult folded = foldIntoBaseline(base, job);
                    expectSame(executeRunJob(job), folded,
                               job.label + " " + policy + " " +
                                   engineName(engine.mode));
                    // Selective-sets tags cover the smallest set
                    // count, so its full size costs more energy.
                    if (org != Organization::SelectiveWays)
                        EXPECT_GT(folded.energy.total(),
                                  base.energy.total());
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, 7u * 9u);
}

TEST(CellEvalTest, BothSidesAtFullSizeFoldTheCombinedRun)
{
    std::string err;
    const auto spec = ScenarioSpec::parseText(kFoldSingle, "fold.scn",
                                              &err);
    ASSERT_TRUE(spec) << err;
    const auto space = ParamSpace::build(*spec, &err);
    ASSERT_TRUE(space) << err;
    const std::vector<AppEntry> apps = resolveApps(*spec, &err);
    ASSERT_FALSE(apps.empty()) << err;
    const CellScope scope{*space, apps};
    std::vector<std::size_t> cells(apps.size() * space->numPoints());
    std::iota(cells.begin(), cells.end(), 0);

    // Real runs, with every resized level's energy inflated so that
    // each side profiles best at full size.
    std::vector<std::size_t> phases;
    BaselineMemo memo;
    const std::vector<SweepRecord> records = evaluateCells(
        scope, cells, memo,
        [&phases](std::vector<RunJob> &jobs,
                  const std::vector<std::size_t> &) {
            phases.push_back(jobs.size());
            std::vector<RunResult> out = SweepRunner::runSerial(jobs);
            for (std::size_t k = 0; k < jobs.size(); ++k)
                if (jobs[k].il1.staticLevel + jobs[k].dl1.staticLevel)
                    out[k].energy.core *= 100;
            return out;
        });
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[1], 0u); // every combined run folded

    std::size_t both = 0;
    for (const std::size_t cell : cells) {
        const DesignPoint p = scope.point(cell);
        if (p.side != SweepSide::Both)
            continue;
        ++both;
        Experiment exp(p.cfg, spec->insts);
        exp.setEngine(p.engine);
        const RunResult solo = executeRunJob(exp.bothStaticJob(
            effectiveWorkload(scope.app(cell), p).label, p.org, 0, 0));
        EXPECT_EQ(records[cell].bestLevel, 0u);
        EXPECT_EQ(records[cell].sizeReductionPct, 0);
        EXPECT_EQ(records[cell].bestEdp, solo.edp());
        EXPECT_EQ(records[cell].bestCycles, solo.cycles);
    }
    EXPECT_EQ(both, 6u);
}

TEST(CellEvalTest, OnlyFullSizeSingleCoreJobsFold)
{
    const BenchmarkProfile gcc = profileByName("gcc");
    Experiment exp(SystemConfig::base(), 12000);
    EXPECT_TRUE(baselineEquivalent(exp.baselineJob(gcc)));
    EXPECT_FALSE(baselineEquivalent(exp.bothStaticJob(
        gcc, Organization::SelectiveSets, 0, 1)));
    for (const RunJob &job :
         exp.searchJobs(gcc, CacheSide::DCache,
                        Organization::SelectiveSets, Strategy::Static))
        EXPECT_EQ(baselineEquivalent(job), job.dl1.staticLevel == 0)
            << job.label;
    // A dynamic controller may resize at runtime, whatever it starts
    // at.
    for (const RunJob &job :
         exp.searchJobs(gcc, CacheSide::DCache,
                        Organization::SelectiveSets, Strategy::Dynamic))
        EXPECT_FALSE(baselineEquivalent(job)) << job.label;

    // Multi-core energy is a sum over cores: never folded.
    SystemConfig multi = SystemConfig::base();
    multi.cores = 2;
    Experiment mexp(multi, 12000);
    EXPECT_FALSE(baselineEquivalent(mexp.bothStaticJob(
        gcc, Organization::SelectiveSets, 0, 0)));
}

TEST(CellEvalTest, Fig4SweepRunsNoFullSizeCandidate)
{
#ifdef RCACHE_SCENARIO_SOURCE_DIR
    std::string err;
    const auto spec = ScenarioSpec::parseFile(
        RCACHE_SCENARIO_SOURCE_DIR "/../perfbench/scenarios/fig4_sweep.scn",
        &err);
    ASSERT_TRUE(spec) << err;
    const auto space = ParamSpace::build(*spec, &err);
    ASSERT_TRUE(space) << err;
    const std::vector<AppEntry> apps = resolveApps(*spec, &err);
    ASSERT_FALSE(apps.empty()) << err;
    const CellScope scope{*space, apps};

    // The method's jobs: one baseline per distinct key, then every
    // candidate, of which each cell has one at full size.
    std::set<std::string> bases;
    std::size_t candidates = 0, full_size = 0;
    BaselineMemo memo;
    CellBatch batch(scope, memo);
    for (std::size_t cell = 0; cell < apps.size() * space->numPoints();
         ++cell) {
        const DesignPoint p = scope.point(cell);
        const EffectiveWorkload eff = effectiveWorkload(scope.app(cell), p);
        Experiment exp(p.cfg, spec->insts);
        bases.insert(baselineKey(exp.config(), p.engine, eff.label.name));
        for (const SearchCandidate &cand : exp.searchCandidates(
                 cacheSideOf(p.side), p.org, p.strategy)) {
            ++candidates;
            full_size += cand.setup.staticLevel == 0;
        }
        batch.add(cell);
    }
    EXPECT_EQ(full_size, batch.size());
    EXPECT_EQ(batch.plannedJobs(), bases.size() + candidates);
    EXPECT_EQ(batch.plannedJobs(), 1104u);

    // Stand-in results: this checks what is run, not what it returns.
    std::size_t runs = 0;
    batch.run([&runs](std::vector<RunJob> &jobs,
                      const std::vector<std::size_t> &) {
        runs += jobs.size();
        std::vector<RunResult> out(jobs.size());
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            out[k].insts = jobs[k].insts;
            out[k].cycles = 1;
            out[k].energy.core = 1;
        }
        return out;
    });
    EXPECT_EQ(runs, batch.plannedJobs() - full_size);
    EXPECT_EQ(runs, 912u);
#else
    GTEST_SKIP() << "RCACHE_SCENARIO_SOURCE_DIR not defined";
#endif
}

} // namespace rcache
