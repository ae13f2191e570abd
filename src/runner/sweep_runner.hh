/**
 * @file
 * SweepRunner: parallel execution of independent simulation jobs.
 *
 * The paper's methodology is offline profiling — every (app,
 * organization, strategy, level/param) design point is one complete,
 * self-contained simulated run. A RunJob captures one such point as
 * pure data; executeRunJob() constructs a private workload and System
 * for it, so the result of a job depends only on the job spec.
 *
 * Many jobs of a sweep simulate the same instruction stream on
 * different machines. SweepRunner therefore runs single-core jobs
 * that share a stream and an engine (equal profile, insts and
 * EngineSpec; full detail or sampled) as lockstep groups: one
 * workload, one private System per job, the stream read once in
 * fixed windows and each window fed to every System (System::drive).
 * A sampled group skips the stream once per period and feeds every
 * System the same warm span and measured window, which is exact
 * because a period's shape depends only on the stream position. The
 * Systems share nothing but the read-only window, so each result is
 * exactly its solo run's. Analytic and multi-core jobs are groups of
 * one. SweepRunner fans the groups across a work-stealing thread pool
 * and writes each result into the slot of the job that produced it,
 * so the returned vector is in submission order and bit-identical to
 * a serial execution regardless of thread count, grouping or
 * completion order. forEach() lends the same workers to independent
 * tasks that are not runs, such as AnalyticBatch's passes.
 */

#ifndef RCACHE_RUNNER_SWEEP_RUNNER_HH
#define RCACHE_RUNNER_SWEEP_RUNNER_HH

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runner/thread_pool.hh"
#include "sim/system.hh"
#include "workload/synthetic.hh"

namespace rcache
{

class TraceEventRecorder;

/** One self-contained design point: everything a run needs. */
struct RunJob
{
    /** Stable label for progress display and reports. */
    std::string label;
    BenchmarkProfile profile;
    SystemConfig cfg;
    /** Instructions per core (every core runs this many). */
    std::uint64_t insts = 0;
    ResizeSetup il1;
    ResizeSetup dl1;
    /** Engine selection; full detail by default (sim/engine.hh). */
    EngineSpec engine;
    /**
     * Multi-core workload mix, cycled across cfg.cores cores; empty
     * runs `profile` on every core. Ignored when cfg.cores == 1 (the
     * single-core path depends only on `profile`).
     */
    std::vector<BenchmarkProfile> mixProfiles;

    /**
     * Telemetry request/output for this job, or null (off). The bundle
     * must outlive the job's execution; it is written only by the one
     * worker running the job, so per-job bundles need no locking.
     */
    RunTelemetry *telemetry = nullptr;
    /** Design-point coordinates for runner trace spans ("k=v ..."). */
    std::string tracePoint;
};

/**
 * Run @p job on a fresh System (cfg.cores == 1, the exact single-core
 * semantics), MultiCoreSystem (cfg.cores > 1, returning the aggregate
 * result), or — for job.engine == analytic — a fresh single-job
 * AnalyticPass (src/analytic/analytic_engine.hh; sweeps share one
 * pass across jobs instead of coming through here). Pure function of
 * the job spec every way.
 */
RunResult executeRunJob(const RunJob &job);

/** Can @p job run in a lockstep group (full detail or sampled, one
 *  core)? */
bool lockstepEligible(const RunJob &job);

/**
 * Does @p job simulate the same machine as its non-resizable
 * baseline (the job with both organizations None and no resizing)?
 * True for a single-core job whose L1 setups are each None or Static
 * at level 0, the full size: a level-0 static policy never resizes,
 * and a full-size cache of any organization indexes, replaces and
 * counts exactly like the conventional one. Only the extra tag bits
 * its energy is priced with differ. Multi-core jobs never qualify:
 * their energy is a sum over cores.
 */
bool baselineEquivalent(const RunJob &job);

/**
 * The result executeRunJob(@p job) returns, for a baselineEquivalent
 * @p job, from @p baseline, its baseline's result: the same run,
 * energy priced again with @p job's tag bits (priceEnergy). Bit for
 * bit equal under every engine. An unrun baseline (insts == 0)
 * yields an unrun result.
 */
RunResult foldIntoBaseline(const RunResult &baseline, const RunJob &job);

/**
 * The groups SweepRunner::run executes @p jobs in at @p parallelism
 * workers: lockstep-eligible jobs with an equal stream and engine
 * (profile, insts and EngineSpec, so sampled jobs group only with
 * the same period shape and never with full-detail ones) are split,
 * in job order, into groups of
 * K = min(8, ceil(stream jobs / parallelism)); every other job is a
 * group of one. Each group lists job indices in ascending order, and
 * groups are ordered by their first job.
 */
std::vector<std::vector<std::size_t>>
planLockstepGroups(const std::vector<RunJob> &jobs,
                   unsigned parallelism);

/**
 * Run the jobs of @p jobs named by @p group — lockstep-eligible, all
 * on one stream under one engine — from one workload, each on its
 * own System, and return their results in group order (each equal
 * to executeRunJob's). Memory is one System per job plus one stream
 * window, whatever the run length.
 *
 * @param busy_seconds if non-null, receives each System's host
 *        seconds (setup, feeding and finishing), in group order
 */
std::vector<RunResult>
executeLockstep(const std::vector<RunJob> &jobs,
                const std::vector<std::size_t> &group,
                std::vector<double> *busy_seconds = nullptr);

/** See file comment. */
class SweepRunner
{
  public:
    /**
     * Called after each job finishes (serialized; any thread).
     * @param done jobs completed so far  @param total batch size
     */
    using ProgressFn = std::function<void(
        std::size_t done, std::size_t total, const RunJob &job)>;

    /**
     * @param num_jobs worker threads; <=1 runs batches inline on the
     *                 calling thread, 0 selects hardware concurrency
     */
    explicit SweepRunner(unsigned num_jobs = 1);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** Worker threads this runner executes with (>= 1). */
    unsigned parallelism() const { return parallelism_; }

    void setProgress(ProgressFn fn) { progress_ = std::move(fn); }

    /**
     * Attach a Chrome trace-event recorder: every executed job gets
     * one complete span named by its label, tagged with its
     * tracePoint, its group's id and size ("group", "group_size"),
     * and recorded on the worker thread that ran it. A group's spans
     * tile the group's wall window back to back, each sized by its
     * System's share of the measured work, so spans on one worker
     * never overlap and sum to its busy time. Null detaches. The
     * recorder must outlive every run() call that sees it.
     */
    void setTrace(TraceEventRecorder *trace) { trace_ = trace; }

    /**
     * Ask a run() in flight (on another thread) to stop early. Jobs
     * not yet started are skipped and keep default-constructed
     * results (insts == 0 marks them unrun); running jobs complete.
     */
    void requestCancel() { cancelled_.store(true); }
    bool cancelRequested() const { return cancelled_.load(); }
    /** Re-arm after a cancelled batch. */
    void resetCancel() { cancelled_.store(false); }

    /**
     * Execute every job and return results in job order. Determinism
     * guarantee: equal input batches yield bit-identical result
     * vectors for any parallelism. Blocks until the batch is done;
     * must not be called from inside this runner's own pool (a job
     * waiting on its own pool's idle state cannot drain).
     */
    std::vector<RunResult> run(const std::vector<RunJob> &jobs) const;

    /**
     * Call fn(0) .. fn(n - 1), each once, on this runner's workers,
     * and return when all have. Serial, in index order, on the
     * calling thread at parallelism 1. The calls may run in any
     * order and concurrently, so each must touch state of its own;
     * like run(), not callable from inside this runner's pool.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn) const;

    /** The serial reference path (what run() must reproduce). */
    static std::vector<RunResult>
    runSerial(const std::vector<RunJob> &jobs);

  private:
    void reportProgress(std::size_t done, std::size_t total,
                        const RunJob &job) const;
    /** Run one planned group into its jobs' result slots, recording
     *  its spans when tracing. */
    void executeGroup(const std::vector<RunJob> &jobs,
                      const std::vector<std::size_t> &group,
                      std::uint64_t group_id,
                      std::vector<RunResult> &results) const;

    unsigned parallelism_;
    TraceEventRecorder *trace_ = nullptr;
    /** Next trace group id (unique across run() calls). */
    mutable std::atomic<std::uint64_t> nextGroupId_{0};
    /** Built in the constructor when parallelism_ > 1. */
    std::unique_ptr<ThreadPool> pool_;
    mutable std::mutex progressMtx_;
    ProgressFn progress_;
    std::atomic<bool> cancelled_{false};
};

} // namespace rcache

#endif // RCACHE_RUNNER_SWEEP_RUNNER_HH
