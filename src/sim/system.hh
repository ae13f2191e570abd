/**
 * @file
 * System: one simulated core with its own L1s, resize policies and
 * energy model, run once.
 *
 * A System wires a core model, the two (possibly resizable) L1s, the
 * L2, the resizing policies, and the energy model. It is single-use:
 * construct, run once, read the result. The experiment driver
 * (sim/experiment.hh) constructs one System per design point, which is
 * how the paper's profiling methodology works anyway.
 *
 * It is also the lane a multi-core system is built from
 * (sim/multi_core_system.hh): the shared-L2 constructor makes it one
 * core of N over a SharedL2, and the stepped interface (open(),
 * measure(), period(), result()) lets the caller interleave the lanes'
 * turns. Every engine runs through the same steps: a full-detail run
 * is one measured window, a sampled run a sequence of sampling
 * periods, and result() extrapolates the measured windows the same
 * way for both (full detail is the scale-1 case).
 *
 * The measured window and the warm span also have push forms
 * (beginMeasure() / feedMeasure() / endMeasure(), beginWarm() /
 * feedWarm()) that take the stream's instructions from the caller.
 * drive() is the one place a run's stream is carved into those steps
 * (one measured window for full detail; fast-forward, warm span and
 * measured window per sampling period), written once for any number
 * of Systems at the same stream position: run(), measure(), warm()
 * and period() call it for this System alone, and a lockstep group
 * (runner/sweep_runner.hh) calls it for up to eight Systems fed from
 * one workload. Every System gets the identical result either way.
 */

#ifndef RCACHE_SIM_SYSTEM_HH
#define RCACHE_SIM_SYSTEM_HH

#include <memory>
#include <ostream>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/dynamic_controller.hh"
#include "core/resizable_cache.hh"
#include "core/static_policy.hh"
#include "cpu/core.hh"
#include "energy/energy_model.hh"
#include "sim/engine.hh"
#include "workload/workload.hh"

namespace rcache
{

class FunctionalCore;
struct RunTelemetry;
class TimelineRecorder;

/** Which CPU timing model to use. */
enum class CoreModel
{
    /** 4-wide OoO, non-blocking d-cache (base config, Table 2). */
    OutOfOrder,
    /** 4-wide in-order, blocking d-cache (Sec 4.2 contrast). */
    InOrder,
};

/** Printable core model name. */
std::string coreModelName(CoreModel m);

/** Full system configuration. */
struct SystemConfig
{
    CoreModel coreModel = CoreModel::OutOfOrder;
    CoreParams core;
    CacheGeometry il1{32 * 1024, 2, 32, 1024};
    CacheGeometry dl1{32 * 1024, 2, 32, 1024};
    CacheGeometry l2{512 * 1024, 4, 32, 8192};
    HierarchyParams lat;
    Organization il1Org = Organization::None;
    Organization dl1Org = Organization::None;
    /**
     * L1 replacement policy, by registry name (replacement.hh): both
     * L1s of every core use it; the shared L2 stays LRU. Seeded
     * policies derive their streams from each cache's identity, so a
     * lane's il1 and dl1 (and the same cache on different cores)
     * never replay one another's decisions.
     */
    std::string policy = "lru";
    EnergyParams energy = EnergyParams::defaults018um();

    /** @name Multi-core extension (sim/multi_core_system.hh)
     * cores == 1 (the default) is the classic single-core System,
     * whose behavior these fields never affect. cores > 1 selects the
     * multi-programmed shared-L2 system: N cores with private L1s
     * (each a copy of il1/dl1 above) over one shared L2 of the l2
     * geometry, advanced in a deterministic round-robin interleave of
     * quantumInsts instructions per turn.
     */
    /// @{
    unsigned cores = 1;
    /** Round-robin interleave granularity in instructions
     *  (full-detail runs only: sampled runs interleave whole
     *  sampling periods instead). */
    std::uint64_t quantumInsts = 50000;
    /**
     * Per-core timing models, cycled when shorter than cores (empty:
     * every core uses coreModel above). Lets one system mix in-order
     * and out-of-order cores.
     */
    std::vector<CoreModel> coreModels;
    /// @}

    /** Timing model of core @p i under the cycling rule above. */
    CoreModel modelOfCore(unsigned i) const
    {
        return coreModels.empty() ? coreModel
                                  : coreModels[i % coreModels.size()];
    }

    /** The paper's Table 2 base system. */
    static SystemConfig base() { return {}; }

    bool operator==(const SystemConfig &o) const = default;
};

/** Per-cache resizing strategy selection for one run. */
struct ResizeSetup
{
    Strategy strategy = Strategy::None;
    /** Schedule level for Strategy::Static. */
    unsigned staticLevel = 0;
    /** Controller parameters for Strategy::Dynamic. */
    DynamicParams dyn;

    bool operator==(const ResizeSetup &o) const = default;
};

/** Everything a run produces. */
struct RunResult
{
    std::string workload;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    CoreActivity activity;
    EnergyBreakdown energy;
    /** What @c energy was priced from (priceEnergy). A multi-core
     *  aggregate, whose energy sums its cores', leaves it empty. */
    EnergyInputs energyInputs;

    double avgIl1Bytes = 0;
    double avgDl1Bytes = 0;
    double il1MissRatio = 0;
    double dl1MissRatio = 0;
    double l2MissRatio = 0;
    std::uint64_t il1Resizes = 0;
    std::uint64_t dl1Resizes = 0;
    /** Level at each dynamic interval boundary (empty if static). */
    std::vector<unsigned> il1LevelTrace;
    std::vector<unsigned> dl1LevelTrace;

    /** @name Engine provenance
     * Which engine produced this result (sim/engine.hh). Full-detail
     * runs measure every instruction (measuredInsts == insts).
     * Sampled runs report how much of the stream went through the
     * timing core; cycles/energy are extrapolations. Analytic runs
     * never touch a timing core (measuredInsts == 0): counts are
     * exact for LRU, cycles are a CPI model.
     */
    /// @{
    EngineMode engine = EngineMode::Full;
    std::uint64_t measuredInsts = 0;
    std::uint64_t warmupInsts = 0;
    /// @}

    /** @name L1 event counts
     * Exact for full and analytic runs, extrapolated (rounded once)
     * for sampled runs. These are what the analytic exactness gate
     * compares, and they feed the miss ratios above.
     */
    /// @{
    std::uint64_t il1Accesses = 0;
    std::uint64_t il1Misses = 0;
    std::uint64_t dl1Accesses = 0;
    std::uint64_t dl1Misses = 0;
    /// @}

    /** The paper's metric: processor energy x delay. */
    double edp() const { return energy.total() * cycles; }
    double ipc() const { return activity.ipc(); }
};

/**
 * Price @p res.energy from its activity and energyInputs under
 * @p cfg's energy parameters, each L1 carrying the tag bits its
 * ResizableCache would (resizableTagBits of cfg's organization and
 * policy). The one pricing path of System::result, the analytic
 * engine, and the runs CellBatch folds into a baseline
 * (runner/sweep_runner.hh).
 */
void priceEnergy(RunResult &res, const SystemConfig &cfg);

/** See file comment. */
class System
{
  public:
    /** A single-core system owning its L2 (requires cfg.cores == 1). */
    explicit System(const SystemConfig &cfg);

    /**
     * Core @p core_id of a multi-core system: private L1s seeded by
     * the core id, L2 traffic routed to @p shared_l2 (owned by the
     * caller, must outlive this) and attributed to @p core_id, timing
     * model cfg.modelOfCore(core_id). Over a one-core SharedL2 it
     * returns exactly what the owned-L2 form returns.
     */
    System(const SystemConfig &cfg, SharedL2 &shared_l2,
           unsigned core_id);
    ~System();

    /**
     * Run @p num_insts instructions of @p workload with the given
     * per-cache resizing setups. Single use.
     *
     * @param engine fully detailed by default; a sampled spec
     *        fast-forwards between measured windows (sim/sampling.hh).
     *        The analytic engine never reaches a System — it is
     *        dispatched in executeRunJob (runner/sweep_runner.hh) and
     *        asking for it here is fatal.
     * @param telemetry optional observation request/output bundle
     *        (telemetry/run_telemetry.hh); null = off, zero impact
     */
    RunResult run(Workload &workload, std::uint64_t num_insts,
                  const ResizeSetup &il1_setup = {},
                  const ResizeSetup &dl1_setup = {},
                  const EngineSpec &engine = {},
                  RunTelemetry *telemetry = nullptr);

    /** @name Stepped run
     * The steps run() is made of, for a caller that interleaves
     * several Systems over one shared L2 or feeds several from one
     * stream. open() wires the run; any sequence of measure(), warm()
     * and period() calls (or their push forms below, or drive())
     * then advances it, each taking the next instructions of the
     * stream; result() extrapolates the measured windows to a run of
     * @p insts instructions labelled @p mode by open(). Single use.
     */
    /// @{
    void open(const ResizeSetup &il1_setup, const ResizeSetup &dl1_setup,
              EngineMode mode, RunTelemetry *telemetry);
    /**
     * Time @p n instructions in a fresh measurement window: cycle 0,
     * empty structural pools, byte-cycle integrals re-anchored; warm
     * cache, predictor and controller state carries over.
     */
    void measure(Workload &workload, std::uint64_t n);
    /** Advance caches, predictor and resize controllers over @p n
     *  instructions with no timing (cpu/functional_core.hh). */
    void warm(Workload &workload, std::uint64_t n);
    /**
     * One sampling period of a run with @p remaining instructions
     * left, shaped by @p sampling: fast-forward, warm, then measure.
     * @return the instructions the period consumed.
     */
    std::uint64_t period(Workload &workload,
                         const SamplingConfig &sampling,
                         std::uint64_t remaining);
    RunResult result(const std::string &workload, std::uint64_t insts);
    /// @}

    /** @name Push-driven steps
     * measure() is beginMeasure(n), feedMeasure() calls handing over
     * exactly n instructions in stream order, then endMeasure();
     * warm() is beginWarm(n) and feedWarm() calls the same way. The
     * state and result depend only on the instructions, never on how
     * they are split across feed calls.
     */
    /// @{
    void beginMeasure(std::uint64_t n);
    void feedMeasure(const MicroInst *insts, std::size_t n)
    {
        core_->feed(insts, n);
    }
    void endMeasure();
    void beginWarm(std::uint64_t n);
    void feedWarm(const MicroInst *insts, std::size_t n);
    /// @}

    /** @name Driving a run from one stream
     * @p each(fn) must call fn(System &) once on every System of a
     * group; every System of the group is open() and at the same
     * position of @p workload. The stream
     * is read once, in workloadBatchSize windows each handed to every
     * System, so the group needs one window of memory whatever its
     * size (one batch stays in the L1 data cache while every System
     * reads it; measured faster than 512- and 4096-instruction
     * windows). A caller may time each System's share inside
     * @p each.
     */
    /// @{
    /**
     * Advance the group over @p insts instructions under @p engine
     * (full detail or sampled): one measured window, or the sampling
     * periods in order until @p insts are consumed.
     */
    template <typename Each>
    static void drive(Workload &workload, std::uint64_t insts,
                      const EngineSpec &engine, Each &&each);
    /// @}

    /** Cache, L2 and memory event counts: a snapshot of the live
     *  counters, or a sum of measured windows' deltas. */
    struct Counters
    {
        CacheActivity il1, dl1;
        std::uint64_t l2Accesses = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t memAccesses = 0;
    };

    /** What the measured windows add up to so far, unscaled. */
    struct Measured : Counters
    {
        /** Summed over windows: insts are the measured instructions,
         *  cycles the sum of the windows' cycles. */
        CoreActivity activity;
        /** FunctionalCore instructions (not measured). */
        std::uint64_t warmupInsts = 0;
    };
    const Measured &measured() const { return measured_; }

    ResizableCache &il1() { return il1_; }
    ResizableCache &dl1() { return dl1_; }
    Hierarchy &hierarchy() { return hier_; }
    const SystemConfig &config() const { return cfg_; }

    /** Dump all cache stat groups (il1, dl1, l2) as text. */
    void dumpStats(std::ostream &os) const;

  private:
    Counters counters() const;

    std::unique_ptr<ResizePolicy> makePolicy(ResizableCache &cache,
                                             const ResizeSetup &setup);
    /** @p policy if it reacts to accesses at runtime (the dynamic
     *  controller), else null: what the cores observe with. */
    static ResizePolicy *
    reacting(const std::unique_ptr<ResizePolicy> &policy);

    /** The Each of a group of one: this System. */
    auto self()
    {
        return [this](auto &&fn) { fn(*this); };
    }
    /** @name The group steps measure(), warm() and period() wrap */
    /// @{
    template <typename Each>
    static void driveMeasure(Workload &workload, std::uint64_t n,
                             Each &&each);
    template <typename Each>
    static void driveWarm(Workload &workload, std::uint64_t n,
                          Each &&each);
    template <typename Each>
    static std::uint64_t drivePeriod(Workload &workload,
                                     const SamplingConfig &sampling,
                                     std::uint64_t remaining,
                                     Each &&each);
    /// @}

    SystemConfig cfg_;
    CoreModel model_;
    ResizableCache il1_;
    ResizableCache dl1_;
    Hierarchy hier_;
    bool ran_ = false;

    /** Per-run wiring, built by open(). */
    EngineMode mode_ = EngineMode::Full;
    std::unique_ptr<ResizePolicy> il1Policy_;
    std::unique_ptr<ResizePolicy> dl1Policy_;
    std::unique_ptr<Core> core_;
    /** Built by the first beginWarm(). */
    std::unique_ptr<FunctionalCore> func_;
    std::unique_ptr<TimelineRecorder> recorder_;
    RunTelemetry *telemetry_ = nullptr;

    Counters windowStart_;
    Measured measured_;
};

template <typename Each>
void
System::driveWarm(Workload &workload, std::uint64_t n, Each &&each)
{
    each([&](System &sys) { sys.beginWarm(n); });
    forEachBatch(workload, n,
                 [&](const MicroInst *insts, std::size_t fill) {
                     each([&](System &sys) { sys.feedWarm(insts, fill); });
                 });
}

template <typename Each>
void
System::driveMeasure(Workload &workload, std::uint64_t n, Each &&each)
{
    each([&](System &sys) { sys.beginMeasure(n); });
    forEachBatch(workload, n,
                 [&](const MicroInst *insts, std::size_t fill) {
                     each([&](System &sys) {
                         sys.feedMeasure(insts, fill);
                     });
                 });
    each([](System &sys) { sys.endMeasure(); });
}

template <typename Each>
std::uint64_t
System::drivePeriod(Workload &workload, const SamplingConfig &sampling,
                    std::uint64_t remaining, Each &&each)
{
    const SamplingConfig::PeriodShape shape =
        sampling.periodShape(remaining);
    // Fast-forward: workload position only; nothing simulated.
    if (shape.fastForward)
        workload.skip(shape.fastForward);
    // Warmup: rebuild the cache/predictor/controller state that went
    // stale across the skip.
    if (shape.warmup)
        driveWarm(workload, shape.warmup, each);
    driveMeasure(workload, shape.detailed, each);
    return shape.fastForward + shape.warmup + shape.detailed;
}

template <typename Each>
void
System::drive(Workload &workload, std::uint64_t insts,
              const EngineSpec &engine, Each &&each)
{
    rc_assert(!engine.analytic());
    if (engine.sampled()) {
        for (std::uint64_t left = insts; left > 0;)
            left -= drivePeriod(workload, engine.sampling, left, each);
        return;
    }
    driveMeasure(workload, insts, each);
}

} // namespace rcache

#endif // RCACHE_SIM_SYSTEM_HH
