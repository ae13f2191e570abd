/**
 * @file
 * Shared machinery for the instruction-driven CPU timing models.
 *
 * Both cores process the dynamic instruction stream once, computing
 * each instruction's fetch/issue/complete/commit cycles from its
 * producers and from structural resources (widths, ROB/LSQ occupancy,
 * MSHRs, writeback buffer). This reproduces the timing phenomena the
 * paper's strategy comparison rests on — miss-latency exposure and
 * overlap — at a small fraction of the cost of a cycle-driven model.
 *
 * Known simplifications (documented in DESIGN.md): issue bandwidth is
 * enforced at dispatch rather than separately at the scheduler, and
 * wrong-path fetch is not simulated.
 */

#ifndef RCACHE_CPU_CORE_HH
#define RCACHE_CPU_CORE_HH

#include <algorithm>
#include <cstdint>

#include "cache/hierarchy.hh"
#include "cache/mshr.hh"
#include "core/resize_policy.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/fetch_front_end.hh"
#include "energy/energy_model.hh"
#include "telemetry/probe.hh"
#include "workload/workload.hh"

namespace rcache
{

/** Pipeline configuration (Table 2 defaults). */
struct CoreParams
{
    unsigned fetchWidth = 4;
    unsigned dispatchWidth = 4;
    unsigned commitWidth = 4;
    unsigned robSize = 64;
    unsigned lsqSize = 32;
    /** Fetch-to-dispatch depth (mispredict refill penalty source). */
    unsigned frontendDepth = 3;
    unsigned mshrs = 8;
    unsigned wbEntries = 8;
    /** Cycles to drain one writeback into L2. */
    unsigned wbDrainLatency = 12;
    BranchPredictorParams bpred;

    bool operator==(const CoreParams &o) const = default;
};

/**
 * Bandwidth limiter for a pipeline stage: at most @c width events per
 * cycle, requests arriving in (mostly) non-decreasing time order.
 * A request earlier than the allocator's current cycle is served at
 * the current cycle, which is the conservative choice.
 */
class SlotAllocator
{
  public:
    explicit SlotAllocator(unsigned width) : width_(width) {}

    std::uint64_t
    alloc(std::uint64_t t)
    {
        // Branchless: request times hover around the allocator's
        // cycle, so the three-way split is unpredictable and cmovs
        // beat branches here.
        const bool newer = t > cycle_;
        const bool full = used_ >= width_;
        cycle_ = newer ? t : (full ? cycle_ + 1 : cycle_);
        used_ = (newer || full) ? 1 : used_ + 1;
        return cycle_;
    }

    void
    reset()
    {
        cycle_ = 0;
        used_ = 0;
    }

  private:
    unsigned width_;
    std::uint64_t cycle_ = 0;
    unsigned used_ = 0;
};

/**
 * Base class: owns the frontend (fetch through the i-cache with
 * branch prediction) and the d-cache structural resources; subclasses
 * implement the backend discipline.
 */
class Core
{
  public:
    /**
     * @param il1_policy,dl1_policy resizing policies observing the L1
     *        accesses; either may be null (no resizing at runtime:
     *        System hands over only dynamic controllers)
     */
    Core(const CoreParams &params, Hierarchy &hier,
         ResizePolicy *il1_policy, ResizePolicy *dl1_policy);
    virtual ~Core() = default;

    /**
     * Run @p num_insts instructions of @p workload to completion:
     * begin(), the stream drained batch by batch into feed(), then
     * finish().
     */
    CoreActivity run(Workload &workload, std::uint64_t num_insts);

    /** @name Push-driven run
     * A run window is begin(n), any sequence of feed() calls handing
     * over exactly n instructions in stream order, then finish().
     * Timing depends only on the instructions, never on how they are
     * split across feed() calls, so one stream can drive several
     * cores in lockstep windows (runner/sweep_runner.hh).
     */
    /// @{
    /** Open a window of @p num_insts instructions at its cycle 0. */
    void begin(std::uint64_t num_insts);
    /**
     * Time the next @p n instructions of the window. With a probe
     * attached, the span is split at sampleInterval() boundaries
     * (counted from begin()) and probe->onSample runs at each one and
     * at the window's end; the split is timing-invisible
     * (telemetry/probe.hh).
     */
    void feed(const MicroInst *insts, std::size_t n);
    /** Close the window; every instruction must have been fed. */
    CoreActivity finish();
    /// @}

    /**
     * Restart the timing machinery at cycle 0 for a fresh measurement
     * window: fetch engine, bandwidth allocators, MSHRs, writeback
     * buffer. Warm state (the branch predictor, and the caches, which
     * live in the hierarchy) is untouched. System calls this before
     * every measured window; run() may then be called again.
     */
    void resetTiming();

    BranchPredictor &predictor() { return bpred_; }
    const MshrFile &mshrs() const { return mshr_; }
    const WritebackBuffer &writebackBuffer() const { return wb_; }
    const CoreParams &params() const { return params_; }

    /**
     * Attach a telemetry probe (null to detach) before begin(); feed()
     * samples it every sampleInterval() instructions.
     */
    void setProbe(CoreProbe *probe) { probe_ = probe; }

  protected:
    /** Reset the backend's run state for a window begin() opened. */
    virtual void beginRun() = 0;
    /** Time @p n instructions, continuing the open window. */
    virtual void execute(const MicroInst *insts, std::size_t n) = 0;
    /** Cycles the window has taken so far (its final count once
     *  every instruction is fed). */
    virtual std::uint64_t windowCycles() const = 0;

    /**
     * Fetch one instruction: reads the i-cache when the fetch rule
     * (cpu/fetch_front_end.hh) says so, applies fetch bandwidth, and
     * returns the fetch cycle. Inline: runs once per simulated
     * instruction.
     */
    std::uint64_t
    fetchInst(const MicroInst &inst)
    {
        if (fetch_.fetch(inst.pc)) {
            const std::uint64_t t = nextFetchCycle_;
            MemAccessResult res = hier_.instAccess(inst.pc);
            notifyIl1(res.l1Hit, t);
            blockReady_ = t + res.latency - 1;
        }
        const std::uint64_t fc = fetchSlots_.alloc(blockReady_);
        nextFetchCycle_ = std::max(nextFetchCycle_, fc);
        return fc;
    }

    /**
     * Resolve the branch @p inst completing at @p complete_cycle:
     * applies prediction, ends the fetch group, and times the
     * refetch.
     * @return true if mispredicted.
     */
    bool resolveBranch(const MicroInst &inst,
                       std::uint64_t complete_cycle);

    void
    notifyIl1(bool hit, std::uint64_t cycle)
    {
        if (il1Policy_)
            il1Policy_->onAccess(!hit, cycle);
    }

    void
    notifyDl1(bool hit, std::uint64_t cycle)
    {
        if (dl1Policy_)
            dl1Policy_->onAccess(!hit, cycle);
    }


    CoreParams params_;
    Hierarchy &hier_;
    ResizePolicy *il1Policy_;
    ResizePolicy *dl1Policy_;
    CoreProbe *probe_ = nullptr;

    BranchPredictor bpred_;
    MshrFile mshr_;
    WritebackBuffer wb_;

    SlotAllocator fetchSlots_;

    /** Fetch engine: the i-cache read rule plus its timing. */
    FetchFrontEnd fetch_;
    std::uint64_t nextFetchCycle_ = 0;
    std::uint64_t blockReady_ = 0;

    /** Event counts of the open window (cycles set by finish()). */
    CoreActivity activity_;

  private:
    /** Window length, instructions fed so far, and the next probe
     *  sample point (all counted from begin()). */
    std::uint64_t windowInsts_ = 0;
    std::uint64_t fed_ = 0;
    std::uint64_t nextSample_ = 0;
    std::uint64_t sampleStride_ = 0;
};

} // namespace rcache

#endif // RCACHE_CPU_CORE_HH
