/**
 * @file
 * FunctionalCore: advance machine *state* without timing.
 *
 * The sampling engine (sim/sampling.hh) skips between detailed
 * measurement windows and re-warms state before each one
 * (System::warm). For warming only state that outlives a window
 * matters: cache tags, replacement state and dirty bits (via the
 * hierarchy), branch-predictor tables, and the resize controllers'
 * interval/miss counters. This core drives exactly those and computes
 * no cycles, which is what makes it several times cheaper per
 * instruction than the timing cores.
 *
 * Fidelity contract: after N functional instructions the caches
 * (tags, replacement state, dirty bits, and the access, miss and
 * writeback counters), the branch predictor, and the resize
 * policies' access/miss counts equal what N detailed instructions
 * would leave. Fetch follows the timing cores' rule
 * (cpu/fetch_front_end.hh) and really reads the i-cache on every
 * group re-read, since a re-read changes replacement state under
 * policies such as SLRU (promotion) and W-TinyLFU (frequency
 * sketch). Only cycles, and what is priced from them, are missing.
 */

#ifndef RCACHE_CPU_FUNCTIONAL_CORE_HH
#define RCACHE_CPU_FUNCTIONAL_CORE_HH

#include "cache/hierarchy.hh"
#include "core/resize_policy.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/fetch_front_end.hh"
#include "telemetry/probe.hh"
#include "workload/workload.hh"

namespace rcache
{

/** See file comment. */
class FunctionalCore
{
  public:
    /**
     * @param bpred the *shared* predictor also used by the timing
     *        core, so its tables stay warm across mode switches
     * @param fetch_width group size for the i-cache access cadence
     * @param il1_policy,dl1_policy resizing policies observing the L1
     *        accesses; either may be null (no resizing at runtime)
     */
    FunctionalCore(Hierarchy &hier, BranchPredictor &bpred,
                   unsigned fetch_width, ResizePolicy *il1_policy,
                   ResizePolicy *dl1_policy);

    /** Advance @p num_insts instructions of @p workload: begin(),
     *  then the stream drained batch by batch into feed(). */
    void run(Workload &workload, std::uint64_t num_insts);

    /** @name Push-driven span
     * A warm span is begin(n), then feed() calls handing over exactly
     * n instructions in stream order. The state left behind depends
     * only on the instructions, never on how they are split across
     * feed() calls, so one stream can warm several Systems in
     * lockstep windows (runner/sweep_runner.hh).
     */
    /// @{
    /** Open a span of @p num_insts instructions. */
    void begin(std::uint64_t num_insts);
    /**
     * Advance the next @p n instructions of the span. With a probe
     * attached, the span is split at sampleInterval() boundaries
     * (counted from begin()) and probe->onWarmupSample runs at each
     * one and at the span's end, as Core::feed samples onSample.
     */
    void feed(const MicroInst *insts, std::size_t n);
    /// @}

    /**
     * Forget the current fetch block so the next instruction re-probes
     * the i-cache. Call when a detailed window ran in between (its
     * fetch engine moved the stream).
     */
    void invalidateFetchBlock() { fetch_.redirect(); }

    /** Attach a telemetry probe (null to detach) before begin();
     *  feed() samples it every sampleInterval() instructions. */
    void setProbe(CoreProbe *probe) { probe_ = probe; }

  private:
    Hierarchy &hier_;
    BranchPredictor &bpred_;
    ResizePolicy *il1Policy_;
    ResizePolicy *dl1Policy_;
    FetchFrontEnd fetch_;
    CoreProbe *probe_ = nullptr;

    /** Span length, instructions fed so far, and the next probe
     *  sample point (all counted from begin()). */
    std::uint64_t spanInsts_ = 0;
    std::uint64_t fed_ = 0;
    std::uint64_t nextSample_ = 0;
    std::uint64_t sampleStride_ = 0;
};

} // namespace rcache

#endif // RCACHE_CPU_FUNCTIONAL_CORE_HH
