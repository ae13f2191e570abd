/**
 * @file
 * CoreProbe: the hook the timing/functional cores sample telemetry
 * through.
 *
 * A probe is attached to a core with setProbe(); the core's feed()
 * then splits the instructions it is handed at probe-interval
 * boundaries (counted from the window's begin()) and calls onSample()
 * at each one. The split is invisible to the simulation: the timing
 * state lives in the core's run state, which persists across feed()
 * calls, so a probed run retires the identical instruction stream
 * with identical timing, cycle for cycle, however the stream reaches
 * feed() (a workload drained in batches, or a lockstep window shared
 * with other Systems). With no probe attached feed() times each span
 * in one piece; the only cost of the feature when disabled is one
 * branch per feed() call.
 */

#ifndef RCACHE_TELEMETRY_PROBE_HH
#define RCACHE_TELEMETRY_PROBE_HH

#include <cstdint>

#include "energy/energy_model.hh"

namespace rcache
{

/** See file comment. */
class CoreProbe
{
  public:
    virtual ~CoreProbe() = default;

    /** Instructions between samples (> 0). */
    virtual std::uint64_t sampleInterval() const = 0;

    /**
     * One timing-core sample. All values are relative to the current
     * run() window (multi-core quanta and sampled detailed windows
     * each open a fresh window at cycle 0); the probe detects window
     * turnover by @p window_insts not increasing.
     *
     * @param window_insts instructions retired in this window so far
     * @param window_cycle current cycle within this window
     * @param window_activity event counts of this window so far
     *        (the cycles field is not yet final; use @p window_cycle)
     */
    virtual void onSample(std::uint64_t window_insts,
                          std::uint64_t window_cycle,
                          const CoreActivity &window_activity) = 0;

    /**
     * One FunctionalCore (warmup) sample: state advanced with no
     * timing. @p window_insts counts this warmup window's
     * instructions.
     */
    virtual void onWarmupSample(std::uint64_t window_insts) = 0;
};

} // namespace rcache

#endif // RCACHE_TELEMETRY_PROBE_HH
