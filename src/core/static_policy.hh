/**
 * @file
 * Static resizing: the cache size is fixed before execution.
 *
 * The profiled best size is supplied as a schedule level; the policy
 * applies it at construction (the paper's "operating system loads the
 * size mask prior to the application's execution") and then does
 * nothing at runtime, so System hands it to no core to observe
 * accesses with. Finding the best level is the profiling
 * search's job (CellBatch in scenario/cell_eval.hh, over the job
 * builders in sim/experiment.hh), mirroring the paper's offline
 * profiling.
 */

#ifndef RCACHE_CORE_STATIC_POLICY_HH
#define RCACHE_CORE_STATIC_POLICY_HH

#include "core/resize_policy.hh"

namespace rcache
{

/** Fixed-size policy; see file comment. */
class StaticPolicy : public ResizePolicy
{
  public:
    /**
     * @param level schedule level to run the whole application at
     */
    StaticPolicy(ResizableCache &cache, WritebackSink sink,
                 unsigned level);

    void onAccess(bool miss, std::uint64_t now_cycle) override;
    Strategy strategy() const override { return Strategy::Static; }

    unsigned level() const { return level_; }

  private:
    unsigned level_;
};

} // namespace rcache

#endif // RCACHE_CORE_STATIC_POLICY_HH
