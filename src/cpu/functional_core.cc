#include "cpu/functional_core.hh"

#include <algorithm>

namespace rcache
{

FunctionalCore::FunctionalCore(Hierarchy &hier, BranchPredictor &bpred,
                               unsigned fetch_width,
                               ResizePolicy *il1_policy,
                               ResizePolicy *dl1_policy)
    : hier_(hier),
      bpred_(bpred),
      il1Policy_(il1_policy),
      dl1Policy_(dl1_policy),
      fetch_(hier.il1().geometry().blockBits(), fetch_width)
{
    rc_assert(fetch_width > 0);
}

void
FunctionalCore::run(Workload &workload, std::uint64_t num_insts)
{
    // Resize policies receive now_cycle == 0: time does not advance
    // during fast-forward, and Cache::accumulateEnabledTime clamps
    // non-monotonic cycles, so the byte-cycle integral is untouched.

    // Batched drain, same as the timing cores: one virtual dispatch
    // per workloadBatchSize instructions.
    const auto body = [&](const MicroInst &inst) {
        if (fetch_.fetch(inst.pc)) {
            const MemAccessResult res = hier_.instAccess(inst.pc);
            if (il1Policy_)
                il1Policy_->onAccess(!res.l1Hit, 0);
        }

        switch (inst.op) {
          case OpClass::Load:
          case OpClass::Store: {
            MemAccessResult res = hier_.dataAccess(
                inst.effAddr, inst.op == OpClass::Store);
            if (dl1Policy_)
                dl1Policy_->onAccess(!res.l1Hit, 0);
            break;
          }
          case OpClass::Branch:
            fetch_.resolveBranch(bpred_, inst);
            break;
          default:
            break;
        }
    };

    // Probed runs drain in sample-interval chunks over the same member
    // state — stream-identical to one drain (telemetry/probe.hh).
    const std::uint64_t stride =
        probe_ ? std::max<std::uint64_t>(1, probe_->sampleInterval())
               : num_insts;
    for (std::uint64_t done = 0; done < num_insts;) {
        const std::uint64_t chunk = std::min(num_insts - done, stride);
        forEachBatched(workload, chunk, body);
        done += chunk;
        if (probe_)
            probe_->onWarmupSample(done);
    }
}

} // namespace rcache
