#include "cpu/functional_core.hh"

#include <algorithm>
#include <span>

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
    begin(num_insts);
    forEachBatch(workload, num_insts,
                 [this](const MicroInst *insts, std::size_t n) {
                     feed(insts, n);
                 });
}

void
FunctionalCore::begin(std::uint64_t num_insts)
{
    spanInsts_ = num_insts;
    fed_ = 0;
    sampleStride_ =
        probe_ ? std::max<std::uint64_t>(1, probe_->sampleInterval())
               : num_insts;
    nextSample_ = std::min(sampleStride_, num_insts);
}

void
FunctionalCore::feed(const MicroInst *insts, std::size_t n)
{
    rc_assert(n <= spanInsts_ - fed_);
    // Resize policies receive now_cycle == 0: time does not advance
    // during fast-forward, and Cache::accumulateEnabledTime clamps
    // non-monotonic cycles, so the byte-cycle integral is untouched.
    //
    // Probed spans stop at sample-interval boundaries over the same
    // member state, which is stream-identical to one drain
    // (telemetry/probe.hh); unprobed spans run whole.
    while (n > 0) {
        const std::size_t take =
            probe_ ? static_cast<std::size_t>(
                         std::min<std::uint64_t>(n, nextSample_ - fed_))
                   : n;
        for (const MicroInst &inst : std::span(insts, take)) {
            if (fetch_.fetch(inst.pc)) {
                const MemAccessResult res = hier_.instAccess(inst.pc);
                if (il1Policy_)
                    il1Policy_->onAccess(!res.l1Hit, 0);
            }
            switch (inst.op) {
              case OpClass::Load:
              case OpClass::Store: {
                const MemAccessResult res = hier_.dataAccess(
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
        }
        insts += take;
        n -= take;
        fed_ += take;
        if (probe_ && fed_ == nextSample_) {
            probe_->onWarmupSample(fed_);
            nextSample_ =
                std::min(nextSample_ + sampleStride_, spanInsts_);
        }
    }
}

} // namespace rcache
