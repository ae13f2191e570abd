#include "cpu/core.hh"

namespace rcache
{

Core::Core(const CoreParams &params, Hierarchy &hier,
           ResizePolicy *il1_policy, ResizePolicy *dl1_policy)
    : params_(params),
      hier_(hier),
      il1Policy_(il1_policy),
      dl1Policy_(dl1_policy),
      bpred_(params.bpred),
      mshr_(params.mshrs),
      wb_(params.wbEntries, params.wbDrainLatency),
      fetchSlots_(params.fetchWidth),
      fetch_(hier.il1().geometry().blockBits(), params.fetchWidth)
{
}

CoreActivity
Core::run(Workload &workload, std::uint64_t num_insts)
{
    begin(num_insts);
    forEachBatch(workload, num_insts,
                 [this](const MicroInst *insts, std::size_t n) {
                     feed(insts, n);
                 });
    return finish();
}

void
Core::begin(std::uint64_t num_insts)
{
    windowInsts_ = num_insts;
    fed_ = 0;
    sampleStride_ =
        probe_ ? std::max<std::uint64_t>(1, probe_->sampleInterval())
               : 0;
    nextSample_ = std::min(sampleStride_, num_insts);
    activity_ = CoreActivity{};
    beginRun();
}

void
Core::feed(const MicroInst *insts, std::size_t n)
{
    rc_assert(n <= windowInsts_ - fed_);
    if (!probe_) {
        execute(insts, n);
        fed_ += n;
        return;
    }
    while (n > 0) {
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, nextSample_ - fed_));
        execute(insts, take);
        insts += take;
        n -= take;
        fed_ += take;
        if (fed_ == nextSample_) {
            probe_->onSample(fed_, windowCycles(), activity_);
            nextSample_ =
                std::min(nextSample_ + sampleStride_, windowInsts_);
        }
    }
}

CoreActivity
Core::finish()
{
    rc_assert(fed_ == windowInsts_);
    activity_.cycles = windowCycles();
    return activity_;
}

void
Core::resetTiming()
{
    mshr_.reset();
    wb_.reset();
    fetchSlots_.reset();
    fetch_.redirect();
    nextFetchCycle_ = 0;
    blockReady_ = 0;
}

bool
Core::resolveBranch(const MicroInst &inst,
                    std::uint64_t complete_cycle)
{
    const bool mispredicted = fetch_.resolveBranch(bpred_, inst);
    if (mispredicted) {
        // Refetch when the branch resolves; the frontend refill
        // penalty comes out of frontendDepth.
        nextFetchCycle_ = std::max(nextFetchCycle_, complete_cycle + 1);
    } else if (inst.taken) {
        // Correctly predicted taken: the target block is fetched from
        // the next cycle.
        ++nextFetchCycle_;
    }
    return mispredicted;
}

} // namespace rcache
