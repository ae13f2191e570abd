#include "cpu/inorder_core.hh"

namespace rcache
{

InOrderCore::InOrderCore(const CoreParams &params, Hierarchy &hier,
                         ResizePolicy *il1_policy,
                         ResizePolicy *dl1_policy)
    : Core(params, hier, il1_policy, dl1_policy),
      run_{SlotAllocator(params.dispatchWidth)},
      completeRing_(depRing, 0)
{
}

void
InOrderCore::beginRun()
{
    activity_.outOfOrder = false;
    run_ = RunState{SlotAllocator(params_.dispatchWidth)};
    std::fill(completeRing_.begin(), completeRing_.end(), 0);
}

void
InOrderCore::execute(const MicroInst *insts, std::size_t n)
{
    RunState s = run_;
    CoreActivity activity = activity_;
    std::uint64_t *const complete_ring = completeRing_.data();

    for (std::size_t k = 0; k < n; ++k) {
        const MicroInst &inst = insts[k];
        const std::uint64_t i = s.i;
        const std::uint64_t fc = fetchInst(inst);

        // The ring reads are safe for any dep distance (the
        // index wraps), so the unpredictable "has a producer"
        // tests can resolve as conditional moves.
        std::uint64_t ready =
            std::max({fc + params_.frontendDepth, s.lastIssue,
                      s.stallUntil});
        const bool use1 = inst.dep1 && inst.dep1 <= i;
        const std::uint64_t p1 =
            complete_ring[(i - inst.dep1) % depRing];
        ready = std::max(ready, use1 ? p1 : 0);
        const bool use2 = inst.dep2 && inst.dep2 <= i;
        const std::uint64_t p2 =
            complete_ring[(i - inst.dep2) % depRing];
        ready = std::max(ready, use2 ? p2 : 0);

        const std::uint64_t ic = s.issueSlots.alloc(ready);
        s.lastIssue = ic;

        // Execute (the instruction-mix tallies ride along so the
        // op class is dispatched once, not twice).
        ++activity.insts;
        std::uint64_t complete;
        switch (inst.op) {
          case OpClass::Load:
          case OpClass::Store: {
            const bool is_write = inst.op == OpClass::Store;
            if (is_write)
                ++activity.stores;
            else
                ++activity.loads;
            MemAccessResult res =
                hier_.dataAccess(inst.effAddr, is_write);
            notifyDl1(res.l1Hit, ic);
            complete = ic + res.latency;
            if (!res.l1Hit) {
                // Blocking: the whole pipeline waits for the
                // fill.
                s.stallUntil = std::max(s.stallUntil, complete);
            }
            if (res.writeback) {
                const std::uint64_t start = wb_.insert(ic);
                s.stallUntil = std::max(s.stallUntil, start);
            }
            break;
          }
          case OpClass::Branch:
            ++activity.branches;
            ++activity.intOps;
            complete = ic + inst.latency;
            break;
          case OpClass::FpAlu:
            ++activity.fpOps;
            complete = ic + inst.latency;
            break;
          case OpClass::IntAlu:
            ++activity.intOps;
            complete = ic + inst.latency;
            break;
          default:
            complete = ic + inst.latency;
            break;
        }

        if (inst.op == OpClass::Branch) {
            if (resolveBranch(inst, complete)) {
                ++activity.mispredicts;
                s.stallUntil = std::max(s.stallUntil, complete);
            }
        }

        complete_ring[i % depRing] = complete;
        s.lastComplete = std::max(s.lastComplete, complete);
        ++s.i;
    }

    run_ = s;
    activity_ = activity;
}

} // namespace rcache
