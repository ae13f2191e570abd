#include "cpu/ooo_core.hh"

namespace rcache
{

OooCore::OooCore(const CoreParams &params, Hierarchy &hier,
                 ResizePolicy *il1_policy, ResizePolicy *dl1_policy)
    : Core(params, hier, il1_policy, dl1_policy),
      run_{SlotAllocator(params.dispatchWidth),
           SlotAllocator(params.commitWidth)},
      completeRing_(depRing, 0),
      commitRing_(params.robSize, 0),
      lsqRing_(params.lsqSize, 0)
{
}

void
OooCore::beginRun()
{
    run_ = RunState{SlotAllocator(params_.dispatchWidth),
                    SlotAllocator(params_.commitWidth)};
    std::fill(completeRing_.begin(), completeRing_.end(), 0);
    std::fill(commitRing_.begin(), commitRing_.end(), 0);
    std::fill(lsqRing_.begin(), lsqRing_.end(), 0);
}

void
OooCore::execute(const MicroInst *insts, std::size_t n)
{
    RunState s = run_;
    CoreActivity activity = activity_;
    std::uint64_t *const complete_ring = completeRing_.data();
    std::uint64_t *const commit_ring = commitRing_.data();
    std::uint64_t *const lsq_ring = lsqRing_.data();
    const unsigned dblock_bits = hier_.dl1().geometry().blockBits();

    for (std::size_t k = 0; k < n; ++k) {
        const MicroInst &inst = insts[k];
        const std::uint64_t i = s.i;
        const std::uint64_t fc = fetchInst(inst);

        // Dispatch: frontend depth, bandwidth, ROB and LSQ
        // occupancy.
        std::uint64_t dmin = fc + params_.frontendDepth;
        if (i >= params_.robSize) {
            dmin = std::max(dmin, commit_ring[s.robIdx] + 1);
        }
        const bool is_mem =
            inst.op == OpClass::Load || inst.op == OpClass::Store;
        if (is_mem && s.memCount >= params_.lsqSize) {
            dmin = std::max(dmin, lsq_ring[s.lsqIdx] + 1);
        }
        const std::uint64_t dc = s.dispatchSlots.alloc(dmin);

        // Ready when producers complete. The ring reads are safe
        // for any dep distance (the index wraps), so the
        // unpredictable "has a producer" tests can resolve as
        // conditional moves instead of branches.
        std::uint64_t ready = dc;
        const bool use1 = inst.dep1 && inst.dep1 <= i;
        const std::uint64_t p1 =
            complete_ring[(i - inst.dep1) % depRing];
        ready = std::max(ready, use1 ? p1 : 0);
        const bool use2 = inst.dep2 && inst.dep2 <= i;
        const std::uint64_t p2 =
            complete_ring[(i - inst.dep2) % depRing];
        ready = std::max(ready, use2 ? p2 : 0);

        // Execute (the instruction-mix tallies ride along so the
        // op class is dispatched once, not twice).
        ++activity.insts;
        std::uint64_t complete;
        switch (inst.op) {
          case OpClass::Load: {
            ++activity.loads;
            MemAccessResult res =
                hier_.dataAccess(inst.effAddr, false);
            notifyDl1(res.l1Hit, ready);
            if (res.l1Hit) {
                complete = ready + res.latency;
            } else {
                // Non-blocking: the fill occupies an MSHR;
                // secondary misses merge; a full MSHR file
                // delays the fill.
                complete = mshr_.miss(inst.effAddr >> dblock_bits,
                                      ready, res.latency);
            }
            if (res.writeback)
                complete =
                    std::max(complete, wb_.insert(ready) + 1);
            break;
          }
          case OpClass::Store:
            // Address generation only; the cache is written at
            // commit.
            ++activity.stores;
            complete = ready + 1;
            break;
          case OpClass::Branch:
            ++activity.branches;
            ++activity.intOps;
            complete = ready + inst.latency;
            break;
          case OpClass::FpAlu:
            ++activity.fpOps;
            complete = ready + inst.latency;
            break;
          case OpClass::IntAlu:
            ++activity.intOps;
            complete = ready + inst.latency;
            break;
          default:
            complete = ready + inst.latency;
            break;
        }

        // Commit in order.
        const std::uint64_t cc = s.commitSlots.alloc(
            std::max({complete + 1, s.lastCommit, s.commitFloor}));
        s.lastCommit = cc;

        if (inst.op == OpClass::Store) {
            MemAccessResult res =
                hier_.dataAccess(inst.effAddr, true);
            notifyDl1(res.l1Hit, cc);
            if (!res.l1Hit) {
                // The fill occupies an MSHR but does not hold
                // commit.
                mshr_.miss(inst.effAddr >> dblock_bits, cc,
                           res.latency);
            }
            if (res.writeback) {
                const std::uint64_t start = wb_.insert(cc);
                s.commitFloor = std::max(s.commitFloor, start);
            }
        }

        if (inst.op == OpClass::Branch) {
            if (resolveBranch(inst, complete))
                ++activity.mispredicts;
        }

        complete_ring[i % depRing] = complete;
        commit_ring[s.robIdx] = cc;
        if (++s.robIdx == params_.robSize)
            s.robIdx = 0;
        if (is_mem) {
            lsq_ring[s.lsqIdx] = cc;
            if (++s.lsqIdx == params_.lsqSize)
                s.lsqIdx = 0;
            ++s.memCount;
        }
        ++s.i;
    }

    run_ = s;
    activity_ = activity;
}

} // namespace rcache
