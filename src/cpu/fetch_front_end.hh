/**
 * @file
 * FetchFrontEnd: the one rule for when instruction fetch reads the
 * i-cache.
 *
 * Fetch reads the i-cache SRAM once per fetch group: whenever the
 * stream crosses into a new block, and again each time a group's
 * worth of instructions (the fetch width) has been consumed from the
 * same block. A taken or mispredicted branch ends the group, so the
 * next fetch reads again. The timing cores, the FunctionalCore that
 * warms sampled runs, and the analytic engine's stream pass all step
 * this one value type, so their i-cache access counts and replacement
 * state agree event for event. Timing (when the read happens, when a
 * redirect refetches) stays with the timing cores.
 */

#ifndef RCACHE_CPU_FETCH_FRONT_END_HH
#define RCACHE_CPU_FETCH_FRONT_END_HH

#include "cpu/branch_predictor.hh"
#include "workload/inst.hh"

namespace rcache
{

/** See file comment. */
class FetchFrontEnd
{
  public:
    /**
     * @param block_bits log2 of the i-cache block size
     * @param fetch_width instructions per fetch group
     */
    FetchFrontEnd(unsigned block_bits, unsigned fetch_width)
        : blockBits_(block_bits), width_(fetch_width)
    {
    }

    /**
     * Fetch the instruction at @p pc. Inline: runs once per simulated
     * instruction.
     * @return true if this fetch reads the i-cache.
     */
    bool
    fetch(Addr pc)
    {
        const Addr blk = pc >> blockBits_;
        const bool read = blk != block_ || groupRemaining_ == 0;
        if (read) {
            block_ = blk;
            groupRemaining_ = width_;
        }
        --groupRemaining_;
        return read;
    }

    /**
     * Resolve branch @p inst with one update of @p bpred; a
     * mispredicted or taken branch ends the fetch group.
     * @return true if mispredicted.
     */
    bool
    resolveBranch(BranchPredictor &bpred, const MicroInst &inst)
    {
        const bool correct =
            bpred.predictAndUpdate(inst.pc, inst.taken, inst.target);
        if (!correct || inst.taken)
            redirect();
        return !correct;
    }

    /** End the current group: the next fetch reads the i-cache. */
    void
    redirect()
    {
        block_ = ~Addr{0};
        groupRemaining_ = 0;
    }

  private:
    unsigned blockBits_;
    unsigned width_;
    Addr block_ = ~Addr{0};
    /** Instructions left in the current fetch group. */
    unsigned groupRemaining_ = 0;
};

} // namespace rcache

#endif // RCACHE_CPU_FETCH_FRONT_END_HH
