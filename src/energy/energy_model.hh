/**
 * @file
 * Processor-wide energy accounting (Wattch-style activity model).
 *
 * Combines the cache energies with per-event core energies and the
 * clock tree to produce the breakdown the paper's metric needs:
 * energy-delay product of the whole processor.
 */

#ifndef RCACHE_ENERGY_ENERGY_MODEL_HH
#define RCACHE_ENERGY_ENERGY_MODEL_HH

#include <cstdint>
#include <ostream>

#include "energy/cache_energy.hh"

namespace rcache
{

/** Activity counts a CPU model accumulates during a run. */
struct CoreActivity
{
    /** Out-of-order cores dissipate in rename/ROB/LSQ; in-order cores
     *  have none of that machinery (the paper's in-order i-cache
     *  energy share is ~4% higher for this reason). */
    bool outOfOrder = true;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t intOps = 0;
    std::uint64_t fpOps = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;

    double ipc() const
    {
        return cycles ? static_cast<double>(insts) / cycles : 0.0;
    }

    /** Add @p o's counts, cycles included; the timing-model flag
     *  follows @p o. */
    CoreActivity &
    operator+=(const CoreActivity &o)
    {
        outOfOrder = o.outOfOrder;
        insts += o.insts;
        cycles += o.cycles;
        intOps += o.intOps;
        fpOps += o.fpOps;
        loads += o.loads;
        stores += o.stores;
        branches += o.branches;
        mispredicts += o.mispredicts;
        return *this;
    }
};

/**
 * What the energy model prices besides the core's activity: both
 * L1s' activity, the L2 and memory traffic, and the L2's size, as
 * totals over the whole run (a sampled run's measured windows scaled
 * up). Kept with a run's result so its energy can be priced again
 * under other L1 tag overheads.
 */
struct EnergyInputs
{
    CacheActivity il1, dl1;
    double l2Accesses = 0;
    std::uint64_t l2SizeBytes = 0;
    double memAccesses = 0;

    bool operator==(const EnergyInputs &o) const = default;
};

/** Per-structure energy totals for one run. */
struct EnergyBreakdown
{
    double icache = 0;
    double dcache = 0;
    double l2 = 0;
    double memory = 0;
    double core = 0;
    double clock = 0;

    double total() const
    {
        return icache + dcache + l2 + memory + core + clock;
    }

    double icacheFraction() const { return icache / total(); }
    double dcacheFraction() const { return dcache / total(); }
};

std::ostream &operator<<(std::ostream &os, const EnergyBreakdown &b);

/** Assembles the full-processor breakdown. */
class ProcessorEnergyModel
{
  public:
    explicit ProcessorEnergyModel(const EnergyParams &params)
        : params_(params), cacheModel_(params)
    {
    }

    /**
     * @param activity core event counts for the run
     * @param il1,dl1 L1 caches (byte-cycle integrals finalized)
     * @param il1_extra_tag_bits,dl1_extra_tag_bits resizing tag bits
     * @param l2 the unified L2
     * @param mem_accesses total memory reads+writes
     */
    EnergyBreakdown compute(const CoreActivity &activity,
                            const Cache &il1,
                            unsigned il1_extra_tag_bits,
                            const Cache &dl1,
                            unsigned dl1_extra_tag_bits,
                            const Cache &l2,
                            std::uint64_t mem_accesses) const;

    /**
     * Price explicit activity totals instead of live Cache counters
     * (priceEnergy in sim/system.hh prices every run's result
     * through this overload).
     */
    EnergyBreakdown compute(const CoreActivity &activity,
                            const EnergyInputs &in,
                            unsigned il1_extra_tag_bits,
                            unsigned dl1_extra_tag_bits) const;

    const EnergyParams &params() const { return params_; }

  private:
    EnergyParams params_;
    CacheEnergyModel cacheModel_;
};

} // namespace rcache

#endif // RCACHE_ENERGY_ENERGY_MODEL_HH
