/** @file
 * Fidelity of the FunctionalCore against the timing core: N
 * functional instructions must leave the caches and the branch
 * predictor exactly where N detailed instructions leave them, so a
 * sampled run's measured window starts from the state full detail
 * would have reached.
 */

#include <gtest/gtest.h>

#include "cache/replacement.hh"
#include "core/resizable_cache.hh"
#include "cpu/functional_core.hh"
#include "cpu/ooo_core.hh"
#include "workload/profiles.hh"
#include "workload/synthetic.hh"

namespace rcache
{

namespace
{

/** One core's private machine: two L1s under one replacement policy,
 *  an owned L2, and an out-of-order timing core. */
struct Machine
{
    Machine(const std::string &policy, const CacheGeometry &il1g)
        : il1("il1", il1g, Organization::None, policy),
          dl1("dl1", CacheGeometry{}, Organization::None, policy),
          hier(&il1.cache(), &dl1.cache(),
               CacheGeometry{512 * 1024, 4, 32, 8192}, HierarchyParams{}),
          core(CoreParams{}, hier)
    {
    }

    /** Advance @p n instructions of @p wl on a FunctionalCore that
     *  shares this machine's hierarchy and predictor. */
    void
    warm(Workload &wl, std::uint64_t n)
    {
        FunctionalCore func(hier, core.predictor(),
                            CoreParams{}.fetchWidth, nullptr, nullptr);
        func.run(wl, n);
    }

    ResizableCache il1;
    ResizableCache dl1;
    Hierarchy hier;
    OooCore core;
};

void
expectSameCounters(const Cache &functional, const Cache &detailed)
{
    SCOPED_TRACE(functional.name());
    EXPECT_EQ(functional.accesses(), detailed.accesses());
    EXPECT_EQ(functional.misses(), detailed.misses());
    EXPECT_EQ(functional.writebacks(), detailed.writebacks());
}

} // namespace

TEST(FunctionalCoreTest, LeavesTheCountersDetailedExecutionLeaves)
{
    const std::uint64_t n = 400000;
    for (const char *app : {"gcc", "m88ksim"}) {
        SCOPED_TRACE(app);
        Machine functional("lru", CacheGeometry{});
        Machine detailed("lru", CacheGeometry{});
        SyntheticWorkload wf(profileByName(app));
        SyntheticWorkload wd(profileByName(app));

        functional.warm(wf, n);
        detailed.core.run(wd, n);

        expectSameCounters(functional.il1.cache(), detailed.il1.cache());
        expectSameCounters(functional.dl1.cache(), detailed.dl1.cache());
        EXPECT_EQ(functional.hier.l2().accesses(),
                  detailed.hier.l2().accesses());
        EXPECT_EQ(functional.hier.memReads(), detailed.hier.memReads());
        EXPECT_EQ(functional.hier.memWrites(), detailed.hier.memWrites());
        EXPECT_EQ(functional.core.predictor().mispredicts(),
                  detailed.core.predictor().mispredicts());
    }
}

/**
 * A detailed window after N functional instructions must time exactly
 * like the same window after N detailed ones, under every replacement
 * policy. A small i-cache keeps the fetch-group re-reads in play:
 * under SLRU a re-read promotes its block and under W-TinyLFU it
 * counts in the frequency sketch, so skipping them leaves a
 * different i-cache.
 */
TEST(FunctionalCoreTest, DetailedWindowAfterWarmupMatchesEveryPolicy)
{
    const std::uint64_t warm = 60000;
    const std::uint64_t window = 20000;
    const CacheGeometry small_il1{2048, 4, 32, 256};
    for (const std::string &policy : replacementPolicyNames()) {
        for (const char *app : {"gcc", "m88ksim"}) {
            SCOPED_TRACE(policy + "/" + app);
            Machine functional(policy, small_il1);
            Machine detailed(policy, small_il1);
            SyntheticWorkload wf(profileByName(app));
            SyntheticWorkload wd(profileByName(app));

            functional.warm(wf, warm);
            detailed.core.run(wd, warm);

            const std::uint64_t fi = functional.il1.cache().misses();
            const std::uint64_t fd = functional.dl1.cache().misses();
            const std::uint64_t di = detailed.il1.cache().misses();
            const std::uint64_t dd = detailed.dl1.cache().misses();
            functional.core.resetTiming();
            detailed.core.resetTiming();
            const CoreActivity fa = functional.core.run(wf, window);
            const CoreActivity da = detailed.core.run(wd, window);

            EXPECT_EQ(functional.il1.cache().misses() - fi,
                      detailed.il1.cache().misses() - di);
            EXPECT_EQ(functional.dl1.cache().misses() - fd,
                      detailed.dl1.cache().misses() - dd);
            EXPECT_EQ(fa.cycles, da.cycles);
        }
    }
}

} // namespace rcache
