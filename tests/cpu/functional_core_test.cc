/** @file
 * Fidelity of the FunctionalCore against the timing core: N
 * functional instructions must leave the caches and the branch
 * predictor exactly where N detailed instructions leave them, so a
 * sampled run's measured window starts from the state full detail
 * would have reached. Its push form must leave the same state
 * however the span is split, which is what lets one stream warm a
 * lockstep group.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cache/replacement.hh"
#include "core/dynamic_controller.hh"
#include "core/resizable_cache.hh"
#include "cpu/functional_core.hh"
#include "cpu/ooo_core.hh"
#include "workload/profiles.hh"
#include "util/random.hh"
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

/** Logs every warmup sample with the caches' access counts at that
 *  moment, so both the call points and the state they saw compare. */
class SampleLog final : public CoreProbe
{
  public:
    SampleLog(const Cache &il1, const Cache &dl1) : il1_(il1), dl1_(dl1)
    {
    }

    std::uint64_t sampleInterval() const override { return 777; }
    void
    onSample(std::uint64_t, std::uint64_t, const CoreActivity &) override
    {
        ADD_FAILURE() << "timing sample from a FunctionalCore";
    }
    void
    onWarmupSample(std::uint64_t window_insts) override
    {
        calls.push_back({window_insts, il1_.accesses(), dl1_.accesses()});
    }

    std::vector<std::vector<std::uint64_t>> calls;

  private:
    const Cache &il1_;
    const Cache &dl1_;
};

/** Resizable L1s under W-TinyLFU, each with a dynamic controller on
 *  a short interval, warmed by a FunctionalCore. */
struct WarmMachine
{
    explicit WarmMachine(bool probed)
        : il1("il1", CacheGeometry{}, Organization::SelectiveSets,
              "wtlfu"),
          dl1("dl1", CacheGeometry{}, Organization::SelectiveSets,
              "wtlfu"),
          hier(&il1.cache(), &dl1.cache(),
               CacheGeometry{512 * 1024, 4, 32, 8192}, HierarchyParams{}),
          bpred(BranchPredictorParams{}),
          il1Ctl(il1, hier.l1WritebackSink(), params()),
          dl1Ctl(dl1, hier.l1WritebackSink(), params()),
          log(il1.cache(), dl1.cache()),
          func(hier, bpred, CoreParams{}.fetchWidth, &il1Ctl, &dl1Ctl)
    {
        if (probed)
            func.setProbe(&log);
    }

    static DynamicParams
    params()
    {
        DynamicParams p;
        p.intervalAccesses = 512;
        p.missBound = 16;
        return p;
    }

    ResizableCache il1;
    ResizableCache dl1;
    Hierarchy hier;
    BranchPredictor bpred;
    DynamicMissRatioController il1Ctl;
    DynamicMissRatioController dl1Ctl;
    SampleLog log;
    FunctionalCore func;
};

void
expectSameControllers(const DynamicMissRatioController &split,
                      const DynamicMissRatioController &whole)
{
    EXPECT_EQ(split.intervals(), whole.intervals());
    EXPECT_EQ(split.upsizes(), whole.upsizes());
    EXPECT_EQ(split.downsizes(), whole.downsizes());
    EXPECT_EQ(split.levelTrace(), whole.levelTrace());
}

} // namespace

/**
 * begin(n) fed in random chunks (single instructions, short runs,
 * and spans crossing several 777-instruction probe boundaries) must
 * leave caches, predictor and controllers exactly where run() leaves
 * them, and sample the probe at the same points over the same state.
 */
TEST(FunctionalCoreTest, FeedInAnySplitEqualsRun)
{
    const std::uint64_t n = 40000;
    Rng rng(16);
    for (const char *app : {"gcc", "swim"}) {
        for (const bool probed : {false, true}) {
            SCOPED_TRACE(std::string(app) + (probed ? "/probed" : ""));
            WarmMachine whole(probed);
            WarmMachine split(probed);
            SyntheticWorkload ww(profileByName(app));
            SyntheticWorkload ws(profileByName(app));

            whole.func.run(ww, n);

            std::vector<MicroInst> insts(n);
            ws.nextBatch(insts.data(), n);
            split.func.begin(n);
            std::uint64_t singles = 0;
            for (std::uint64_t done = 0; done < n;) {
                std::uint64_t chunk = 1;
                switch (rng.nextBelow(3)) {
                  case 0:
                    ++singles;
                    break;
                  case 1:
                    chunk = 1 + rng.nextBelow(64);
                    break;
                  default:
                    chunk = 1 + rng.nextBelow(3 * 777);
                    break;
                }
                chunk = std::min(chunk, n - done);
                split.func.feed(insts.data() + done, chunk);
                done += chunk;
            }
            EXPECT_GT(singles, 0u);

            for (const auto &[s, w] :
                 {std::pair{&split.il1, &whole.il1},
                  std::pair{&split.dl1, &whole.dl1}}) {
                expectSameCounters(s->cache(), w->cache());
                EXPECT_EQ(s->cache().resizes(), w->cache().resizes());
            }
            EXPECT_EQ(split.hier.l2().accesses(),
                      whole.hier.l2().accesses());
            EXPECT_EQ(split.hier.memReads(), whole.hier.memReads());
            EXPECT_EQ(split.hier.memWrites(), whole.hier.memWrites());
            EXPECT_EQ(split.bpred.lookups(), whole.bpred.lookups());
            EXPECT_EQ(split.bpred.mispredicts(), whole.bpred.mispredicts());
            expectSameControllers(split.il1Ctl, whole.il1Ctl);
            expectSameControllers(split.dl1Ctl, whole.dl1Ctl);
            EXPECT_GT(whole.dl1.cache().resizes(), 0u);
            EXPECT_EQ(split.log.calls, whole.log.calls);
            EXPECT_EQ(whole.log.calls.size(), probed ? n / 777 + 1 : 0);
        }
    }
}

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
