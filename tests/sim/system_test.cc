/** @file Tests for the System wiring. */

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "tests/sim/expect_same_result.hh"
#include "workload/profiles.hh"

namespace rcache
{

TEST(SystemTest, BaseConfigMatchesTable2)
{
    SystemConfig cfg = SystemConfig::base();
    EXPECT_EQ(cfg.core.dispatchWidth, 4u);
    EXPECT_EQ(cfg.core.robSize, 64u);
    EXPECT_EQ(cfg.core.lsqSize, 32u);
    EXPECT_EQ(cfg.core.mshrs, 8u);
    EXPECT_EQ(cfg.core.wbEntries, 8u);
    EXPECT_EQ(cfg.il1.size, 32 * 1024u);
    EXPECT_EQ(cfg.il1.assoc, 2u);
    EXPECT_EQ(cfg.dl1.size, 32 * 1024u);
    EXPECT_EQ(cfg.l2.size, 512 * 1024u);
    EXPECT_EQ(cfg.l2.assoc, 4u);
    EXPECT_EQ(cfg.lat.l2Latency, 12u);
    EXPECT_EQ(cfg.lat.memBaseLatency, 80u);
    EXPECT_EQ(cfg.coreModel, CoreModel::OutOfOrder);
}

TEST(SystemTest, RunProducesConsistentResult)
{
    SyntheticWorkload wl(profileByName("ammp"));
    System sys(SystemConfig::base());
    RunResult r = sys.run(wl, 50000);
    EXPECT_EQ(r.insts, 50000u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_GT(r.edp(), 0.0);
    EXPECT_EQ(r.workload, "ammp");
    // Full-size caches for the whole run.
    EXPECT_DOUBLE_EQ(r.avgDl1Bytes, 32 * 1024.0);
    EXPECT_DOUBLE_EQ(r.avgIl1Bytes, 32 * 1024.0);
}

TEST(SystemTest, DeterministicAcrossRuns)
{
    SyntheticWorkload w1(profileByName("gcc"));
    SyntheticWorkload w2(profileByName("gcc"));
    System s1(SystemConfig::base()), s2(SystemConfig::base());
    RunResult a = s1.run(w1, 50000);
    RunResult b = s2.run(w2, 50000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TEST(SystemTest, StaticSetupShrinksCache)
{
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;
    SyntheticWorkload wl(profileByName("ammp"));
    System sys(cfg);
    RunResult r =
        sys.run(wl, 50000, {}, ResizeSetup{Strategy::Static, 2, {}});
    EXPECT_DOUBLE_EQ(r.avgDl1Bytes, 8 * 1024.0);
    EXPECT_DOUBLE_EQ(r.avgIl1Bytes, 32 * 1024.0);
}

TEST(SystemTest, DynamicSetupRecordsTrace)
{
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;
    SyntheticWorkload wl(profileByName("ammp"));
    System sys(cfg);
    DynamicParams dyn;
    dyn.intervalAccesses = 1024;
    dyn.missBound = 32;
    RunResult r =
        sys.run(wl, 100000, {}, ResizeSetup{Strategy::Dynamic, 0, dyn});
    EXPECT_FALSE(r.dl1LevelTrace.empty());
    EXPECT_TRUE(r.il1LevelTrace.empty());
    EXPECT_GT(r.dl1Resizes, 0u);
    EXPECT_LT(r.avgDl1Bytes, 32 * 1024.0); // ammp shrinks
}

TEST(SystemTest, InOrderSlowerThanOoO)
{
    SystemConfig ooo = SystemConfig::base();
    SystemConfig inord = ooo;
    inord.coreModel = CoreModel::InOrder;
    SyntheticWorkload w1(profileByName("compress"));
    SyntheticWorkload w2(profileByName("compress"));
    System so(ooo), si(inord);
    EXPECT_LT(so.run(w1, 50000).cycles, si.run(w2, 50000).cycles);
}

TEST(SystemTest, EnergySharesNonTrivial)
{
    SyntheticWorkload wl(profileByName("vortex"));
    System sys(SystemConfig::base());
    RunResult r = sys.run(wl, 100000);
    EXPECT_GT(r.energy.icache, 0.0);
    EXPECT_GT(r.energy.dcache, 0.0);
    EXPECT_GT(r.energy.l2, 0.0);
    EXPECT_GT(r.energy.core, 0.0);
    EXPECT_GT(r.energy.clock, 0.0);
}

/**
 * The multi-core lane is the single-core System: built over a
 * one-core SharedL2 it must report exactly what the owned-L2 form
 * reports, whatever the engine, core model, strategy or policy.
 */
TEST(SystemTest, OneCoreSharedL2LaneMatchesOwnedL2)
{
    DynamicParams dyn;
    dyn.intervalAccesses = 1024;
    dyn.missBound = 32;
    const std::vector<ResizeSetup> setups = {
        {},
        {Strategy::Static, 1, {}},
        {Strategy::Dynamic, 0, dyn},
    };
    const std::vector<EngineSpec> engines = {
        EngineSpec{},
        EngineSpec::makeSampled(20000, 2000, 4000),
    };
    for (CoreModel model : {CoreModel::OutOfOrder, CoreModel::InOrder}) {
        for (const char *policy : {"lru", "random", "wtlfu"}) {
            for (const EngineSpec &engine : engines) {
                for (const ResizeSetup &setup : setups) {
                    SystemConfig cfg = SystemConfig::base();
                    cfg.coreModel = model;
                    cfg.policy = policy;
                    cfg.il1Org = Organization::SelectiveWays;
                    cfg.dl1Org = Organization::SelectiveSets;
                    SyntheticWorkload w1(profileByName("gcc"));
                    SyntheticWorkload w2(profileByName("gcc"));
                    System owned(cfg);
                    SharedL2 l2(cfg.l2, 1);
                    System lane(cfg, l2, 0);
                    expectSame(
                        owned.run(w1, 70000, setup, setup, engine),
                        lane.run(w2, 70000, setup, setup, engine),
                        coreModelName(model) + "/" + policy + "/" +
                            engineName(engine.mode) + "/" +
                            strategyName(setup.strategy));
                }
            }
        }
    }
}

TEST(SystemTest, CoreModelNames)
{
    EXPECT_EQ(coreModelName(CoreModel::OutOfOrder),
              "out-of-order/non-blocking");
    EXPECT_EQ(coreModelName(CoreModel::InOrder),
              "in-order/blocking");
}

TEST(SystemDeathTest, SecondRunPanics)
{
    SyntheticWorkload wl(profileByName("ammp"));
    System sys(SystemConfig::base());
    sys.run(wl, 1000);
    EXPECT_DEATH(sys.run(wl, 1000), "assertion");
}

TEST(SystemDeathTest, DynamicOnNonResizableCachePanics)
{
    SyntheticWorkload wl(profileByName("ammp"));
    System sys(SystemConfig::base()); // dl1Org == None
    DynamicParams dyn;
    EXPECT_DEATH(
        sys.run(wl, 1000, {}, ResizeSetup{Strategy::Dynamic, 0, dyn}),
        "assertion");
}

} // namespace rcache
