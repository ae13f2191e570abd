/** @file
 * Test helper: two RunResults compared field by field, exactly.
 */

#ifndef RCACHE_TESTS_SIM_EXPECT_SAME_RESULT_HH
#define RCACHE_TESTS_SIM_EXPECT_SAME_RESULT_HH

#include <gtest/gtest.h>

#include <string>

#include "sim/system.hh"

namespace rcache
{

/** Every field a run reports, compared exactly. */
inline void
expectSame(const RunResult &a, const RunResult &b, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.activity.outOfOrder, b.activity.outOfOrder);
    EXPECT_EQ(a.activity.insts, b.activity.insts);
    EXPECT_EQ(a.activity.cycles, b.activity.cycles);
    EXPECT_EQ(a.activity.intOps, b.activity.intOps);
    EXPECT_EQ(a.activity.fpOps, b.activity.fpOps);
    EXPECT_EQ(a.activity.loads, b.activity.loads);
    EXPECT_EQ(a.activity.stores, b.activity.stores);
    EXPECT_EQ(a.activity.branches, b.activity.branches);
    EXPECT_EQ(a.activity.mispredicts, b.activity.mispredicts);
    EXPECT_EQ(a.energy.icache, b.energy.icache);
    EXPECT_EQ(a.energy.dcache, b.energy.dcache);
    EXPECT_EQ(a.energy.l2, b.energy.l2);
    EXPECT_EQ(a.energy.memory, b.energy.memory);
    EXPECT_EQ(a.energy.core, b.energy.core);
    EXPECT_EQ(a.energy.clock, b.energy.clock);
    EXPECT_EQ(a.energyInputs, b.energyInputs);
    EXPECT_EQ(a.avgIl1Bytes, b.avgIl1Bytes);
    EXPECT_EQ(a.avgDl1Bytes, b.avgDl1Bytes);
    EXPECT_EQ(a.il1MissRatio, b.il1MissRatio);
    EXPECT_EQ(a.dl1MissRatio, b.dl1MissRatio);
    EXPECT_EQ(a.l2MissRatio, b.l2MissRatio);
    EXPECT_EQ(a.il1Resizes, b.il1Resizes);
    EXPECT_EQ(a.dl1Resizes, b.dl1Resizes);
    EXPECT_EQ(a.il1LevelTrace, b.il1LevelTrace);
    EXPECT_EQ(a.dl1LevelTrace, b.dl1LevelTrace);
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.measuredInsts, b.measuredInsts);
    EXPECT_EQ(a.warmupInsts, b.warmupInsts);
    EXPECT_EQ(a.il1Accesses, b.il1Accesses);
    EXPECT_EQ(a.il1Misses, b.il1Misses);
    EXPECT_EQ(a.dl1Accesses, b.dl1Accesses);
    EXPECT_EQ(a.dl1Misses, b.dl1Misses);
}

} // namespace rcache

#endif // RCACHE_TESTS_SIM_EXPECT_SAME_RESULT_HH
