/** @file Tests for the trace file format. */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "workload/profiles.hh"
#include "workload/streaming_trace.hh"
#include "workload/trace_io.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

namespace
{

/** Write @p text to a temp file and open it as a native trace. */
std::unique_ptr<StreamingTraceWorkload>
openText(const std::string &name, const std::string &text,
         std::string *err)
{
    TraceSpec spec;
    spec.path = testing::TempDir() + "rcache_trace_io_" + name;
    std::ofstream(spec.path) << text;
    return StreamingTraceWorkload::open(spec, name, err);
}

/** Every record of the native trace @p text, in order. */
std::vector<MicroInst>
readAll(const std::string &name, const std::string &text)
{
    std::string err;
    const auto wl = openText(name, text, &err);
    EXPECT_TRUE(wl) << err;
    if (!wl)
        return {};
    std::vector<MicroInst> out(wl->records());
    wl->nextBatch(out.data(), out.size());
    return out;
}

} // namespace

TEST(TraceIoTest, OpCodesRoundTrip)
{
    for (OpClass op : {OpClass::IntAlu, OpClass::FpAlu, OpClass::Load,
                       OpClass::Store, OpClass::Branch}) {
        EXPECT_EQ(static_cast<int>(opClassFromCode(opClassCode(op))),
                  static_cast<int>(op));
    }
}

TEST(TraceIoDeathTest, BadOpCodeFatal)
{
    EXPECT_EXIT(opClassFromCode('Z'), testing::ExitedWithCode(1),
                "bad opcode");
}

TEST(TraceIoTest, WriteThenReadRoundTrips)
{
    SyntheticWorkload src(profileByName("gcc"));
    std::stringstream buf;
    writeTrace(buf, src, 500);

    const auto insts = readAll("roundtrip.trace", buf.str());
    ASSERT_EQ(insts.size(), 500u);

    // Replaying the source must give identical instructions.
    src.reset();
    for (const auto &got : insts) {
        const MicroInst want = src.next();
        EXPECT_EQ(got.pc, want.pc);
        EXPECT_EQ(got.effAddr, want.effAddr);
        EXPECT_EQ(static_cast<int>(got.op),
                  static_cast<int>(want.op));
        EXPECT_EQ(got.latency, want.latency);
        EXPECT_EQ(got.dep1, want.dep1);
        EXPECT_EQ(got.dep2, want.dep2);
        EXPECT_EQ(got.taken, want.taken);
        if (want.op == OpClass::Branch && want.taken)
            EXPECT_EQ(got.target, want.target);
    }
}

TEST(TraceIoTest, WriteReadWriteIsByteIdentical)
{
    // Stronger identity: serializing the parsed trace again must
    // reproduce the original text byte for byte (no information is
    // lost or reformatted through a round-trip).
    SyntheticWorkload src(profileByName("vortex"));
    std::stringstream first;
    writeTrace(first, src, 300);

    std::string err;
    const auto replay = openText("rewrite.trace", first.str(), &err);
    ASSERT_TRUE(replay) << err;
    std::stringstream second;
    writeTrace(second, *replay, 300);

    EXPECT_EQ(first.str(), second.str());
}

TEST(TraceIoTest, CommentsAndBlankLinesIgnored)
{
    const auto insts =
        readAll("comments.trace", "# a comment\n\nI 400000 0 1 0 0 0\n");
    ASSERT_EQ(insts.size(), 1u);
    EXPECT_EQ(insts[0].pc, 0x400000u);
}

TEST(TraceIoDeathTest, MalformedLineFatal)
{
    // Past the eagerly decoded first chunk, a malformed line is met
    // mid-stream, where the workload has no error channel.
    std::string text;
    for (std::size_t i = 0; i < StreamingTraceWorkload::chunkRecords;
         ++i)
        text += "I 400000 0 1 0 0 0\n";
    text += "L not-a-number\n";
    std::string err;
    const auto wl = openText("late_bad.trace", text, &err);
    ASSERT_TRUE(wl) << err;
    EXPECT_EXIT(wl->records(), testing::ExitedWithCode(1),
                "malformed trace record: .*late_bad.trace:4097:");
}

TEST(TraceIoDeathTest, MissingFileFatal)
{
    // Trace workloads are preflighted by the CLI; one whose file
    // vanished by the time a run builds it is fatal.
    BenchmarkProfile p;
    std::string err;
    ASSERT_TRUE(
        traceProfileFromSpec("trace:/nonexistent/trace.txt", &p, &err))
        << err;
    EXPECT_EXIT(makeWorkload(p), testing::ExitedWithCode(1),
                "cannot open");
}

TEST(TraceIoTest, LoadedTraceDrivesWorkload)
{
    SyntheticWorkload src(profileByName("ammp"));
    std::stringstream buf;
    writeTrace(buf, src, 100);
    std::string err;
    const auto wl = openText("recorded", buf.str(), &err);
    ASSERT_TRUE(wl) << err;
    EXPECT_EQ(wl->name(), "recorded");
    src.reset();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(wl->next().pc, src.next().pc);
}

} // namespace rcache
