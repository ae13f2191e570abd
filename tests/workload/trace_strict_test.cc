/**
 * @file
 * Malformed-line corpus for the strict native trace parser: every
 * class of garbage the old lenient istringstream parser accepted —
 * trailing junk after valid numeric prefixes, out-of-range values
 * silently wrapped into uint8 casts, negative latencies — must now be
 * rejected with a one-line explanation, and errors surfaced through
 * the streaming reader carry a file:line prefix the CLI reports
 * verbatim.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "workload/streaming_trace.hh"
#include "workload/trace_io.hh"

namespace rcache
{

namespace
{

/** Write @p text to a temp file; its spec opens it as native. */
TraceSpec
writeFile(const std::string &name, const std::string &text)
{
    TraceSpec spec;
    spec.path = testing::TempDir() + name;
    std::ofstream(spec.path) << text;
    return spec;
}

struct BadLine
{
    const char *line;
    /** Substring the diagnostic must contain. */
    const char *expect;
};

} // namespace

TEST(TraceStrictTest, MalformedLineCorpusRejected)
{
    const BadLine corpus[] = {
        // Wrong shape.
        {"", "expected at least 7 fields"},
        {"L", "expected at least 7 fields"},
        {"L 400000 10000 1 0 0", "expected at least 7 fields"},
        {"L 400000 10000 1 0 0 0 0 0", "too many fields"},
        // Bad opcodes (single char enforced, unknown letters too).
        {"X 400000 10000 1 0 0 0", "bad opcode"},
        {"LL 400000 10000 1 0 0 0", "bad opcode"},
        {"l 400000 10000 1 0 0 0", "bad opcode"},
        // Trailing junk after a valid numeric prefix: the old parser
        // stopped at the junk and accepted the line.
        {"L 400000zz 10000 1 0 0 0", "bad pc"},
        {"L 400000 10000qq 1 0 0 0", "bad eff-addr"},
        {"L 400000 10000 1x 0 0 0", "bad latency"},
        {"L 400000 10000 1 0x 0 0", "bad dep1"},
        {"L 400000 10000 1 0 0x 0", "bad dep2"},
        // Out of range: 300 used to wrap to 44 in the uint8 cast, and
        // 17-hex-digit addresses wrapped modulo 2^64.
        {"L 400000 10000 300 0 0 0", "latency out of range"},
        {"L 400000 10000 1 256 0 0", "dep1 out of range"},
        {"L 400000 10000 1 0 999 0", "dep2 out of range"},
        {"L 10000000000000000 10000 1 0 0 0", "pc out of range"},
        {"L 400000 fffffffffffffffff 1 0 0 0",
         "eff-addr out of range"},
        // Negative values: istringstream >> unsigned wrapped these.
        {"L 400000 10000 -1 0 0 0", "bad latency"},
        {"L 400000 10000 1 -2 0 0", "bad dep1"},
        // Taken flag must be exactly 0 or 1.
        {"B 400000 0 1 0 0 2 400040", "bad taken flag"},
        {"B 400000 0 1 0 0 yes", "bad taken flag"},
        // Branch target rules.
        {"B 400000 0 1 0 0 1", "missing its target"},
        {"B 400000 0 1 0 0 1 40zz40", "bad target"},
        {"L 400000 10000 1 0 0 0 400040", "trailing junk"},
        // Hex fields reject 0x prefixes and decimal-only junk alike.
        {"L 0x400000 10000 1 0 0 0", "bad pc"},
        {"L not-a-number 10000 1 0 0 0", "bad pc"},
    };

    for (const BadLine &c : corpus) {
        MicroInst m;
        std::string why;
        EXPECT_FALSE(parseTraceLine(c.line, m, &why))
            << "accepted: " << c.line;
        EXPECT_NE(why.find(c.expect), std::string::npos)
            << "line '" << c.line << "' diagnostic '" << why
            << "' lacks '" << c.expect << "'";
    }
}

TEST(TraceStrictTest, GoodLinesStillParse)
{
    MicroInst m;
    std::string why;

    ASSERT_TRUE(parseTraceLine("L 400000 dead0 4 1 2 0", m, &why))
        << why;
    EXPECT_EQ(m.op, OpClass::Load);
    EXPECT_EQ(m.pc, 0x400000u);
    EXPECT_EQ(m.effAddr, 0xdead0u);
    EXPECT_EQ(m.latency, 4);
    EXPECT_EQ(m.dep1, 1);
    EXPECT_EQ(m.dep2, 2);
    EXPECT_FALSE(m.taken);
    EXPECT_EQ(m.target, 0u);

    ASSERT_TRUE(parseTraceLine("B 400000 0 1 0 0 1 400040", m, &why))
        << why;
    EXPECT_EQ(m.op, OpClass::Branch);
    EXPECT_TRUE(m.taken);
    EXPECT_EQ(m.target, 0x400040u);

    // Boundary values are in range, not junk.
    ASSERT_TRUE(
        parseTraceLine("I ffffffffffffffff 0 255 255 255 0", m, &why))
        << why;
    EXPECT_EQ(m.pc, ~std::uint64_t{0});
    EXPECT_EQ(m.latency, 255);

    // Extra whitespace between fields is fine.
    ASSERT_TRUE(parseTraceLine("  S  400000\t10000  1 0 0 0 ", m,
                               &why))
        << why;
    EXPECT_EQ(m.op, OpClass::Store);
}

TEST(TraceStrictTest, StrictReaderReportsFileAndLine)
{
    // A bad line in the eagerly decoded first chunk fails open().
    const TraceSpec early = writeFile("demo.txt",
                                      "# header\n"
                                      "L 400000 10000 1 0 0 0\n"
                                      "L 400000 10000 300 0 0 0\n");
    std::string err;
    EXPECT_FALSE(StreamingTraceWorkload::open(early, "demo", &err));
    EXPECT_NE(err.find("demo.txt:3: "), std::string::npos) << err;
    EXPECT_NE(err.find("latency out of range"), std::string::npos)
        << err;

    // A bad line past it fails the length pass, with the same prefix.
    std::string text;
    for (std::size_t i = 0; i < StreamingTraceWorkload::chunkRecords;
         ++i)
        text += "L 400000 10000 1 0 0 0\n";
    text += "L 400000 10000 300 0 0 0\n";
    const TraceSpec late = writeFile("demo_late.txt", text);
    const auto wl = StreamingTraceWorkload::open(late, "demo", &err);
    ASSERT_TRUE(wl) << err;
    EXPECT_EQ(wl->records(&err), 0u);
    EXPECT_NE(err.find("demo_late.txt:4097: latency out of range"),
              std::string::npos)
        << err;
}

TEST(TraceStrictTest, StrictReaderAcceptsCleanStream)
{
    const TraceSpec spec = writeFile("clean.txt",
                                     "# rcache trace v1\n"
                                     "\n"
                                     "I 400000 0 1 0 0 0\n"
                                     "B 400004 0 1 0 0 1 400000\n");
    std::string err;
    const auto wl = StreamingTraceWorkload::open(spec, "clean", &err);
    ASSERT_TRUE(wl) << err;
    ASSERT_EQ(wl->records(&err), 2u) << err;
    wl->next();
    EXPECT_EQ(wl->next().target, 0x400000u);
}

} // namespace rcache
