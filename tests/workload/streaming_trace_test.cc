/**
 * @file
 * StreamingTraceWorkload contract tests: the streamed sequence must
 * be identical to a full materialization for every on-disk format,
 * under every next()/nextBatch()/skip()/reset() interleaving, at a
 * memory footprint that does not scale with the file.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifdef RCACHE_HAVE_ZLIB
#include <zlib.h>
#endif

#include "workload/profiles.hh"
#include "workload/streaming_trace.hh"
#include "workload/trace_format.hh"
#include "workload/trace_io.hh"
#include "workload/workload.hh"

namespace rcache
{

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "rcache_stream_" + name;
}

/** Write an @p n-instruction native-format fixture from @p app. */
std::vector<MicroInst>
writeNativeFixture(const std::string &path, const std::string &app,
                   std::size_t n)
{
    SyntheticWorkload src(profileByName(app));
    std::vector<MicroInst> insts(n);
    src.nextBatch(insts.data(), n);
    std::ofstream f(path);
    for (const MicroInst &m : insts)
        writeTraceLine(f, m);
    return insts;
}

/** Parse native-format @p text line by line with parseTraceLine. */
std::vector<MicroInst>
parseNative(const std::string &text)
{
    std::vector<MicroInst> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        MicroInst m;
        std::string why;
        EXPECT_TRUE(parseTraceLine(line, m, &why)) << why;
        out.push_back(m);
    }
    return out;
}

/** One rocksdb block-cache CSV row. */
std::string
rocksdbRow(std::uint64_t block_id, std::uint64_t caller)
{
    std::ostringstream os;
    os << "1," << block_id << ",1,4096,0,cf,0,1," << caller
       << ",0,5,7,100";
    return os.str();
}

void
writeLcsRecord(std::ostream &os, std::uint64_t obj_id)
{
    unsigned char rec[24] = {};
    rec[0] = 1; // u32 timestamp
    for (int i = 0; i < 8; ++i)
        rec[4 + i] = static_cast<unsigned char>(obj_id >> (8 * i));
    rec[12] = 64; // u32 obj_size
    os.write(reinterpret_cast<const char *>(rec), sizeof(rec));
}

std::unique_ptr<StreamingTraceWorkload>
openSpec(const std::string &spec_text)
{
    TraceSpec spec;
    std::string err;
    if (!parseTraceSpec(spec_text, &spec, &err)) {
        ADD_FAILURE() << err;
        return nullptr;
    }
    auto wl = StreamingTraceWorkload::open(spec, spec_text, &err);
    if (!wl)
        ADD_FAILURE() << err;
    return wl;
}

std::vector<MicroInst>
drainSingly(Workload &wl, std::size_t n)
{
    std::vector<MicroInst> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(wl.next());
    return out;
}

std::vector<MicroInst>
drainBatched(Workload &wl, std::size_t n)
{
    static const std::size_t sizes[] = {1, 13, 128, 4095, 4096, 97};
    std::vector<MicroInst> out(n);
    std::size_t filled = 0;
    unsigned turn = 0;
    while (filled < n) {
        const std::size_t want = std::min(
            sizes[turn++ % (sizeof(sizes) / sizeof(sizes[0]))],
            n - filled);
        wl.nextBatch(out.data() + filled, want);
        filled += want;
    }
    return out;
}

} // namespace

TEST(StreamingTraceTest, NativeMatchesMaterializedAcrossWrap)
{
    const std::string path = tempPath("native_wrap.trace");
    // > chunkRecords so refills and the wrap both happen mid-drain.
    const std::size_t len = StreamingTraceWorkload::chunkRecords + 503;
    const auto insts = writeNativeFixture(path, "gcc", len);

    auto wl = openSpec("trace:" + path);
    ASSERT_TRUE(wl);
    TraceWorkload ref(insts);
    const std::size_t n = 2 * len + 77;
    const auto got = drainSingly(*wl, n);
    const auto want = drainSingly(ref, n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], want[i]) << "divergence at " << i;
    std::remove(path.c_str());
}

TEST(StreamingTraceTest, BatchedDrainIdenticalToSingly)
{
    const std::string path = tempPath("native_batch.trace");
    const std::size_t len = StreamingTraceWorkload::chunkRecords + 61;
    writeNativeFixture(path, "vortex", len);

    auto a = openSpec("trace:" + path);
    auto b = openSpec("trace:" + path);
    ASSERT_TRUE(a && b);
    const std::size_t n = 2 * len + 19;
    const auto singly = drainSingly(*a, n);
    const auto batched = drainBatched(*b, n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(singly[i], batched[i]) << "divergence at " << i;
    std::remove(path.c_str());
}

TEST(StreamingTraceTest, SkipEqualsDrainAndDiscard)
{
    const std::string path = tempPath("native_skip.trace");
    const std::size_t len = 700;
    const auto insts = writeNativeFixture(path, "ammp", len);
    TraceWorkload ref(insts);
    // Reference stream long enough to cover every skip below.
    const auto expect = drainSingly(ref, 8 * len);

    auto wl = openSpec("trace:" + path);
    ASSERT_TRUE(wl);
    std::size_t pos = 0;
    // Mix of small, stride-crossing, wrap-crossing, and multi-lap
    // skips, each followed by reads that must land exactly where a
    // drain-and-discard would.
    const std::size_t skips[] = {0, 1, 3, len - 2, len, len + 1,
                                 2 * len + 5, 13};
    for (std::size_t s : skips) {
        wl->skip(s);
        pos += s;
        for (int k = 0; k < 5; ++k) {
            ASSERT_EQ(wl->next(), expect[pos])
                << "after skip " << s << " at " << pos;
            ++pos;
        }
    }
    std::remove(path.c_str());
}

TEST(StreamingTraceTest, EarlySkipBeforeFirstReadIsExact)
{
    const std::string path = tempPath("native_early_skip.trace");
    const std::size_t len = 400;
    const auto insts = writeNativeFixture(path, "gcc", len);

    // skip() before anything was read forces the length pass; the
    // next read must still be (len + 3) mod len into the stream.
    auto wl = openSpec("trace:" + path);
    ASSERT_TRUE(wl);
    wl->skip(len + 3);
    EXPECT_EQ(wl->next(), insts[3]);
    std::remove(path.c_str());
}

TEST(StreamingTraceTest, ResetRestartsTheStream)
{
    const std::string path = tempPath("native_reset.trace");
    const std::size_t len = 150;
    const auto insts = writeNativeFixture(path, "compress", len);

    auto wl = openSpec("trace:" + path);
    ASSERT_TRUE(wl);
    drainSingly(*wl, len / 2);
    wl->reset();
    EXPECT_EQ(wl->next(), insts[0]);
    EXPECT_EQ(wl->next(), insts[1]);
    std::remove(path.c_str());
}

TEST(StreamingTraceTest, RecordsCountsTheTrace)
{
    const std::string path = tempPath("native_count.trace");
    const std::size_t len = StreamingTraceWorkload::checkpointStride +
                            99;
    writeNativeFixture(path, "gcc", len);

    auto wl = openSpec("trace:" + path);
    ASSERT_TRUE(wl);
    EXPECT_EQ(wl->records(), len);
    // A second call is served from the cached length.
    EXPECT_EQ(wl->records(), len);
    std::remove(path.c_str());
}

TEST(StreamingTraceTest, RocksdbRowsDecodeToBlockLoads)
{
    const std::string path = tempPath("rocks.csv");
    {
        std::ofstream f(path);
        f << rocksdbRow(100, 8) << '\n';
        f << rocksdbRow(7, 0) << '\n';
        // Extra trailing fields beyond the 13 required are legal.
        f << rocksdbRow(7, 65) << ",extra,fields\n";
    }
    auto wl = openSpec("trace:" + path);
    ASSERT_TRUE(wl);
    EXPECT_EQ(wl->records(), 3u);

    MicroInst m = wl->next();
    EXPECT_EQ(static_cast<int>(m.op), static_cast<int>(OpClass::Load));
    EXPECT_EQ(m.effAddr, 100u * 64);
    EXPECT_EQ(m.pc, 0x400000u + 8 * 4);
    EXPECT_EQ(m.latency, 1);

    m = wl->next();
    EXPECT_EQ(m.effAddr, 7u * 64);
    EXPECT_EQ(m.pc, 0x400000u);

    // caller is masked to 6 bits: 65 & 0x3f == 1.
    m = wl->next();
    EXPECT_EQ(m.pc, 0x400000u + 1 * 4);
    std::remove(path.c_str());
}

TEST(StreamingTraceTest, RocksdbMalformedRowFailsOpenWithLine)
{
    const std::string path = tempPath("rocks_bad.csv");
    {
        std::ofstream f(path);
        f << "not,a,row\n";
    }
    TraceSpec spec;
    std::string err;
    ASSERT_TRUE(parseTraceSpec("trace:" + path, &spec, &err));
    auto wl = StreamingTraceWorkload::open(spec, "t", &err);
    EXPECT_FALSE(wl);
    EXPECT_NE(err.find(path + ":1:"), std::string::npos) << err;
    EXPECT_NE(err.find("rocksdb"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(StreamingTraceTest, LcsRecordsDecodeAndWrap)
{
    const std::string path = tempPath("objs.bin");
    const std::size_t len = 600;
    {
        std::ofstream f(path, std::ios::binary);
        for (std::size_t i = 0; i < len; ++i)
            writeLcsRecord(f, 10 + i);
    }
    auto wl = openSpec("trace:" + path);
    ASSERT_TRUE(wl);
    EXPECT_EQ(wl->records(), len);
    for (std::size_t i = 0; i < 2 * len; ++i) {
        const MicroInst m = wl->next();
        ASSERT_EQ(m.effAddr, (10 + i % len) * 64) << "record " << i;
        ASSERT_EQ(static_cast<int>(m.op),
                  static_cast<int>(OpClass::Load));
    }
    // Fixed-width binary skips are exact seeks; land mid-file.
    wl->reset();
    wl->skip(3 * len + 42);
    EXPECT_EQ(wl->next().effAddr, (10 + 42) * 64);
    std::remove(path.c_str());
}

TEST(StreamingTraceTest, LcsTruncationReportsByteOffset)
{
    const std::string path = tempPath("objs_trunc.bin");
    {
        std::ofstream f(path, std::ios::binary);
        writeLcsRecord(f, 1);
        writeLcsRecord(f, 2);
        f.write("shortrec", 8); // 10 stray bytes would also do
    }
    TraceSpec spec;
    std::string err;
    ASSERT_TRUE(parseTraceSpec("trace:" + path, &spec, &err));
    auto wl = StreamingTraceWorkload::open(spec, "t", &err);
    EXPECT_FALSE(wl);
    EXPECT_NE(err.find("truncated 24-byte record"), std::string::npos)
        << err;
    EXPECT_NE(err.find("byte offset 48"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(StreamingTraceTest, MissingFileFailsOpen)
{
    TraceSpec spec;
    std::string err;
    ASSERT_TRUE(parseTraceSpec("trace:/nonexistent/stream.trace",
                               &spec, &err));
    auto wl = StreamingTraceWorkload::open(spec, "t", &err);
    EXPECT_FALSE(wl);
    EXPECT_NE(err.find("cannot open trace file"), std::string::npos)
        << err;
}

TEST(StreamingTraceTest, ConvertRewritesAsNative)
{
    const std::string path = tempPath("convert.csv");
    {
        std::ofstream f(path);
        for (unsigned i = 0; i < 50; ++i)
            f << rocksdbRow(1000 + i, i % 16) << '\n';
    }
    TraceSpec spec;
    std::string err;
    ASSERT_TRUE(parseTraceSpec("trace:" + path, &spec, &err));

    std::ostringstream converted;
    ASSERT_TRUE(convertTraceToNative(spec, converted, 0, &err)) << err;

    const std::vector<MicroInst> parsed = parseNative(converted.str());
    ASSERT_EQ(parsed.size(), 50u);

    auto wl = openSpec("trace:" + path);
    ASSERT_TRUE(wl);
    for (std::size_t i = 0; i < parsed.size(); ++i)
        ASSERT_EQ(parsed[i], wl->next()) << "record " << i;

    // The limit stops the conversion early.
    std::ostringstream limited;
    ASSERT_TRUE(convertTraceToNative(spec, limited, 2, &err)) << err;
    EXPECT_EQ(parseNative(limited.str()).size(), 2u);
    std::remove(path.c_str());
}

#ifdef RCACHE_HAVE_ZLIB

TEST(StreamingTraceTest, GzipStreamIdenticalToPlain)
{
    ASSERT_TRUE(gzipTraceSupported());
    const std::string plain = tempPath("gz_src.trace");
    const std::size_t len = StreamingTraceWorkload::chunkRecords + 37;
    writeNativeFixture(plain, "gcc", len);

    const std::string gz = tempPath("gz_src.trace.gz");
    {
        std::ifstream in(plain, std::ios::binary);
        std::stringstream all;
        all << in.rdbuf();
        const std::string bytes = all.str();
        gzFile f = gzopen(gz.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(gzwrite(f, bytes.data(),
                          static_cast<unsigned>(bytes.size())),
                  static_cast<int>(bytes.size()));
        gzclose(f);
    }

    auto a = openSpec("trace:" + plain);
    auto b = openSpec("trace:" + gz);
    ASSERT_TRUE(a && b);
    const std::size_t n = 2 * len + 11;
    const auto want = drainSingly(*a, n);
    const auto got = drainSingly(*b, n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], want[i]) << "divergence at " << i;

    // Skips over gzip re-inflate from the start; results must agree
    // with the plain file's.
    a->reset();
    b->reset();
    a->skip(len + 29);
    b->skip(len + 29);
    EXPECT_EQ(a->next(), b->next());
    std::remove(plain.c_str());
    std::remove(gz.c_str());
}

#else // !RCACHE_HAVE_ZLIB

TEST(StreamingTraceTest, GzipRejectedWithoutZlib)
{
    EXPECT_FALSE(gzipTraceSupported());
    TraceSpec spec;
    std::string err;
    ASSERT_TRUE(parseTraceSpec("trace:x.trace.gz", &spec, &err));
    auto wl = StreamingTraceWorkload::open(spec, "t", &err);
    EXPECT_FALSE(wl);
    EXPECT_NE(err.find("zlib"), std::string::npos) << err;
}

#endif // RCACHE_HAVE_ZLIB

TEST(StreamingTraceTest, HundredMegabyteTraceStreamsBounded)
{
    // The bounded-memory contract at real-trace scale: a >100 MB
    // on-disk trace must stream (full length pass + wrapped reads +
    // skips) while the workload's resident footprint stays a small
    // constant — chunk buffer + I/O buffer + sparse seek index.
    const std::string path = tempPath("big.bin");
    const std::uint64_t len = 4'500'000; // 24 B each = 108 MB
    {
        std::ofstream f(path, std::ios::binary);
        std::ostringstream chunk;
        for (std::uint64_t i = 0; i < len; ++i) {
            writeLcsRecord(chunk, i % 100003);
            if ((i & 0xffff) == 0xffff) {
                f << chunk.str();
                chunk.str("");
            }
        }
        f << chunk.str();
        ASSERT_TRUE(f.good());
    }

    auto wl = openSpec("trace:" + path);
    ASSERT_TRUE(wl);
    EXPECT_EQ(wl->records(), len);
    EXPECT_LT(wl->residentBytes(), std::size_t{2} * 1024 * 1024)
        << "streaming footprint scales with the file";

    // Reads and skips across the whole file, including a wrap.
    EXPECT_EQ(wl->next().effAddr, 0u);
    wl->skip(len - 2);
    EXPECT_EQ(wl->next().effAddr, ((len - 1) % 100003) * 64);
    EXPECT_EQ(wl->next().effAddr, 0u); // wrapped
    // Position after the two reads above is 1; two laps plus 7 later
    // the cursor sits at record 8.
    wl->skip(2 * len + 7);
    EXPECT_EQ(wl->next().effAddr, 8u * 64);
    EXPECT_LT(wl->residentBytes(), std::size_t{2} * 1024 * 1024);
    std::remove(path.c_str());
}

} // namespace rcache
