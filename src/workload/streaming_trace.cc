#include "workload/streaming_trace.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string_view>

#include "util/logging.hh"
#include "workload/trace_io.hh"

#ifdef RCACHE_HAVE_ZLIB
#include <zlib.h>
#endif

namespace rcache
{

bool
gzipTraceSupported()
{
#ifdef RCACHE_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

namespace
{

/**
 * Raw byte access to a trace file. Offsets are logical (decompressed)
 * byte positions, so the decoders above never know whether the input
 * was gzipped.
 */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;
    /** Read up to @p n bytes; short reads only at end of stream. */
    virtual std::size_t read(void *buf, std::size_t n) = 0;
    /** Reposition at logical offset @p off. */
    virtual bool seekTo(std::uint64_t off) = 0;
    /** Bytes of buffering this source holds. */
    virtual std::size_t residentBytes() const = 0;
};

/** Plain file via stdio with one fixed-size buffer. */
class FileSource final : public ByteSource
{
  public:
    static std::unique_ptr<FileSource>
    open(const std::string &path, std::string *err)
    {
        FILE *fp = std::fopen(path.c_str(), "rb");
        if (!fp) {
            if (err)
                *err = "cannot open trace file: " + path;
            return nullptr;
        }
        return std::unique_ptr<FileSource>(new FileSource(fp));
    }

    ~FileSource() override { std::fclose(fp_); }

    std::size_t
    read(void *buf, std::size_t n) override
    {
        return std::fread(buf, 1, n, fp_);
    }

    bool
    seekTo(std::uint64_t off) override
    {
        return ::fseeko(fp_, static_cast<off_t>(off), SEEK_SET) == 0;
    }

    std::size_t residentBytes() const override { return buf_.size(); }

  private:
    explicit FileSource(FILE *fp)
        : fp_(fp), buf_(StreamingTraceWorkload::ioBufferBytes)
    {
        std::setvbuf(fp_, buf_.data(), _IOFBF, buf_.size());
    }

    FILE *fp_;
    std::vector<char> buf_;
};

#ifdef RCACHE_HAVE_ZLIB
/**
 * Gzip-compressed file via zlib's gz* layer. gzseek addresses the
 * decompressed stream; backward seeks rewind and re-inflate (gzip has
 * no random access), forward seeks inflate-and-discard.
 */
class GzSource final : public ByteSource
{
  public:
    static std::unique_ptr<GzSource>
    open(const std::string &path, std::string *err)
    {
        gzFile f = gzopen(path.c_str(), "rb");
        if (!f) {
            if (err)
                *err = "cannot open gzip trace file: " + path;
            return nullptr;
        }
        return std::unique_ptr<GzSource>(new GzSource(f, path));
    }

    ~GzSource() override { gzclose(f_); }

    std::size_t
    read(void *buf, std::size_t n) override
    {
        const int r =
            gzread(f_, buf, static_cast<unsigned>(std::min<std::size_t>(
                                n, 1u << 30)));
        if (r < 0) {
            int ec = Z_OK;
            const char *msg = gzerror(f_, &ec);
            rc_fatal("gzip read error in " + path_ + ": " +
                     (msg ? msg : "unknown"));
        }
        return static_cast<std::size_t>(r);
    }

    bool
    seekTo(std::uint64_t off) override
    {
        return gzseek(f_, static_cast<z_off_t>(off), SEEK_SET) >= 0;
    }

    std::size_t
    residentBytes() const override
    {
        // One gzbuffer for raw input plus zlib's inflate window.
        return StreamingTraceWorkload::ioBufferBytes + (1u << 15);
    }

  private:
    GzSource(gzFile f, std::string path)
        : f_(f), path_(std::move(path))
    {
        gzbuffer(f_, StreamingTraceWorkload::ioBufferBytes);
    }

    gzFile f_;
    std::string path_;
};
#endif // RCACHE_HAVE_ZLIB

std::unique_ptr<ByteSource>
openSource(const TraceSpec &spec, std::string *err)
{
    if (spec.gzip) {
#ifdef RCACHE_HAVE_ZLIB
        return GzSource::open(spec.path, err);
#else
        if (err)
            *err = "gzip trace '" + spec.path +
                   "' needs zlib, which this build was configured "
                   "without";
        return nullptr;
#endif
    }
    return FileSource::open(spec.path, err);
}

/** Buffered line scanner over a ByteSource, tracking the logical
 *  offset of the next unconsumed byte (the seek-index currency). */
class LineScanner
{
  public:
    explicit LineScanner(ByteSource &src) : src_(src), buf_(64 * 1024)
    {
    }

    /** @return false at end of stream (a final unterminated line is
     *          still returned once) */
    bool
    getline(std::string &out)
    {
        out.clear();
        bool any = false;
        for (;;) {
            if (pos_ == len_) {
                len_ = src_.read(buf_.data(), buf_.size());
                pos_ = 0;
                if (len_ == 0)
                    return any;
            }
            const char *begin = buf_.data() + pos_;
            const char *nl = static_cast<const char *>(
                std::memchr(begin, '\n', len_ - pos_));
            const std::size_t span =
                nl ? static_cast<std::size_t>(nl - begin)
                   : len_ - pos_;
            out.append(begin, span);
            any = true;
            pos_ += span;
            consumed_ += span;
            if (nl) {
                ++pos_;
                ++consumed_;
                return true;
            }
        }
    }

    std::uint64_t tellBytes() const { return consumed_; }

    void
    seekTo(std::uint64_t off)
    {
        if (!src_.seekTo(off))
            rc_fatal("trace seek failed");
        consumed_ = off;
        pos_ = len_ = 0;
    }

    std::size_t residentBytes() const { return buf_.size(); }

  private:
    ByteSource &src_;
    std::vector<char> buf_;
    std::size_t pos_ = 0;
    std::size_t len_ = 0;
    std::uint64_t consumed_ = 0;
};

/** Strict whole-field unsigned parse (CSV fields, decimal). */
bool
parseCsvU64(std::string_view f, std::uint64_t &out)
{
    const auto [end, ec] =
        std::from_chars(f.data(), f.data() + f.size(), out, 10);
    return ec == std::errc() && end == f.data() + f.size();
}

} // namespace

/**
 * One on-disk format's record stream. decode() fills records in file
 * order and returns short counts only at end of stream; tellBytes /
 * tellLine expose the position of the next unconsumed input for the
 * seek index, and seekTo restores such a position.
 */
class TraceDecoder
{
  public:
    virtual ~TraceDecoder() = default;

    /**
     * Decode up to @p n records. @p got gets the count (0 = end of
     * stream). @return false with @p err set ("path:line: why") on
     * malformed input
     */
    virtual bool decode(MicroInst *buf, std::size_t n,
                        std::size_t *got, std::string *err) = 0;

    /** Logical byte offset of the next unconsumed input. */
    virtual std::uint64_t tellBytes() const = 0;
    /** Lines consumed so far (0 for binary formats). */
    virtual std::uint64_t tellLine() const = 0;
    /** Restore a (tellBytes, tellLine) position. */
    virtual void seekTo(std::uint64_t byte_off,
                        std::uint64_t line) = 0;
    /** Fixed-width fast path: position directly at record @p idx.
     *  @return false if this format cannot (variable-width) */
    virtual bool seekToRecordExact(std::uint64_t idx)
    {
        (void)idx;
        return false;
    }
    /** Buffering this decoder (and its source) holds. */
    virtual std::size_t residentBytes() const = 0;
};

namespace
{

/** Line-oriented decoders share the scanner/lineno machinery. */
class TextDecoder : public TraceDecoder
{
  public:
    TextDecoder(std::unique_ptr<ByteSource> src, std::string path)
        : path_(std::move(path)), src_(std::move(src)), scanner_(*src_)
    {
    }

    bool
    decode(MicroInst *buf, std::size_t n, std::size_t *got,
           std::string *err) override
    {
        std::size_t g = 0;
        while (g < n) {
            if (!scanner_.getline(line_))
                break;
            ++lineno_;
            if (line_.empty() || line_[0] == '#')
                continue;
            if (!line_.empty() && line_.back() == '\r')
                line_.pop_back();
            if (line_.empty())
                continue;
            std::string why;
            if (!parseLine(line_, buf[g], &why)) {
                if (err)
                    *err = path_ + ":" + std::to_string(lineno_) +
                           ": " + why;
                return false;
            }
            ++g;
        }
        *got = g;
        return true;
    }

    std::uint64_t tellBytes() const override
    {
        return scanner_.tellBytes();
    }
    std::uint64_t tellLine() const override { return lineno_; }

    void
    seekTo(std::uint64_t byte_off, std::uint64_t line) override
    {
        scanner_.seekTo(byte_off);
        lineno_ = line;
    }

    std::size_t
    residentBytes() const override
    {
        return scanner_.residentBytes() + line_.capacity() +
               src_->residentBytes();
    }

  protected:
    virtual bool parseLine(const std::string &line, MicroInst &m,
                           std::string *why) = 0;

    std::string path_;

  private:
    std::unique_ptr<ByteSource> src_;
    LineScanner scanner_;
    std::string line_;
    std::uint64_t lineno_ = 0;

    // Member order note: scanner_ references *src_, so src_ is
    // declared first; path_ sits in the protected block above.
};

class NativeDecoder final : public TextDecoder
{
  public:
    using TextDecoder::TextDecoder;

  protected:
    bool
    parseLine(const std::string &line, MicroInst &m,
              std::string *why) override
    {
        return parseTraceLine(line, m, why);
    }
};

class RocksdbDecoder final : public TextDecoder
{
  public:
    using TextDecoder::TextDecoder;

  protected:
    bool
    parseLine(const std::string &line, MicroInst &m,
              std::string *why) override
    {
        // access_time,block_id,block_type,block_size,cf_id,cf_name,
        // level,fd,caller,no_insert,get_id,key_id,kv_size[,...]
        constexpr std::size_t min_fields = 13;
        std::string_view fields[min_fields];
        std::string_view rest = line;
        std::size_t n = 0;
        while (n < min_fields) {
            const std::size_t comma = rest.find(',');
            fields[n++] = rest.substr(0, comma);
            if (comma == std::string_view::npos)
                break;
            rest.remove_prefix(comma + 1);
        }
        if (n < min_fields) {
            if (why)
                *why = "expected at least 13 comma-separated "
                       "rocksdb trace fields, got " +
                       std::to_string(n);
            return false;
        }

        std::uint64_t access_time = 0, block_id = 0, caller = 0,
                      no_insert = 0;
        if (!parseCsvU64(fields[0], access_time)) {
            if (why)
                *why = "bad access_time: '" +
                       std::string(fields[0]) + "'";
            return false;
        }
        if (!parseCsvU64(fields[1], block_id)) {
            if (why)
                *why =
                    "bad block_id: '" + std::string(fields[1]) + "'";
            return false;
        }
        if (!parseCsvU64(fields[8], caller)) {
            if (why)
                *why = "bad caller: '" + std::string(fields[8]) + "'";
            return false;
        }
        if (!parseCsvU64(fields[9], no_insert) || no_insert > 1) {
            if (why)
                *why = "bad no_insert flag: '" +
                       std::string(fields[9]) + "'";
            return false;
        }

        // One 64-byte-granular block read per row. The caller enum
        // seeds the pc so different access paths exercise distinct
        // i-side lines, deterministically.
        m = MicroInst{};
        m.op = OpClass::Load;
        m.effAddr = block_id * 64;
        m.pc = 0x400000 + (caller & 0x3f) * 4;
        m.latency = 1;
        return true;
    }
};

/** 24-byte little-endian packed records (libCacheSim style). */
class LcsDecoder final : public TraceDecoder
{
  public:
    static constexpr std::size_t recordBytes = 24;

    LcsDecoder(std::unique_ptr<ByteSource> src, std::string path)
        : src_(std::move(src)),
          path_(std::move(path)),
          raw_(StreamingTraceWorkload::chunkRecords * recordBytes)
    {
    }

    bool
    decode(MicroInst *buf, std::size_t n, std::size_t *got,
           std::string *err) override
    {
        const std::size_t want =
            std::min(n * recordBytes, raw_.size());
        std::size_t have = 0;
        while (have < want) {
            const std::size_t r =
                src_->read(raw_.data() + have, want - have);
            if (r == 0)
                break;
            have += r;
        }
        if (have % recordBytes != 0) {
            if (err)
                *err = path_ + ": truncated " +
                       std::to_string(recordBytes) +
                       "-byte record at byte offset " +
                       std::to_string(offset_ +
                                      have - have % recordBytes);
            return false;
        }
        const std::size_t g = have / recordBytes;
        for (std::size_t i = 0; i < g; ++i) {
            const unsigned char *p =
                reinterpret_cast<const unsigned char *>(raw_.data()) +
                i * recordBytes;
            // u32 timestamp, u64 obj_id, u32 obj_size, i64 next_vtime
            // — only the object id shapes the access stream.
            const std::uint64_t obj_id = le64(p + 4);
            MicroInst m{};
            m.op = OpClass::Load;
            m.effAddr = obj_id * 64;
            m.pc = 0x400000;
            m.latency = 1;
            buf[i] = m;
        }
        offset_ += have;
        *got = g;
        return true;
    }

    std::uint64_t tellBytes() const override { return offset_; }
    std::uint64_t tellLine() const override { return 0; }

    void
    seekTo(std::uint64_t byte_off, std::uint64_t) override
    {
        if (!src_->seekTo(byte_off))
            rc_fatal("trace seek failed: " + path_);
        offset_ = byte_off;
    }

    bool
    seekToRecordExact(std::uint64_t idx) override
    {
        seekTo(idx * recordBytes, 0);
        return true;
    }

    std::size_t
    residentBytes() const override
    {
        return raw_.size() + src_->residentBytes();
    }

  private:
    static std::uint64_t
    le64(const unsigned char *p)
    {
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | p[i];
        return v;
    }

    std::unique_ptr<ByteSource> src_;
    std::string path_;
    std::vector<char> raw_;
    std::uint64_t offset_ = 0;
};

std::unique_ptr<TraceDecoder>
makeDecoder(const TraceSpec &spec, std::string *err)
{
    auto src = openSource(spec, err);
    if (!src)
        return nullptr;
    switch (spec.format) {
      case TraceFormat::Native:
        return std::make_unique<NativeDecoder>(std::move(src),
                                               spec.path);
      case TraceFormat::Rocksdb:
        return std::make_unique<RocksdbDecoder>(std::move(src),
                                                spec.path);
      case TraceFormat::LcsBin:
        return std::make_unique<LcsDecoder>(std::move(src),
                                            spec.path);
    }
    rc_panic("bad trace format");
}

} // namespace

StreamingTraceWorkload::StreamingTraceWorkload(
    std::unique_ptr<TraceDecoder> decoder, std::string name)
    : decoder_(std::move(decoder)), name_(std::move(name))
{
    chunk_.resize(chunkRecords);
}

StreamingTraceWorkload::~StreamingTraceWorkload() = default;

std::unique_ptr<StreamingTraceWorkload>
StreamingTraceWorkload::open(const TraceSpec &spec,
                             const std::string &name,
                             std::string *err)
{
    auto decoder = makeDecoder(spec, err);
    if (!decoder)
        return nullptr;
    std::unique_ptr<StreamingTraceWorkload> wl(
        new StreamingTraceWorkload(std::move(decoder), name));

    // Eager first decode: unreadable files and malformed leading
    // records fail at open (where the caller has an error channel),
    // not mid-run on a worker thread.
    wl->checkpoints_.push_back({0, 0});
    std::size_t got = 0;
    std::string derr;
    if (!wl->decoder_->decode(wl->chunk_.data(), chunkRecords, &got,
                              &derr)) {
        if (err)
            *err = derr;
        return nullptr;
    }
    if (got == 0) {
        if (err)
            *err = spec.path +
                   ": empty trace (need at least one record to loop)";
        return nullptr;
    }
    wl->cursor_ = got;
    wl->chunkLen_ = got;
    if (got < chunkRecords)
        wl->len_ = got; // whole trace fit in the first chunk
    return wl;
}

std::size_t
StreamingTraceWorkload::decodeSome(MicroInst *buf, std::size_t n,
                                   std::string *err)
{
    std::size_t filled = 0;
    while (filled < n) {
        // While the length is unknown (first pass) drop a checkpoint
        // at every stride boundary; capping each decode call at the
        // next boundary keeps boundaries aligned with call starts.
        if (len_ == 0 && cursor_ % checkpointStride == 0 &&
            checkpoints_.size() == cursor_ / checkpointStride) {
            checkpoints_.push_back(
                {decoder_->tellBytes(), decoder_->tellLine()});
        }
        const std::uint64_t until_boundary =
            checkpointStride - cursor_ % checkpointStride;
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(n - filled, until_boundary));
        std::size_t got = 0;
        std::string why;
        if (!decoder_->decode(buf + filled, want, &got, &why)) {
            if (!err)
                rc_fatal("malformed trace record: " + why);
            *err = why;
            return 0;
        }
        filled += got;
        cursor_ += got;
        if (got < want)
            break; // end of stream
    }
    return filled;
}

void
StreamingTraceWorkload::seekToRecord(std::uint64_t target)
{
    chunkPos_ = chunkLen_ = 0;
    if (decoder_->seekToRecordExact(target)) {
        cursor_ = target;
        return;
    }
    const std::uint64_t k = target / checkpointStride;
    rc_assert(k < checkpoints_.size());
    decoder_->seekTo(checkpoints_[k].byteOffset,
                     checkpoints_[k].line);
    cursor_ = k * checkpointStride;
    std::uint64_t remain = target - cursor_;
    while (remain) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remain, chunkRecords));
        const std::size_t got = decodeSome(chunk_.data(), want);
        rc_assert(got == want);
        remain -= got;
    }
}

bool
StreamingTraceWorkload::ensureLength(std::string *err)
{
    if (len_)
        return true;
    // Finish the first pass, decode-and-discarding into the chunk
    // buffer (any undelivered records are restored by the re-seek).
    std::string why;
    while (decodeSome(chunk_.data(), chunkRecords,
                      err ? &why : nullptr) != 0) {
    }
    if (!why.empty()) {
        *err = why;
        return false;
    }
    len_ = cursor_;
    rc_assert(len_ > 0);
    pos_ %= len_;
    seekToRecord(pos_);
    return true;
}

void
StreamingTraceWorkload::refill()
{
    chunkPos_ = 0;
    std::size_t got = decodeSome(chunk_.data(), chunkRecords);
    if (got == 0) {
        // End of stream: the pass just completed fixes the length on
        // first wrap; every pass loops back to record 0.
        if (len_ == 0)
            len_ = cursor_;
        rc_assert(len_ > 0);
        pos_ %= len_;
        seekToRecord(0);
        got = decodeSome(chunk_.data(), chunkRecords);
        rc_assert(got > 0);
        chunkPos_ = 0;
    }
    chunkLen_ = got;
}

MicroInst
StreamingTraceWorkload::next()
{
    if (chunkPos_ == chunkLen_)
        refill();
    const MicroInst m = chunk_[chunkPos_++];
    ++pos_;
    if (len_ && pos_ >= len_)
        pos_ -= len_;
    return m;
}

void
StreamingTraceWorkload::nextBatch(MicroInst *buf, std::size_t n)
{
    std::size_t filled = 0;
    while (filled < n) {
        if (chunkPos_ == chunkLen_)
            refill();
        const std::size_t span =
            std::min(n - filled, chunkLen_ - chunkPos_);
        std::copy_n(chunk_.begin() +
                        static_cast<std::ptrdiff_t>(chunkPos_),
                    span, buf + filled);
        chunkPos_ += span;
        filled += span;
        pos_ += span;
        if (len_ && pos_ >= len_)
            pos_ %= len_;
    }
}

void
StreamingTraceWorkload::reset()
{
    pos_ = 0;
    seekToRecord(0);
}

void
StreamingTraceWorkload::skip(std::uint64_t n)
{
    ensureLength();
    pos_ = (pos_ + n) % len_;
    seekToRecord(pos_);
}

std::uint64_t
StreamingTraceWorkload::records(std::string *err)
{
    return ensureLength(err) ? len_ : 0;
}

std::size_t
StreamingTraceWorkload::residentBytes() const
{
    return chunk_.capacity() * sizeof(MicroInst) +
           checkpoints_.capacity() * sizeof(Checkpoint) +
           decoder_->residentBytes();
}

bool
convertTraceToNative(const TraceSpec &spec, std::ostream &os,
                     std::uint64_t limit, std::string *err)
{
    auto decoder = makeDecoder(spec, err);
    if (!decoder)
        return false;

    os << "# rcache trace v1: op pc eff latency dep1 dep2 taken"
       << " [target]\n";
    os << "# converted from " << traceFormatName(spec.format) << ": "
       << spec.path << "\n";

    std::vector<MicroInst> buf(StreamingTraceWorkload::chunkRecords);
    std::uint64_t written = 0;
    for (;;) {
        std::size_t want = buf.size();
        if (limit)
            want = static_cast<std::size_t>(std::min<std::uint64_t>(
                want, limit - written));
        if (want == 0)
            break;
        std::size_t got = 0;
        if (!decoder->decode(buf.data(), want, &got, err))
            return false;
        if (got == 0)
            break;
        for (std::size_t i = 0; i < got; ++i)
            writeTraceLine(os, buf[i]);
        written += got;
    }
    if (written == 0) {
        if (err)
            *err = spec.path + ": empty trace";
        return false;
    }
    return true;
}

} // namespace rcache
