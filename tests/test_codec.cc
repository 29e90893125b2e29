/**
 * @file
 * Tests of the record codec (trace/codec.hh) through every path that
 * uses it: worst-case 21-byte records placed 0-20 bytes from the end
 * of a read buffer, a stream frame and a gzip import, so each one
 * lands on the boundary between the unchecked fast loop and the
 * bounds-checked tail; a cut at every byte of a small `.acictrace`;
 * and the named errors (never a process exit) for a bad header,
 * index footer or imported record.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "trace/codec.hh"
#include "trace/errors.hh"
#include "trace/import/framing.hh"
#include "trace/import/importer.hh"
#include "trace/io.hh"
#include "trace/streaming.hh"

using namespace acic;

namespace fs = std::filesystem;

namespace {

fs::path
tempDir()
{
    static const fs::path dir = [] {
        fs::path d = fs::temp_directory_path() /
                     ("acic_codec_" + std::to_string(::getpid()));
        fs::create_directories(d);
        return d;
    }();
    return dir;
}

std::string
tempPath(const std::string &file)
{
    return (tempDir() / file).string();
}

/** A 1-byte record: pc-linked and sequential. */
TraceInst
filler(Addr pc)
{
    TraceInst inst;
    inst.pc = pc;
    inst.nextPc = pc + TraceInst::kInstBytes;
    return inst;
}

/**
 * A stream of 1-byte records with a worst-case 21-byte record (both
 * deltas +-2^63, so both varints are 10 bytes) every @p stride
 * records from record @p first on, at most @p count of them; the
 * worst-case records cycle through every BranchKind with and without
 * the taken bit.
 */
std::vector<TraceInst>
worstCaseStream(std::size_t n, std::size_t first, std::size_t stride,
                std::size_t count = ~std::size_t{0})
{
    std::vector<TraceInst> out;
    out.reserve(n);
    Addr prev_next = 0;
    unsigned shape = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i < first || (i - first) % stride != 0 ||
            (i - first) / stride >= count) {
            out.push_back(filler(prev_next));
        } else {
            const std::int64_t delta =
                shape % 2 ? std::numeric_limits<std::int64_t>::min()
                          : std::numeric_limits<std::int64_t>::max();
            TraceInst inst;
            inst.pc = prev_next + static_cast<Addr>(delta);
            inst.nextPc = inst.pc + TraceInst::kInstBytes +
                          static_cast<Addr>(delta);
            inst.kind = static_cast<BranchKind>(shape / 2 % 5);
            inst.taken = shape % 2 == 1;
            ++shape;
            out.push_back(inst);
        }
        prev_next = out.back().nextPc;
    }
    return out;
}

/** Mixed records of every varint length, for the cut sweep. */
std::vector<TraceInst>
mixedStream(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<TraceInst> out;
    Addr prev_next = 0x400000;
    for (std::size_t i = 0; i < n; ++i) {
        TraceInst inst;
        inst.pc = rng.chance(0.6) ? prev_next : rng.next() & ~Addr{3};
        inst.kind = static_cast<BranchKind>(rng.nextBelow(5));
        inst.taken = rng.chance(0.5);
        inst.nextPc = rng.chance(0.5) ? inst.pc + TraceInst::kInstBytes
                                      : rng.next() & ~Addr{3};
        out.push_back(inst);
        prev_next = inst.nextPc;
    }
    return out;
}

void
writeTrace(const std::vector<TraceInst> &insts, const std::string &path,
           std::uint64_t index_interval = 0)
{
    TraceWriter writer(path, "codec", index_interval);
    for (const TraceInst &inst : insts)
        writer.append(inst);
    writer.close();
}

std::vector<TraceInst>
drainNext(TraceSource &src)
{
    std::vector<TraceInst> out;
    TraceInst inst;
    while (src.next(inst))
        out.push_back(inst);
    return out;
}

std::vector<TraceInst>
drainBatch(TraceSource &src)
{
    std::vector<TraceInst> out;
    InstBatch batch;
    while (src.decodeBatch(batch) > 0)
        for (unsigned i = 0; i < batch.count; ++i)
            out.push_back(batch.get(i));
    return out;
}

std::vector<TraceInst>
drainRuns(TraceSource &src)
{
    std::vector<TraceInst> out;
    std::uint64_t n = 0;
    while (const TraceInst *run = src.acquireRun(~std::uint64_t{0}, n))
        out.insert(out.end(), run, run + n);
    return out;
}

void
expectSame(const std::vector<TraceInst> &a,
           const std::vector<TraceInst> &b, const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].pc == b[i].pc && a[i].nextPc == b[i].nextPc &&
            a[i].kind == b[i].kind && a[i].taken == b[i].taken)
            continue;
        ASSERT_EQ(a[i].pc, b[i].pc) << what << " record " << i;
        ASSERT_EQ(a[i].nextPc, b[i].nextPc) << what << " record " << i;
        ASSERT_EQ(a[i].kind, b[i].kind) << what << " record " << i;
        ASSERT_EQ(a[i].taken, b[i].taken) << what << " record " << i;
    }
}

void
expectFileRoundTrip(const std::vector<TraceInst> &insts,
                    const std::string &path, const std::string &what)
{
    FileTraceSource by_next(path);
    expectSame(insts, drainNext(by_next), what + " next");
    FileTraceSource by_batch(path);
    expectSame(insts, drainBatch(by_batch), what + " decodeBatch");
    FileTraceSource by_runs(path);
    expectSame(insts, drainRuns(by_runs), what + " acquireRun");
}

/** Overwrite @p bytes at @p offset of @p path. */
void
patchFile(const std::string &path, std::uint64_t offset,
          const std::string &bytes)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

// ---------------------------------------------------- codec primitives

TEST(RecordCodec, WorstCaseRecordIsTwentyOneBytes)
{
    const auto insts = worstCaseStream(11, 1, 1);
    RecordCodec enc;
    std::vector<std::uint8_t> bytes;
    enc.encode(insts[0], bytes);
    EXPECT_EQ(bytes.size(), 1u);
    for (std::size_t i = 1; i < insts.size(); ++i) {
        bytes.clear();
        enc.encode(insts[i], bytes);
        EXPECT_EQ(bytes.size(), TraceFormat::kMaxRecordBytes)
            << "record " << i;
    }
}

TEST(RecordCodec, StopsBeforeAPartialRecordWithoutConsumingIt)
{
    const auto insts = worstCaseStream(4, 2, 1);
    std::vector<std::uint8_t> bytes;
    RecordCodec enc;
    for (const TraceInst &inst : insts)
        enc.encode(inst, bytes);
    ASSERT_EQ(bytes.size(), 2 + 2 * TraceFormat::kMaxRecordBytes);
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
        RecordCodec dec;
        std::vector<TraceInst> out(insts.size());
        const std::uint8_t *p = bytes.data();
        const std::size_t got = dec.decode(p, bytes.data() + cut, 0,
                                           out.data(), out.size());
        // Every whole record before the cut decodes; nothing of the
        // record the cut falls in is consumed.
        std::size_t whole = 0;
        std::size_t end = 0;
        for (std::size_t len : {std::size_t{1}, std::size_t{1},
                                TraceFormat::kMaxRecordBytes,
                                TraceFormat::kMaxRecordBytes}) {
            if (end + len > cut)
                break;
            end += len;
            ++whole;
        }
        EXPECT_EQ(got, whole) << "cut " << cut;
        EXPECT_EQ(static_cast<std::size_t>(p - bytes.data()), end)
            << "cut " << cut;
        out.resize(got);
        expectSame(std::vector<TraceInst>(insts.begin(),
                                          insts.begin() + got),
                   out, "cut " + std::to_string(cut));
    }
}

TEST(RecordCodec, CorruptRecordsRaiseFormatErrorsWithOffsets)
{
    // Kind 7 names no BranchKind.
    std::vector<std::uint8_t> bad_kind(40, TraceFormat::kLinkedBit |
                                               TraceFormat::kSequentialBit);
    bad_kind[30] = 0x07 | TraceFormat::kLinkedBit |
                   TraceFormat::kSequentialBit;
    std::vector<TraceInst> out(64);
    RecordCodec dec(0, "unit");
    const std::uint8_t *p = bad_kind.data();
    try {
        dec.decode(p, bad_kind.data() + bad_kind.size(), 100,
                   out.data(), out.size());
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.offset(), 130u);
        EXPECT_NE(std::string(e.what()).find("unit: "),
                  std::string::npos);
    }

    // An unlinked record whose varint continues for 11 bytes, in
    // both the fast path (room to spare) and the checked tail.
    for (const std::size_t pad : {std::size_t{0}, std::size_t{30}}) {
        std::vector<std::uint8_t> runaway(1, TraceFormat::kSequentialBit);
        runaway.insert(runaway.end(), 11, 0x80);
        runaway.insert(runaway.end(), pad, 0x00);
        RecordCodec runaway_dec;
        p = runaway.data();
        try {
            runaway_dec.decode(p, runaway.data() + runaway.size(), 0,
                               out.data(), out.size());
            FAIL() << "expected TraceFormatError, pad " << pad;
        } catch (const TraceTruncatedError &) {
            FAIL() << "runaway varint reported as truncation";
        } catch (const TraceFormatError &e) {
            EXPECT_EQ(e.offset(), 11u);
            EXPECT_NE(std::string(e.what()).find("runaway"),
                      std::string::npos);
        }
    }
}

// ------------------------------------ fast/checked boundary round trips

TEST(CodecBoundary, FileBufferEdgeRoundTripsThroughEveryPull)
{
    // The reader's first read fills a 1 MiB buffer from the payload
    // start. A worst-case record starting 0-20 bytes before that edge
    // straddles it; earlier ones end on the fast/checked boundary.
    constexpr std::size_t kBuf = 1u << 20;
    for (std::size_t back = 0; back <= 20; ++back) {
        // Filler records are one byte each, so the first worst-case
        // record starts `back` bytes before the buffer end; nine more
        // follow it.
        const auto insts =
            worstCaseStream(kBuf + 64, kBuf - back, 1, 10);
        const std::string path =
            tempPath("edge" + std::to_string(back) + ".acictrace");
        writeTrace(insts, path);
        expectFileRoundTrip(insts, path,
                            "back " + std::to_string(back));
        fs::remove(path);
    }
}

TEST(CodecBoundary, FileEndRoundTripsThroughEveryPull)
{
    // The last buffer ends at end-of-file (footerless, so the payload
    // is the file tail): a worst-case record followed by `tail` bytes
    // of 1-byte records.
    for (std::size_t tail = 0; tail <= 20; ++tail) {
        const auto insts = worstCaseStream(100 + tail, 90, 10);
        for (const std::uint64_t interval : {0u, 16u}) {
            const std::string path =
                tempPath("end" + std::to_string(tail) + "_" +
                         std::to_string(interval) + ".acictrace");
            writeTrace(insts, path, interval);
            expectFileRoundTrip(insts, path,
                                "tail " + std::to_string(tail));
            fs::remove(path);
        }
    }
}

TEST(CodecBoundary, FrameEndRoundTripsThroughStreamDecode)
{
    // Frames of 31 + tail records: 30 fillers, a worst-case record,
    // then `tail` 1-byte records, so the worst-case record ends `tail`
    // bytes before the end of every frame payload.
    for (std::uint32_t tail = 0; tail <= 20; ++tail) {
        const std::uint32_t per_frame = 31 + tail;
        const auto insts = worstCaseStream(per_frame * 12, 30, per_frame);
        std::ostringstream bytes(std::ios::binary);
        {
            StreamTraceWriter writer(bytes, "frames", per_frame);
            for (const TraceInst &inst : insts)
                writer.append(inst);
            writer.finish();
        }
        const std::string path =
            tempPath("frame" + std::to_string(tail) + ".acis");
        writeFile(path, bytes.str());
        auto by_next = StreamingTraceSource::openPath(path, 256);
        expectSame(insts, drainNext(*by_next),
                   "tail " + std::to_string(tail) + " next");
        auto by_runs = StreamingTraceSource::openPath(path, 256);
        expectSame(insts, drainRuns(*by_runs),
                   "tail " + std::to_string(tail) + " acquireRun");
        fs::remove(path);
    }
}

TEST(CodecBoundary, GzipImportEndRoundTrips)
{
    if (!gzipSupported())
        GTEST_SKIP() << "built without zlib";
    for (std::size_t tail = 0; tail <= 20; ++tail) {
        const auto insts = worstCaseStream(100 + tail, 90, 10);
        const std::string base = tempPath("gz" + std::to_string(tail));
        writeTrace(insts, base + ".acictrace", 16);
        ASSERT_TRUE(gzipFile(base + ".acictrace", base + ".gz"));
        const std::string cmd = std::string(ACIC_RUN_BIN) + " import " +
                                base + ".gz " + base + "_out.acictrace" +
                                " >/dev/null";
        ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
        FileTraceSource imported(base + "_out.acictrace");
        EXPECT_EQ(imported.name(), "codec");
        expectSame(insts, drainNext(imported),
                   "tail " + std::to_string(tail));
    }
}

// ------------------------------------------------ truncation and errors

TEST(TraceFileErrors, CutAtEveryByteRaisesNamedError)
{
    // Streams have the same sweep (StreamErrors.*); here every prefix
    // of an indexed and of a footerless file must raise a named error
    // from the constructor or the decode, never decode short.
    const auto insts = mixedStream(5, 60);
    for (const std::uint64_t interval : {0u, 16u}) {
        const std::string path = tempPath(
            "full_" + std::to_string(interval) + ".acictrace");
        writeTrace(insts, path, interval);
        const std::string bytes = readFile(path);
        const std::string cut_path = tempPath("cut.acictrace");
        for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
            writeFile(cut_path, bytes.substr(0, cut));
            bool named = false;
            try {
                FileTraceSource src(cut_path);
                drainRuns(src);
            } catch (const TraceFormatError &) {
                named = true;
            }
            EXPECT_TRUE(named) << "interval " << interval << " cut "
                               << cut << " of " << bytes.size();
        }
    }
}

TEST(TraceFileErrors, BadHeaderThrowsNamedErrors)
{
    const std::string path = tempPath("header.acictrace");
    writeTrace(mixedStream(6, 10), path);
    const std::string good = readFile(path);

    writeFile(path, "XCIC" + good.substr(4));
    try {
        FileTraceSource src(path);
        FAIL() << "expected TraceFormatError";
    } catch (const TraceTruncatedError &) {
        FAIL() << "bad magic reported as truncation";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.offset(), 0u);
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    }

    std::string bad_version = good;
    bad_version[4] = 9;
    writeFile(path, bad_version);
    try {
        FileTraceSource src(path);
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.offset(), 4u);
        EXPECT_NE(std::string(e.what()).find("version 9"),
                  std::string::npos);
    }

    writeFile(path, good.substr(0, 12));
    EXPECT_THROW(FileTraceSource src(path), TraceTruncatedError);
    // Cut inside the 5-byte workload name.
    writeFile(path, good.substr(0, TraceFormat::kHeaderBytes + 2));
    EXPECT_THROW(FileTraceSource src(path), TraceTruncatedError);
}

TEST(TraceFileErrors, BadIndexFooterThrowsNamedErrors)
{
    const std::string path = tempPath("footer.acictrace");
    writeTrace(mixedStream(7, 100), path, 16);
    const std::string good = readFile(path);
    ASSERT_NO_THROW(FileTraceSource src(path));

    // Trailer magic.
    std::string bad_magic = good;
    bad_magic[bad_magic.size() - 1] ^= 0x55;
    writeFile(path, bad_magic);
    EXPECT_THROW(FileTraceSource src(path), TraceFormatError);

    // A checkpoint count that overruns the payload.
    writeFile(path, good);
    patchFile(path, good.size() - 8, std::string("\xff\xff\xff\x0f", 4));
    try {
        FileTraceSource src(path);
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        EXPECT_NE(std::string(e.what()).find("index footer"),
                  std::string::npos);
    }

    // Flag set on a file too short to hold any footer.
    const std::string empty_path = tempPath("nofooter.acictrace");
    writeTrace({}, empty_path, 0);
    patchFile(empty_path, 6, std::string("\x01\x00", 2));
    EXPECT_THROW(FileTraceSource src(empty_path), TraceTruncatedError);
}

TEST(NativeImportErrors, ShortAndCorruptRecordsThrowNamedErrors)
{
    const auto insts = mixedStream(8, 200);
    const std::string path = tempPath("import_src.acictrace");
    writeTrace(insts, path, 0);
    const std::string good = readFile(path);
    const std::string out = tempPath("import_out.acictrace");

    // Short: the file ends inside the last record.
    const std::string short_path = tempPath("import_short.acictrace");
    writeFile(short_path, good.substr(0, good.size() - 1));
    EXPECT_THROW(importTraceFile(short_path, out), TraceTruncatedError);
    EXPECT_FALSE(fs::exists(out));
    EXPECT_FALSE(fs::exists(out + ".tmp"));

    // Corrupt: an invalid branch kind in the first record's tag.
    std::string corrupt = good;
    const std::size_t first = TraceFormat::kHeaderBytes + 5;
    corrupt[first] = static_cast<char>(corrupt[first] | 0x07);
    const std::string corrupt_path = tempPath("import_bad.acictrace");
    writeFile(corrupt_path, corrupt);
    try {
        importTraceFile(corrupt_path, out);
        FAIL() << "expected TraceFormatError";
    } catch (const TraceTruncatedError &) {
        FAIL() << "corrupt record reported as truncation";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.offset(), first);
    }
    EXPECT_FALSE(fs::exists(out));

    // A bad header is a named error too.
    writeFile(corrupt_path, "ACIC" + std::string(2, '\x07'));
    EXPECT_THROW(importTraceFile(corrupt_path, out, {"acictrace", ""}),
                 TraceFormatError);
}
