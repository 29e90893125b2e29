/**
 * @file
 * Tests of the on-disk trace subsystem: varint/zigzag primitives,
 * write->read round-trips (including after reset(), the
 * re-iterability contract), header metadata, compactness of the
 * encoding, the encoded trace image and its MemoryTraceSource
 * cursor (region cursors and index seeks on v2 and v1 files).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "trace/io.hh"
#include "trace/memory.hh"
#include "trace/synthetic.hh"
#include "trace/workload_params.hh"

using namespace acic;

namespace {

/** Unique-ish temp path per test, removed on destruction. */
class TempTracePath
{
  public:
    explicit TempTracePath(const std::string &tag)
        : path_("acic_test_" + tag + TraceFormat::suffix())
    {
        std::remove(path_.c_str());
    }
    ~TempTracePath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

WorkloadParams
tinyParams(std::uint64_t instructions = 30'000)
{
    auto p = Workloads::byName("web_search");
    p.instructions = instructions;
    return p;
}

std::vector<TraceInst>
drain(TraceSource &src)
{
    std::vector<TraceInst> out;
    TraceInst inst;
    while (src.next(inst))
        out.push_back(inst);
    return out;
}

void
expectSameStream(const std::vector<TraceInst> &a,
                 const std::vector<TraceInst> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pc, b[i].pc) << "record " << i;
        ASSERT_EQ(a[i].nextPc, b[i].nextPc) << "record " << i;
        ASSERT_EQ(static_cast<int>(a[i].kind),
                  static_cast<int>(b[i].kind))
            << "record " << i;
        ASSERT_EQ(a[i].taken, b[i].taken) << "record " << i;
    }
}

} // namespace

TEST(Zigzag, RoundTripsSignedDeltas)
{
    for (const std::int64_t v :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
          std::int64_t{4096}, std::int64_t{-4096},
          std::int64_t{1} << 40, -(std::int64_t{1} << 40),
          std::numeric_limits<std::int64_t>::max(),
          std::numeric_limits<std::int64_t>::min()}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    }
    // Small magnitudes must encode small (varint-friendly).
    EXPECT_LT(zigzagEncode(-1), 2u);
    EXPECT_LT(zigzagEncode(63), 127u);
}

TEST(TraceIo, RoundTripEqualsOriginalStream)
{
    TempTracePath path("roundtrip");
    SyntheticWorkload synth(tinyParams());
    const auto original = drain(synth);
    synth.reset();

    const std::uint64_t written = recordTrace(synth, path.str());
    EXPECT_EQ(written, original.size());

    FileTraceSource file(path.str());
    EXPECT_EQ(file.length(), original.size());
    EXPECT_EQ(file.name(), synth.name());
    EXPECT_EQ(file.version(), TraceFormat::kVersion);
    expectSameStream(original, drain(file));
}

TEST(TraceIo, ResetReplaysIdenticalStream)
{
    TempTracePath path("reset");
    SyntheticWorkload synth(tinyParams(10'000));
    recordTrace(synth, path.str());

    FileTraceSource file(path.str());
    const auto first = drain(file);
    ASSERT_EQ(first.size(), 10'000u);
    file.reset();
    expectSameStream(first, drain(file));

    // A partially consumed source must also rewind cleanly.
    file.reset();
    TraceInst inst;
    for (int i = 0; i < 1234; ++i)
        ASSERT_TRUE(file.next(inst));
    file.reset();
    expectSameStream(first, drain(file));
}

TEST(TraceIo, ExhaustedSourceStaysExhausted)
{
    TempTracePath path("exhausted");
    SyntheticWorkload synth(tinyParams(2'000));
    recordTrace(synth, path.str());

    FileTraceSource file(path.str());
    EXPECT_EQ(drain(file).size(), 2'000u);
    TraceInst inst;
    EXPECT_FALSE(file.next(inst));
    EXPECT_FALSE(file.next(inst));
}

TEST(TraceIo, EncodingIsCompact)
{
    TempTracePath path("compact");
    SyntheticWorkload synth(tinyParams(50'000));
    recordTrace(synth, path.str());

    std::FILE *f = std::fopen(path.str().c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long bytes = std::ftell(f);
    std::fclose(f);
    // Mostly-sequential synthetic streams should stay under
    // 2 B/instruction (vs. 18 B for in-memory TraceInst records).
    EXPECT_LT(static_cast<double>(bytes) / 50'000.0, 2.0);
}

TEST(TraceIo, WriterCountsAndClosesIdempotently)
{
    TempTracePath path("close");
    TraceWriter writer(path.str(), "unit");
    TraceInst inst;
    inst.pc = 0x400000;
    inst.nextPc = inst.pc + TraceInst::kInstBytes;
    writer.append(inst);
    inst.pc = inst.nextPc;
    inst.nextPc = 0x500000; // taken branch with a large delta
    inst.kind = BranchKind::Direct;
    inst.taken = true;
    writer.append(inst);
    EXPECT_EQ(writer.written(), 2u);
    writer.close();
    writer.close(); // second close is a no-op

    FileTraceSource file(path.str());
    EXPECT_EQ(file.length(), 2u);
    EXPECT_EQ(file.name(), "unit");
    const auto records = drain(file);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].pc, 0x400000u);
    EXPECT_EQ(records[1].nextPc, 0x500000u);
    EXPECT_EQ(static_cast<int>(records[1].kind),
              static_cast<int>(BranchKind::Direct));
    EXPECT_TRUE(records[1].taken);
}

TEST(TraceIo, HandlesBackwardAndUnlinkedDeltas)
{
    TempTracePath path("deltas");
    // A hand-built stream exercising every tag combination: linked
    // sequential, linked non-sequential, unlinked with negative pc
    // delta, and a conditional not-taken.
    std::vector<TraceInst> stream;
    TraceInst a;
    a.pc = 0x401000;
    a.nextPc = a.pc + 4;
    stream.push_back(a);
    TraceInst b;
    b.pc = a.nextPc; // linked
    b.nextPc = 0x400800; // backward target
    b.kind = BranchKind::Cond;
    b.taken = true;
    stream.push_back(b);
    TraceInst c;
    c.pc = 0x400100; // NOT linked (pc != 0x400800)
    c.nextPc = c.pc + 4;
    c.kind = BranchKind::None;
    stream.push_back(c);
    TraceInst d;
    d.pc = c.nextPc;
    d.nextPc = d.pc + 4;
    d.kind = BranchKind::Cond;
    d.taken = false;
    stream.push_back(d);

    {
        TraceWriter writer(path.str(), "deltas");
        for (const auto &inst : stream)
            writer.append(inst);
    } // destructor closes

    FileTraceSource file(path.str());
    expectSameStream(stream, drain(file));
}

TEST(MemorySource, SharesOneImageAcrossCursors)
{
    SyntheticWorkload synth(tinyParams(5'000));
    const auto reference = drain(synth);
    const auto image = encodeTrace(synth);
    EXPECT_EQ(image->instructions, 5'000u);

    MemoryTraceSource a(image);
    MemoryTraceSource b(image);
    // Interleaved iteration: private cursors over shared storage.
    TraceInst ia, ib;
    ASSERT_TRUE(a.next(ia));
    ASSERT_TRUE(a.next(ia));
    ASSERT_TRUE(b.next(ib));
    EXPECT_EQ(ib.pc, reference[0].pc);
    EXPECT_EQ(ia.pc, reference[1].pc);
    EXPECT_EQ(a.image().get(), b.image().get());

    a.reset();
    expectSameStream(reference, drain(a));
}

TEST(MemorySource, CaptureMatchesSource)
{
    SyntheticWorkload synth(tinyParams(5'000));
    const auto original = drain(synth);
    synth.reset();
    MemoryTraceSource encoded(encodeTrace(synth));
    EXPECT_EQ(encoded.name(), synth.name());
    EXPECT_EQ(encoded.length(), original.size());
    expectSameStream(original, drain(encoded));
}

TEST(TraceIndex, WriterEmitsFooterAndReaderLoadsIt)
{
    TempTracePath path("indexed");
    SyntheticWorkload synth(tinyParams(30'000));
    // A small checkpoint interval so a short trace carries several
    // checkpoints.
    {
        TraceWriter writer(path.str(), synth.name(), 4096);
        synth.reset();
        TraceInst inst;
        while (synth.next(inst))
            writer.append(inst);
        writer.close();
    }
    FileTraceSource file(path.str());
    EXPECT_EQ(file.version(), TraceFormat::kVersion);
    EXPECT_TRUE(file.hasIndex());
    EXPECT_EQ(file.indexInterval(), 4096u);
    // The footer must not disturb the record stream.
    synth.reset();
    expectSameStream(drain(synth), drain(file));

    // A trace shorter than one default checkpoint interval still
    // carries (and reports) its footer — zero checkpoints, with the
    // payload start as the implicit checkpoint 0.
    TempTracePath short_path("indexed_short");
    SyntheticWorkload short_synth(tinyParams(2'000));
    recordTrace(short_synth, short_path.str());
    FileTraceSource short_file(short_path.str());
    EXPECT_TRUE(short_file.hasIndex());
    EXPECT_EQ(short_file.indexInterval(),
              TraceFormat::kIndexInterval);
    ASSERT_TRUE(short_file.seekTo(1'500));
    TraceInst inst;
    EXPECT_TRUE(short_file.next(inst));
}

TEST(TraceIndex, SeekToInstructionMatchesLinearDecode)
{
    TempTracePath path("seek");
    SyntheticWorkload synth(tinyParams(30'000));
    const auto reference = drain(synth);
    {
        TraceWriter writer(path.str(), synth.name(), 1024);
        for (const TraceInst &inst : reference)
            writer.append(inst);
        writer.close();
    }
    FileTraceSource file(path.str());
    // Checkpoint-aligned, mid-checkpoint, backward, start, and end.
    for (const std::uint64_t target :
         {std::uint64_t{1024}, std::uint64_t{5000},
          std::uint64_t{29'999}, std::uint64_t{777},
          std::uint64_t{0}, std::uint64_t{30'000}}) {
        ASSERT_TRUE(file.seekTo(target));
        TraceInst inst;
        for (std::uint64_t i = target; i < reference.size(); ++i) {
            ASSERT_TRUE(file.next(inst)) << "at " << i;
            ASSERT_EQ(inst.pc, reference[i].pc) << "at " << i;
            ASSERT_EQ(inst.nextPc, reference[i].nextPc)
                << "at " << i;
            if (i > target + 64)
                break; // spot-check a window, not the whole tail
        }
        if (target >= reference.size()) {
            EXPECT_FALSE(file.next(inst));
        }
    }
    // Seeking past the end is refused.
    EXPECT_FALSE(file.seekTo(1u << 30));
}

TEST(TraceIndex, FooterlessFileStillSeeksLinearly)
{
    TempTracePath path("nofooter");
    SyntheticWorkload synth(tinyParams(8'000));
    const auto reference = drain(synth);
    {
        // index_interval = 0: no footer, flags stay clear.
        TraceWriter writer(path.str(), synth.name(), 0);
        for (const TraceInst &inst : reference)
            writer.append(inst);
        writer.close();
    }
    FileTraceSource file(path.str());
    EXPECT_FALSE(file.hasIndex());
    EXPECT_EQ(file.indexInterval(), 0u);
    ASSERT_TRUE(file.seekTo(6'000));
    TraceInst inst;
    ASSERT_TRUE(file.next(inst));
    EXPECT_EQ(inst.pc, reference[6'000].pc);
    EXPECT_EQ(inst.nextPc, reference[6'000].nextPc);
}

TEST(TraceIndex, Version1FilesStillLoad)
{
    TempTracePath path("v1compat");
    SyntheticWorkload synth(tinyParams(4'000));
    const auto reference = drain(synth);
    {
        TraceWriter writer(path.str(), synth.name(), 0);
        for (const TraceInst &inst : reference)
            writer.append(inst);
        writer.close();
    }
    // Rewrite the header version to 1 — byte-wise, a footerless v2
    // file *is* a v1 file.
    {
        std::fstream f(path.str(),
                       std::ios::binary | std::ios::in |
                           std::ios::out);
        ASSERT_TRUE(f.is_open());
        f.seekp(4);
        const char v1[2] = {1, 0};
        f.write(v1, 2);
    }
    TraceHeader info;
    ASSERT_TRUE(readTraceHeader(path.str(), info));
    EXPECT_EQ(info.version, 1u);
    EXPECT_EQ(info.instructions, reference.size());

    FileTraceSource file(path.str());
    EXPECT_EQ(file.version(), 1u);
    EXPECT_FALSE(file.hasIndex());
    expectSameStream(reference, drain(file));
    ASSERT_TRUE(file.seekTo(1'000));
    TraceInst inst;
    ASSERT_TRUE(file.next(inst));
    EXPECT_EQ(inst.pc, reference[1'000].pc);
}

TEST(MemorySource, RegionCursorBehavesLikeCompleteSource)
{
    SyntheticWorkload synth(tinyParams(10'000));
    const auto reference = drain(synth);
    synth.reset();
    MemoryTraceSource whole(encodeTrace(synth));

    MemoryTraceSource region(whole.image(), 2'000, 7'000);
    EXPECT_EQ(region.length(), 5'000u);
    TraceInst inst;
    ASSERT_TRUE(region.next(inst));
    EXPECT_EQ(inst.pc, reference[2'000].pc);
    // reset() rewinds to the region begin, not the image begin.
    const auto rest = drain(region);
    EXPECT_EQ(rest.size(), 4'999u);
    region.reset();
    ASSERT_TRUE(region.next(inst));
    EXPECT_EQ(inst.pc, reference[2'000].pc);
    // seekTo is region-relative.
    ASSERT_TRUE(region.seekTo(4'999));
    ASSERT_TRUE(region.next(inst));
    EXPECT_EQ(inst.pc, reference[6'999].pc);
    EXPECT_FALSE(region.next(inst));

    // Sub-regions nest with region-relative indices, and bounds
    // clamp to the image.
    MemoryTraceSource sub = region.region(1'000, 2'000);
    EXPECT_EQ(sub.length(), 1'000u);
    ASSERT_TRUE(sub.next(inst));
    EXPECT_EQ(inst.pc, reference[3'000].pc);
    MemoryTraceSource clamped(whole.image(), 9'000, 1u << 30);
    EXPECT_EQ(clamped.length(), 1'000u);
}

namespace {

/** Rewrite the header version of the trace at @p path to 1 — a
 *  footerless v2 file is byte-wise a v1 file. */
void
markVersion1(const std::string &path)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(4);
    const char v1[2] = {1, 0};
    f.write(v1, 2);
}

/** The next @p n records of @p src (fewer at its end). */
std::vector<TraceInst>
take(TraceSource &src, std::uint64_t n)
{
    std::vector<TraceInst> out;
    TraceInst inst;
    while (out.size() < n && src.next(inst))
        out.push_back(inst);
    return out;
}

} // namespace

TEST(TraceIndex, CursorsAtCheckpointEdgesMatchLinearDecode)
{
    // Three default-interval checkpoints and a tail, so seeks land
    // on, just before and just after real checkpoints.
    constexpr std::uint64_t kInterval = TraceFormat::kIndexInterval;
    SyntheticWorkload synth(tinyParams(3 * kInterval + 5'000));
    const auto reference = drain(synth);
    const std::uint64_t total = reference.size();
    std::vector<std::uint64_t> targets;
    for (std::uint64_t k = 1; k <= 3; ++k)
        for (const std::uint64_t at :
             {k * kInterval - 1, k * kInterval, k * kInterval + 1})
            targets.push_back(at);
    targets.push_back(total - 1);
    targets.push_back(total);

    const auto slice = [&](std::uint64_t begin, std::uint64_t n) {
        const std::uint64_t end = std::min(total, begin + n);
        return std::vector<TraceInst>(reference.begin() + begin,
                                      reference.begin() + end);
    };

    TempTracePath v2("edges_v2");
    recordTrace(synth, v2.str());
    TempTracePath v1("edges_v1");
    {
        TraceWriter writer(v1.str(), synth.name(), 0);
        for (const TraceInst &inst : reference)
            writer.append(inst);
    }
    markVersion1(v1.str());

    for (const std::string *path : {&v2.str(), &v1.str()}) {
        FileTraceSource file(*path);
        ASSERT_EQ(file.hasIndex(), path == &v2.str());
        ASSERT_EQ(file.length(), total);
        for (const std::uint64_t at : targets) {
            const std::string where =
                *path + " at " + std::to_string(at);
            // seekTo, then a window that crosses the next edge.
            ASSERT_TRUE(file.seekTo(at)) << where;
            expectSameStream(slice(at, 3'000), take(file, 3'000));
            // A region cursor starting there, and its own seek.
            MemoryTraceSource region(file.image(), at, at + 2'000);
            EXPECT_EQ(region.length(), std::min<std::uint64_t>(
                                           2'000, total - at))
                << where;
            expectSameStream(slice(at, 2'000), drain(region));
            if (at >= 2) {
                MemoryTraceSource before(file.image(), at - 2, total);
                ASSERT_TRUE(before.seekTo(2)) << where;
                expectSameStream(slice(at, 100), take(before, 100));
            }
        }
        // The end of the trace is a valid, exhausted position.
        ASSERT_TRUE(file.seekTo(total));
        TraceInst inst;
        EXPECT_FALSE(file.next(inst));
        EXPECT_FALSE(file.seekTo(total + 1));
        // A full linear decode agrees too.
        file.reset();
        expectSameStream(reference, drain(file));
    }
}

TEST(TraceIndex, EncodedImageEqualsRecordedFile)
{
    // One encoder: the image the driver holds and the file `record`
    // writes carry the same payload bytes and the same checkpoints.
    auto params = Workloads::byName("tpcc");
    params.instructions = 2 * TraceFormat::kIndexInterval + 777;
    SyntheticWorkload synth(params);
    const auto image = encodeTrace(synth);
    TempTracePath path("encoded_vs_file");
    recordTrace(synth, path.str());

    std::ifstream in(path.str(), std::ios::binary);
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::size_t header = TraceFormat::kHeaderBytes +
                               image->name.size();
    ASSERT_GE(file.size(), header + image->payload.size());
    EXPECT_EQ(file.substr(header, image->payload.size()),
              std::string(image->payload.begin(),
                          image->payload.end()));

    const auto loaded = loadTrace(path.str());
    EXPECT_EQ(loaded->name, image->name);
    EXPECT_EQ(loaded->instructions, image->instructions);
    EXPECT_EQ(loaded->payload, image->payload);
    EXPECT_EQ(loaded->indexInterval, image->indexInterval);
    ASSERT_EQ(loaded->checkpoints.size(), 2u);
    ASSERT_EQ(image->checkpoints.size(), 2u);
    for (std::size_t j = 0; j < 2; ++j) {
        EXPECT_EQ(loaded->checkpoints[j].offset,
                  image->checkpoints[j].offset);
        EXPECT_EQ(loaded->checkpoints[j].prevNext,
                  image->checkpoints[j].prevNext);
    }
}
