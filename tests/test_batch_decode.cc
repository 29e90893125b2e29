/**
 * @file
 * Property tests pinning the batched decode paths to the scalar
 * next() reference: for every trace source, decodeBatch() and
 * acquireRun() must consume the identical stream next() would, under
 * arbitrary interleavings, mid-batch seeks, checkpoint/restore at
 * positions that are not a multiple of the batch size, and across
 * file-format versions (v2 indexed, v2 footerless, rewritten v1).
 * Inputs are seeded random traces that exercise every record-tag
 * combination the codec has (linked/unlinked, sequential/redirect,
 * forward/backward deltas), not just well-behaved synthetic streams.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "frontend/bundle.hh"
#include "trace/io.hh"
#include "trace/memory.hh"
#include "trace/synthetic.hh"
#include "trace/workload_params.hh"

using namespace acic;

namespace {

class TempTracePath
{
  public:
    explicit TempTracePath(const std::string &tag)
        : path_("acic_batch_" + tag + TraceFormat::suffix())
    {
        std::remove(path_.c_str());
    }
    ~TempTracePath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

/**
 * A seeded random instruction stream hitting every codec tag shape:
 * ~70% linked records (pc continues the chain), ~60% sequential
 * fallthroughs, and the rest jumps with signed deltas both ways.
 */
std::vector<TraceInst>
randomStream(std::uint64_t seed, std::uint64_t n)
{
    Rng rng(seed);
    std::vector<TraceInst> out;
    out.reserve(n);
    Addr prev_next = 0x400000;
    for (std::uint64_t i = 0; i < n; ++i) {
        TraceInst inst;
        inst.pc = rng.chance(0.7)
                      ? prev_next
                      : 0x400000 + rng.nextBelow(1u << 22) * 4;
        inst.kind = static_cast<BranchKind>(rng.nextBelow(5));
        if (rng.chance(0.6)) {
            inst.nextPc = inst.pc + TraceInst::kInstBytes;
            inst.taken = false;
        } else {
            // Forward or backward target, occasionally huge.
            const std::uint64_t span =
                rng.chance(0.1) ? (1u << 30) : (1u << 16);
            inst.nextPc = rng.chance(0.5)
                              ? inst.pc + 4 + rng.nextBelow(span) * 4
                              : inst.pc - rng.nextBelow(span) * 4;
            inst.taken = inst.kind != BranchKind::None;
        }
        out.push_back(inst);
        prev_next = inst.nextPc;
    }
    return out;
}

void
writeStream(const std::vector<TraceInst> &stream,
            const std::string &path, std::uint64_t index_interval)
{
    TraceWriter writer(path, "random", index_interval);
    for (const TraceInst &inst : stream)
        writer.append(inst);
    writer.close();
}

/** Drain a source through decodeBatch() only. */
std::vector<TraceInst>
drainBatched(TraceSource &src)
{
    std::vector<TraceInst> out;
    InstBatch batch;
    while (src.decodeBatch(batch) != 0)
        for (unsigned i = 0; i < batch.count; ++i)
            out.push_back(batch.get(i));
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

/** An image of @p stream, built by the one encoder. */
std::shared_ptr<const TraceImage>
encodeStream(const std::vector<TraceInst> &stream)
{
    TraceEncoder encoder("mem");
    encoder.append(stream.data(), stream.size());
    return encoder.finish();
}

} // namespace

TEST(BatchDecode, BatchedEqualsScalarOnSeededRandomTraces)
{
    for (const std::uint64_t seed : {1u, 7u, 99u}) {
        const auto reference = randomStream(seed, 10'000);
        TempTracePath path("prop" + std::to_string(seed));
        writeStream(reference, path.str(), 1024);

        FileTraceSource scalar(path.str());
        std::vector<TraceInst> via_next;
        TraceInst inst;
        while (scalar.next(inst))
            via_next.push_back(inst);
        expectSameStream(reference, via_next);

        FileTraceSource batched(path.str());
        expectSameStream(reference, drainBatched(batched));
    }
}

TEST(BatchDecode, InterleavedNextAndBatchShareOneCursor)
{
    const auto reference = randomStream(42, 20'000);
    TempTracePath path("interleave");
    writeStream(reference, path.str(), 4096);

    FileTraceSource file(path.str());
    Rng rng(123);
    std::vector<TraceInst> got;
    while (got.size() < reference.size()) {
        if (rng.chance(0.5)) {
            // A random-length scalar pull (possibly zero).
            const std::uint64_t pulls = rng.nextBelow(7);
            TraceInst inst;
            for (std::uint64_t i = 0; i < pulls; ++i)
                if (file.next(inst))
                    got.push_back(inst);
        } else {
            InstBatch batch;
            if (file.decodeBatch(batch) == 0)
                break;
            for (unsigned i = 0; i < batch.count; ++i)
                got.push_back(batch.get(i));
        }
    }
    expectSameStream(reference, got);
}

TEST(BatchDecode, SeekMidBatchRealignsTheBatchedStream)
{
    const auto reference = randomStream(5, 30'000);
    TempTracePath path("seekbatch");
    writeStream(reference, path.str(), 1024);

    FileTraceSource file(path.str());
    // Consume half a batch so the cursor sits mid-buffer, then seek
    // to targets that are deliberately not multiples of 64 (or of
    // the 1024-instruction index interval).
    InstBatch batch;
    ASSERT_EQ(file.decodeBatch(batch), InstBatch::kCapacity);
    for (const std::uint64_t target :
         {std::uint64_t{37}, std::uint64_t{1'000},
          std::uint64_t{1'091}, std::uint64_t{29'999},
          std::uint64_t{17}}) {
        ASSERT_TRUE(file.seekTo(target));
        ASSERT_GT(file.decodeBatch(batch), 0u) << "at " << target;
        for (unsigned i = 0; i < batch.count; ++i) {
            ASSERT_EQ(batch.get(i).pc, reference[target + i].pc)
                << "target " << target << " record " << i;
            ASSERT_EQ(batch.get(i).nextPc,
                      reference[target + i].nextPc)
                << "target " << target << " record " << i;
        }
    }
}

TEST(BatchDecode, FooterlessAndV1FilesBatchIdentically)
{
    const auto reference = randomStream(11, 8'000);

    // Footerless v2: no index, linear seeks only.
    TempTracePath no_footer("nofooter");
    writeStream(reference, no_footer.str(), 0);
    FileTraceSource footerless(no_footer.str());
    ASSERT_FALSE(footerless.hasIndex());
    expectSameStream(reference, drainBatched(footerless));

    // The same payload with the header version rewritten to 1 — a
    // genuine v1 file, which predates batching entirely.
    TempTracePath v1("v1batch");
    writeStream(reference, v1.str(), 0);
    {
        std::fstream f(v1.str(), std::ios::binary | std::ios::in |
                                     std::ios::out);
        ASSERT_TRUE(f.is_open());
        f.seekp(4);
        const char version1[2] = {1, 0};
        f.write(version1, 2);
    }
    FileTraceSource old(v1.str());
    ASSERT_EQ(old.version(), 1u);
    expectSameStream(reference, drainBatched(old));
}

TEST(BatchDecode, WalkerCheckpointAtNonBatchMultipleResumes)
{
    const auto reference = randomStream(77, 12'000);
    TempTracePath path("walkerckpt");
    writeStream(reference, path.str(), 1024);

    // Walk an odd number of variable-width bundles so the walker's
    // consumed count lands at an arbitrary (non-batch-aligned)
    // instruction; restore must resume mid-batch from there.
    FileTraceSource file_a(path.str());
    BundleWalker walker_a(file_a);
    Bundle bundle;
    for (int i = 0; i < 701; ++i)
        ASSERT_TRUE(walker_a.next(bundle));

    Serializer s;
    walker_a.save(s);

    FileTraceSource file_b(path.str());
    BundleWalker walker_b(file_b);
    Deserializer d(s.bytes());
    walker_b.load(d);

    // Both walkers must now emit the identical remaining bundles.
    Bundle ba, bb;
    int remaining = 0;
    for (;;) {
        const bool more_a = walker_a.next(ba);
        const bool more_b = walker_b.next(bb);
        ASSERT_EQ(more_a, more_b) << "bundle " << remaining;
        if (!more_a)
            break;
        ASSERT_EQ(ba.blk, bb.blk) << "bundle " << remaining;
        ASSERT_EQ(ba.pc, bb.pc) << "bundle " << remaining;
        ASSERT_EQ(ba.count, bb.count) << "bundle " << remaining;
        for (unsigned i = 0; i < ba.count; ++i) {
            ASSERT_EQ(ba.insts[i].pc, bb.insts[i].pc)
                << "bundle " << remaining << " inst " << i;
            ASSERT_EQ(ba.insts[i].nextPc, bb.insts[i].nextPc)
                << "bundle " << remaining << " inst " << i;
        }
        ++remaining;
    }
    ASSERT_GT(remaining, 0);
}

TEST(BatchDecode, MemorySourceRunAndBatchMatchScalar)
{
    const auto reference = randomStream(3, 5'000);
    const auto image = encodeStream(reference);

    // decodeBatch drain.
    MemoryTraceSource batched(image);
    expectSameStream(reference, drainBatched(batched));

    // acquireRun: bounded runs, stream position shared with next().
    MemoryTraceSource runs(image);
    std::vector<TraceInst> got;
    Rng rng(9);
    while (got.size() < reference.size()) {
        if (rng.chance(0.3)) {
            TraceInst inst;
            if (runs.next(inst))
                got.push_back(inst);
            continue;
        }
        std::uint64_t n = 0;
        const std::uint64_t max = 1 + rng.nextBelow(200);
        const TraceInst *run = runs.acquireRun(max, n);
        if (run == nullptr)
            break;
        EXPECT_LE(n, max);
        for (std::uint64_t i = 0; i < n; ++i)
            got.push_back(run[i]);
    }
    expectSameStream(reference, got);

    // Exhausted source: empty run, then next() agrees.
    std::uint64_t n = 77;
    EXPECT_EQ(runs.acquireRun(64, n), nullptr);
    EXPECT_EQ(n, 0u);
    TraceInst inst;
    EXPECT_FALSE(runs.next(inst));

    // A region cursor's runs stay inside the region.
    MemoryTraceSource region(image, 1'000, 1'100);
    n = 0;
    const TraceInst *run = region.acquireRun(~std::uint64_t{0}, n);
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(n, 100u);
    EXPECT_EQ(run[0].pc, reference[1'000].pc);
    EXPECT_EQ(region.acquireRun(~std::uint64_t{0}, n), nullptr);
}

TEST(BatchDecode, SyntheticRunsMatchNext)
{
    auto params = Workloads::byName("web_search");
    params.instructions = 10'000;
    SyntheticWorkload reference(params);
    std::vector<TraceInst> expected;
    TraceInst inst;
    while (reference.next(inst))
        expected.push_back(inst);

    // Runs of varying size interleaved with next() play the same
    // stream, and an exhausted generator returns an empty run.
    SyntheticWorkload runs(params);
    std::vector<TraceInst> got;
    std::uint64_t n = 0;
    for (std::uint64_t max = 1;; max = max * 3 + 1) {
        const TraceInst *run = runs.acquireRun(max, n);
        if (run == nullptr)
            break;
        EXPECT_LE(n, max);
        got.insert(got.end(), run, run + n);
        if (runs.next(inst))
            got.push_back(inst);
    }
    EXPECT_EQ(n, 0u);
    expectSameStream(expected, got);
}
