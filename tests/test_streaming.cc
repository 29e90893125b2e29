/**
 * @file
 * Streaming-trace battery (DESIGN.md section 12): the bounded SPSC
 * chunk ring (seeded-schedule property tests: record occupancy
 * bounded by capacity, no drop/dup/reorder under randomized
 * producer/consumer stalls, event-driven stop wakeups, the oversized
 * chunk escape hatch), the framed stream format (round trips bit-for-bit against
 * the file-sourced record sequence; torn frames, garbage prefixes,
 * and record-count mismatches raise the named trace errors with byte
 * offsets), the StreamTee fan-out (cursor equality, bounded backlog
 * under trim, acquireRun pinning), the FileTraceSource truncation
 * contract (satellite of the same failure taxonomy), and full
 * engine-on-stream vs engine-on-file statistics identity.
 */

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "driver/emitters.hh"
#include "sim/engine.hh"
#include "sim/scheme.hh"
#include "trace/errors.hh"
#include "trace/io.hh"
#include "trace/memory.hh"
#include "trace/streaming.hh"
#include "trace/synthetic.hh"

using namespace acic;

namespace fs = std::filesystem;

namespace {

fs::path
tempDir()
{
    static const fs::path dir = [] {
        fs::path d = fs::temp_directory_path() /
                     ("acic_streaming_" +
                      std::to_string(::getpid()));
        fs::create_directories(d);
        return d;
    }();
    return dir;
}

/** Deterministic pseudo-random instruction sequence exercising every
 *  record shape: linked/unlinked pc, sequential/redirecting nextPc,
 *  all branch kinds, large deltas. */
std::vector<TraceInst>
makeInsts(std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<TraceInst> out;
    out.reserve(n);
    Addr prev_next = 0;
    for (std::size_t i = 0; i < n; ++i) {
        TraceInst inst;
        const bool linked = rng() % 4 != 0;
        inst.pc = linked ? prev_next
                         : (rng() % (1u << 20)) * 4 + 0x400000;
        inst.kind = static_cast<BranchKind>(rng() % 5);
        inst.taken = inst.kind != BranchKind::None && rng() % 2;
        const bool sequential = rng() % 3 != 0;
        inst.nextPc = sequential
                          ? inst.pc + TraceInst::kInstBytes
                          : (rng() % (1u << 20)) * 4 + 0x400000;
        prev_next = inst.nextPc;
        out.push_back(inst);
    }
    return out;
}

/** An in-memory image of @p insts. */
std::shared_ptr<const TraceImage>
encodeInsts(const std::vector<TraceInst> &insts, const std::string &name)
{
    TraceEncoder encoder(name);
    encoder.append(insts.data(), insts.size());
    return encoder.finish();
}

/** Frame @p insts into a byte string (default frame size unless
 *  given). */
std::string
frameToString(const std::vector<TraceInst> &insts,
              const std::string &name,
              std::uint32_t frame_records = 512)
{
    std::ostringstream bytes(std::ios::binary);
    StreamTraceWriter writer(bytes, name, frame_records);
    for (const TraceInst &inst : insts)
        writer.append(inst);
    writer.finish();
    return bytes.str();
}

std::string
writeBytes(const std::string &bytes, const std::string &file)
{
    const fs::path path = tempDir() / file;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    return path.string();
}

/** Drain a source through next(). */
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
expectSame(const std::vector<TraceInst> &a,
           const std::vector<TraceInst> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pc, b[i].pc) << "record " << i;
        ASSERT_EQ(a[i].nextPc, b[i].nextPc) << "record " << i;
        ASSERT_EQ(a[i].kind, b[i].kind) << "record " << i;
        ASSERT_EQ(a[i].taken, b[i].taken) << "record " << i;
    }
}

} // namespace

// -------------------------------------------------- SpscChunkRing battery

namespace {

/** Build one immutable chunk whose records tag their absolute
 *  position in the sequence. */
std::shared_ptr<const StreamChunk>
makeChunk(std::size_t base, std::size_t n)
{
    auto chunk = std::make_shared<StreamChunk>();
    chunk->data.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        chunk->data[i].pc = base + i;
        chunk->data[i].nextPc = (base + i) * 2;
    }
    return chunk;
}

/** One backpressure schedule: a producer thread pushing chunks of a
 *  tagged sequence with seeded stalls, a consumer popping chunks
 *  with its own seeded stalls. Verifies the full
 *  no-drop/no-dup/no-reorder property and the record-count occupancy
 *  bound (chunks never exceed the capacity here, so the oversized
 *  escape hatch stays cold). */
void
runRingSchedule(std::uint64_t seed, std::size_t capacity,
                std::size_t total, std::size_t max_chunk,
                unsigned producer_stall_us,
                unsigned consumer_stall_us)
{
    SpscChunkRing ring(capacity);
    std::thread producer([&] {
        std::mt19937_64 rng(seed);
        std::size_t sent = 0;
        while (sent < total) {
            std::size_t n = rng() % max_chunk + 1;
            if (n > total - sent)
                n = total - sent;
            ASSERT_TRUE(ring.push(makeChunk(sent, n)));
            sent += n;
            if (producer_stall_us && rng() % 4 == 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(rng() %
                                              producer_stall_us));
        }
        ring.closeProducer();
    });

    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::size_t received = 0;
    while (auto chunk = ring.pop()) {
        ASSERT_FALSE(chunk->data.empty());
        for (std::size_t i = 0; i < chunk->data.size(); ++i) {
            ASSERT_EQ(chunk->data[i].pc, received + i)
                << "dropped/duplicated/reordered record";
            ASSERT_EQ(chunk->data[i].nextPc, (received + i) * 2);
        }
        received += chunk->data.size();
        if (consumer_stall_us && rng() % 4 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(
                rng() % consumer_stall_us));
    }
    producer.join();
    EXPECT_EQ(received, total);
    EXPECT_LE(ring.maxOccupancy(), ring.capacity());
    EXPECT_GT(ring.maxOccupancy(), 0u);
}

} // namespace

TEST(SpscChunkRing, BalancedSchedulePreservesSequence)
{
    runRingSchedule(1, 256, 20000, 96, 0, 0);
}

TEST(SpscChunkRing, SlowConsumerBackpressure)
{
    // The producer outruns the consumer: pushes must block at the
    // record-count capacity bound, never overwrite.
    runRingSchedule(2, 64, 8000, 48, 0, 40);
}

TEST(SpscChunkRing, SlowProducerStarvation)
{
    // The consumer outruns the producer: pops must block on empty,
    // never fabricate or re-deliver chunks.
    runRingSchedule(3, 64, 8000, 48, 40, 0);
}

TEST(SpscChunkRing, JitterBothSides)
{
    runRingSchedule(4, 32, 6000, 24, 25, 25);
}

TEST(SpscChunkRing, TinyCapacityLockstep)
{
    runRingSchedule(5, 2, 3000, 2, 10, 10);
}

TEST(SpscChunkRing, OversizedChunkAdmittedIntoEmptyRingOnly)
{
    // A chunk larger than the whole capacity must still make
    // progress — but only through an otherwise-empty ring, so the
    // memory bound degrades to one chunk, never capacity + chunk.
    SpscChunkRing ring(4);
    ASSERT_TRUE(ring.push(makeChunk(0, 2)));
    std::atomic<bool> oversized_in{false};
    std::thread producer([&] {
        ASSERT_TRUE(ring.push(makeChunk(2, 10))); // blocks: not empty
        oversized_in.store(true);
        ring.closeProducer();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(oversized_in.load())
        << "oversized chunk entered a non-empty ring";
    auto small = ring.pop();
    ASSERT_TRUE(small);
    EXPECT_EQ(small->data.size(), 2u);
    auto big = ring.pop(); // unblocks the producer
    ASSERT_TRUE(big);
    EXPECT_EQ(big->data.size(), 10u);
    EXPECT_EQ(big->data[0].pc, 2u);
    producer.join();
    EXPECT_TRUE(oversized_in.load());
    EXPECT_FALSE(ring.pop());
    EXPECT_EQ(ring.maxOccupancy(), 10u); // the one-chunk degradation
}

TEST(SpscChunkRing, StopFlagAbortsBothSides)
{
    std::atomic<bool> stop{false};
    SpscChunkRing ring(4, &stop);
    ASSERT_TRUE(ring.push(makeChunk(0, 4))); // fills to capacity
    stop.store(true);
    // Producer: a full ring would block forever; the flag aborts.
    EXPECT_FALSE(ring.push(makeChunk(4, 1)));
    // Consumer: buffered chunks still drain, then null (not a hang).
    auto chunk = ring.pop();
    ASSERT_TRUE(chunk);
    EXPECT_EQ(chunk->data.size(), 4u);
    EXPECT_FALSE(ring.pop());
}

TEST(SpscChunkRing, NotifyStopWakesBlockedConsumer)
{
    // The shutdown relay: a consumer parked on an empty ring (a pure
    // CV sleep — there are no poll ticks to bail it out) must be
    // woken by the flag + notifyStop() pair and see end-of-stream.
    std::atomic<bool> stop{false};
    SpscChunkRing ring(16, &stop);
    std::atomic<bool> woke{false};
    std::thread consumer([&] {
        EXPECT_FALSE(ring.pop());
        woke.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(woke.load());
    stop.store(true);
    ring.notifyStop();
    consumer.join();
    EXPECT_TRUE(woke.load());
}

TEST(SpscChunkRing, FailureDrainsBufferedThenThrows)
{
    SpscChunkRing ring(16);
    ASSERT_TRUE(ring.push(makeChunk(7, 3)));
    ring.fail(std::make_exception_ptr(
        TraceFormatError("injected", 99)));
    // The chunks buffered before the failure arrive intact...
    auto chunk = ring.pop();
    ASSERT_TRUE(chunk);
    EXPECT_EQ(chunk->data.size(), 3u);
    EXPECT_EQ(chunk->data[0].pc, 7u);
    // ...and only then does the stored error surface.
    try {
        ring.pop();
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.offset(), 99u);
    }
}

// --------------------------------------------------- stream format battery

TEST(StreamFormat, RoundTripsRandomRecords)
{
    const auto insts = makeInsts(10000, 42);
    const std::string path = writeBytes(
        frameToString(insts, "roundtrip", 333), "roundtrip.acis");
    auto src = StreamingTraceSource::openPath(path, 1024);
    EXPECT_EQ(src->name(), "roundtrip");
    const auto got = drain(*src);
    expectSame(insts, got);
    EXPECT_TRUE(src->sawEndOfStream());
    EXPECT_EQ(src->streamTotal(), insts.size());
    EXPECT_EQ(src->length(), insts.size());
    EXPECT_LE(src->ringMaxOccupancy(), src->ringCapacity());
}

TEST(StreamFormat, StreamedEqualsFileSourced)
{
    // The headline bit-for-bit property: framing a recorded trace
    // and streaming it back yields the identical record sequence the
    // file reader decodes.
    WorkloadParams params = Workloads::datacenter().front();
    params.instructions = 60000;
    SyntheticWorkload synth(params);
    const std::string trace_path =
        (tempDir() / "streamed_eq.acictrace").string();
    recordTrace(synth, trace_path);

    FileTraceSource file(trace_path);
    std::ostringstream bytes(std::ios::binary);
    {
        StreamTraceWriter writer(bytes, file.name(), 4096);
        TraceInst inst;
        while (file.next(inst))
            writer.append(inst);
        writer.finish();
    }
    file.reset();
    const std::string stream_path =
        writeBytes(bytes.str(), "streamed_eq.acis");

    auto streamed = StreamingTraceSource::openPath(stream_path);
    EXPECT_EQ(streamed->name(), file.name());
    expectSame(drain(file), drain(*streamed));
}

TEST(StreamFormat, DecodeBatchMatchesNext)
{
    const auto insts = makeInsts(5000, 7);
    const std::string bytes = frameToString(insts, "batch", 100);
    auto a = StreamingTraceSource::openPath(
        writeBytes(bytes, "batch_a.acis"));
    auto b = StreamingTraceSource::openPath(
        writeBytes(bytes, "batch_b.acis"));
    // Interleave entry points on one source; compare against pure
    // next() on the other.
    std::vector<TraceInst> via_batch;
    InstBatch batch;
    TraceInst single;
    bool use_batch = true;
    for (;;) {
        if (use_batch) {
            if (a->decodeBatch(batch) == 0)
                break;
            for (unsigned i = 0; i < batch.count; ++i)
                via_batch.push_back(batch.get(i));
        } else {
            if (!a->next(single))
                break;
            via_batch.push_back(single);
        }
        use_batch = !use_batch;
    }
    expectSame(drain(*b), via_batch);
}

TEST(StreamFormat, EmptyStreamIsValid)
{
    const std::string path = writeBytes(
        frameToString({}, "empty"), "empty.acis");
    auto src = StreamingTraceSource::openPath(path);
    TraceInst inst;
    EXPECT_FALSE(src->next(inst));
    EXPECT_TRUE(src->sawEndOfStream());
    EXPECT_EQ(src->length(), 0u);
}

TEST(StreamFormat, ResetBeforeConsumptionOnly)
{
    const auto insts = makeInsts(10, 11);
    auto src = StreamingTraceSource::openPath(
        writeBytes(frameToString(insts, "reset"), "reset.acis"));
    src->reset(); // no-op before the first record
    EXPECT_EQ(drain(*src).size(), insts.size());
}

// ------------------------------------------------ malformed-stream battery

namespace {

/** Open truncated/corrupted stream bytes and consume; returns the
 *  caught error message, failing the test when no TraceFormatError
 *  surfaces. Header damage throws from the constructor, frame
 *  damage from the consuming loop — both paths land here. */
std::string
expectStreamError(const std::string &bytes, const std::string &file,
                  bool *was_truncation = nullptr)
{
    const std::string path = writeBytes(bytes, file);
    try {
        auto src = StreamingTraceSource::openPath(path, 512);
        drain(*src);
    } catch (const TraceTruncatedError &e) {
        if (was_truncation)
            *was_truncation = true;
        return e.what();
    } catch (const TraceFormatError &e) {
        if (was_truncation)
            *was_truncation = false;
        return e.what();
    }
    ADD_FAILURE() << file
                  << ": malformed stream consumed without error";
    return "";
}

} // namespace

TEST(StreamErrors, EofWithoutEosFrameIsTruncation)
{
    // Producer death after a complete frame: everything decodes,
    // then the missing EOS frame is reported as truncation.
    std::string bytes = frameToString(makeInsts(600, 1), "t", 512);
    bytes.resize(bytes.size() - StreamFormat::kFrameHeaderBytes);
    bool truncation = false;
    const std::string msg =
        expectStreamError(bytes, "no_eos.acis", &truncation);
    EXPECT_TRUE(truncation) << msg;
    EXPECT_NE(msg.find("end-of-stream"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte offset"), std::string::npos) << msg;
}

TEST(StreamErrors, TornFrameHeaderIsTruncation)
{
    std::string bytes = frameToString(makeInsts(600, 2), "t", 512);
    // Cut inside the *second* frame's header.
    const std::size_t header_bytes = StreamFormat::kHeaderBytes + 1;
    bytes.resize(header_bytes + StreamFormat::kFrameHeaderBytes + 7);
    bool truncation = false;
    const std::string msg =
        expectStreamError(bytes, "torn_header.acis", &truncation);
    EXPECT_TRUE(truncation) << msg;
}

TEST(StreamErrors, TornFramePayloadIsTruncation)
{
    std::string bytes = frameToString(makeInsts(600, 3), "t", 512);
    // Cut mid-payload of the first frame.
    bytes.resize(StreamFormat::kHeaderBytes + 1 +
                 StreamFormat::kFrameHeaderBytes + 40);
    bool truncation = false;
    const std::string msg =
        expectStreamError(bytes, "torn_payload.acis", &truncation);
    EXPECT_TRUE(truncation) << msg;
    EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
}

TEST(StreamErrors, GarbagePrefixIsFormatError)
{
    std::string bytes = frameToString(makeInsts(10, 4), "t");
    bytes[0] ^= 0x5a; // corrupt the stream magic
    bool truncation = true;
    const std::string msg =
        expectStreamError(bytes, "bad_magic.acis", &truncation);
    EXPECT_FALSE(truncation) << msg;
    EXPECT_NE(msg.find("magic"), std::string::npos) << msg;
}

TEST(StreamErrors, BadVersionIsFormatError)
{
    std::string bytes = frameToString(makeInsts(10, 5), "t");
    bytes[4] = 9; // version field
    const std::string msg =
        expectStreamError(bytes, "bad_version.acis");
    EXPECT_NE(msg.find("version"), std::string::npos) << msg;
}

TEST(StreamErrors, BadFrameMagicIsFormatError)
{
    std::string bytes = frameToString(makeInsts(10, 6), "t");
    bytes[StreamFormat::kHeaderBytes + 1] ^= 0xff; // frame magic
    const std::string msg =
        expectStreamError(bytes, "bad_frame.acis");
    EXPECT_NE(msg.find("frame magic"), std::string::npos) << msg;
}

TEST(StreamErrors, EosCountMismatchIsFormatError)
{
    std::string bytes = frameToString(makeInsts(100, 7), "t", 512);
    // The EOS total is the trailing u64; perturb it.
    bytes[bytes.size() - 8] ^= 0x01;
    const std::string msg =
        expectStreamError(bytes, "eos_mismatch.acis");
    EXPECT_NE(msg.find("count mismatch"), std::string::npos) << msg;
}

TEST(StreamErrors, FuzzTruncationAtEveryRegionRaisesNamedError)
{
    // Sweep cuts across the whole stream: every prefix length must
    // produce a *named* trace error (or decode cleanly only when the
    // cut lands exactly at end-of-stream), never hang, crash, or
    // silently deliver a short sequence.
    const std::string bytes =
        frameToString(makeInsts(300, 8), "fuzz", 64);
    std::mt19937_64 rng(99);
    for (int i = 0; i < 40; ++i) {
        const std::size_t cut = rng() % (bytes.size() - 1);
        expectStreamError(bytes.substr(0, cut),
                          "fuzz_" + std::to_string(i) + ".acis");
    }
}

// --------------------------------------- FileTraceSource error satellites

TEST(TraceFileErrors, TruncatedFileRaisesNamedErrorFromNext)
{
    const auto insts = makeInsts(4000, 21);
    const std::string path =
        (tempDir() / "trunc_next.acictrace").string();
    {
        TraceWriter writer(path, "trunc", 0);
        for (const TraceInst &inst : insts)
            writer.append(inst);
        writer.close();
    }
    // Chop the record payload (header is 20 + 5 name bytes).
    fs::resize_file(path, fs::file_size(path) / 2);
    FileTraceSource src(path);
    try {
        drain(src);
        FAIL() << "expected TraceTruncatedError";
    } catch (const TraceTruncatedError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("byte offset"), std::string::npos) << msg;
        EXPECT_GT(e.offset(), 0u);
        EXPECT_EQ(e.expectedBytes(), 1u);
    }
}

TEST(TraceFileErrors, TruncatedFileRaisesNamedErrorFromBatch)
{
    const auto insts = makeInsts(4000, 22);
    const std::string path =
        (tempDir() / "trunc_batch.acictrace").string();
    {
        TraceWriter writer(path, "trunc", 0);
        for (const TraceInst &inst : insts)
            writer.append(inst);
        writer.close();
    }
    fs::resize_file(path, fs::file_size(path) / 2);
    FileTraceSource src(path);
    InstBatch batch;
    EXPECT_THROW(
        {
            while (src.decodeBatch(batch) > 0) {
            }
        },
        TraceTruncatedError);
}

TEST(TraceFileErrors, CorruptKindRaisesFormatErrorWithOffset)
{
    const std::string path =
        (tempDir() / "bad_kind.acictrace").string();
    {
        TraceWriter writer(path, "k", 0);
        TraceInst inst;
        inst.pc = 0x1000;
        inst.nextPc = inst.pc + 4;
        writer.append(inst);
        writer.close();
    }
    // Payload starts at 20 + 1 name byte; the single record is one
    // tag byte. Kind 7 is out of range (BranchKind tops out at 4).
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(21);
    const char bad = 0x07;
    f.write(&bad, 1);
    f.close();
    FileTraceSource src(path);
    try {
        drain(src);
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("branch kind"), std::string::npos) << msg;
        EXPECT_NE(msg.find("offset 21"), std::string::npos) << msg;
    }
}

// -------------------------------------------------------- StreamTee battery

TEST(StreamTee, CursorsSeeIdenticalSequences)
{
    const auto insts = makeInsts(20000, 31);
    MemoryTraceSource upstream(encodeInsts(insts, "tee"));
    StreamTee tee(upstream, 3, 512);

    // Cursor 0 drains via next(), cursor 1 via decodeBatch, cursor 2
    // via acquireRun — all three must deliver the upstream sequence.
    std::vector<TraceInst> a = drain(tee.cursor(0));

    std::vector<TraceInst> b;
    InstBatch batch;
    while (tee.cursor(1).decodeBatch(batch) > 0)
        for (unsigned i = 0; i < batch.count; ++i)
            b.push_back(batch.get(i));

    std::vector<TraceInst> c;
    for (;;) {
        std::uint64_t n = 0;
        const TraceInst *run = tee.cursor(2).acquireRun(1000, n);
        if (!run || n == 0)
            break;
        c.insert(c.end(), run, run + n);
    }

    expectSame(insts, a);
    expectSame(insts, b);
    expectSame(insts, c);
}

TEST(StreamTee, LockstepTrimBoundsBacklog)
{
    const auto insts = makeInsts(50000, 32);
    MemoryTraceSource upstream(encodeInsts(insts, "tee"));
    const std::size_t chunk = 256;
    StreamTee tee(upstream, 2, chunk);

    TraceInst inst;
    std::uint64_t consumed = 0;
    std::uint64_t max_backlog = 0;
    while (tee.cursor(0).next(inst)) {
        ASSERT_TRUE(tee.cursor(1).next(inst));
        ++consumed;
        if (consumed % 64 == 0) {
            tee.trim();
            max_backlog = std::max(
                max_backlog,
                tee.bufferedEnd() - tee.bufferedStart());
        }
    }
    EXPECT_EQ(consumed, insts.size());
    // Lockstep + trim: the live window stays O(chunk + one decode
    // batch), nowhere near the stream length.
    EXPECT_LE(max_backlog, 2 * chunk + InstBatch::kCapacity);
}

TEST(StreamTee, AcquireRunSurvivesTrim)
{
    const auto insts = makeInsts(4000, 33);
    MemoryTraceSource upstream(encodeInsts(insts, "tee"));
    StreamTee tee(upstream, 1, 128);

    std::uint64_t n = 0;
    const TraceInst *run = tee.cursor(0).acquireRun(64, n);
    ASSERT_NE(run, nullptr);
    ASSERT_GT(n, 0u);
    const TraceInst first = run[0];
    // Consume far past the run's chunk and trim; the pinned chunk
    // must keep the acquired pointer valid.
    TraceInst inst;
    for (int i = 0; i < 2000; ++i)
        ASSERT_TRUE(tee.cursor(0).next(inst));
    tee.trim();
    EXPECT_EQ(run[0].pc, first.pc);
    EXPECT_EQ(run[0].nextPc, first.nextPc);
}

TEST(StreamTee, LaggingCursorHoldsBacklog)
{
    const auto insts = makeInsts(10000, 34);
    MemoryTraceSource upstream(encodeInsts(insts, "tee"));
    StreamTee tee(upstream, 2, 256);

    // Cursor 0 races ahead; cursor 1 stays at zero, so trim() must
    // retain everything.
    drain(tee.cursor(0));
    tee.trim();
    EXPECT_EQ(tee.bufferedStart(), 0u);
    expectSame(insts, drain(tee.cursor(1)));
    tee.trim();
    EXPECT_EQ(tee.bufferedStart(), tee.bufferedEnd());
}

TEST(StreamTee, AdoptsStreamChunksZeroCopy)
{
    // The zero-copy fast path: a tee over a ChunkedTraceSource
    // adopts the reader thread's frame-shaped chunks as-is, so a
    // cursor's acquireRun() hands back whole frames — 512 records
    // per run here, not the tee's own (much larger) staging size,
    // and never an InstBatch-sized sliver.
    const std::size_t frame = 512;
    const auto insts = makeInsts(4 * frame + 100, 51);
    const std::string path = writeBytes(
        frameToString(insts, "zcopy", frame), "zcopy.acis");
    auto src = StreamingTraceSource::openPath(path, 4096);
    StreamTee tee(*src, 1);

    std::vector<TraceInst> got;
    std::vector<std::uint64_t> run_sizes;
    for (;;) {
        std::uint64_t n = 0;
        const TraceInst *run =
            tee.cursor(0).acquireRun(~0ull, n);
        if (!run || n == 0)
            break;
        run_sizes.push_back(n);
        got.insert(got.end(), run, run + n);
    }
    expectSame(insts, got);
    ASSERT_EQ(run_sizes.size(), 5u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(run_sizes[i], frame)
            << "run " << i << " is not frame-shaped: the tee copied "
            << "instead of adopting";
    EXPECT_EQ(run_sizes[4], 100u);
}

TEST(StreamTee, ConcurrentCursorsDrainIdentically)
{
    // The serve parallel-round shape: N cursors driven from N
    // threads over one live streaming source, each through a
    // different supply API, with trim() running concurrently from a
    // fifth thread — every cursor must deliver the full sequence.
    const auto insts = makeInsts(40000, 52);
    const std::string path = writeBytes(
        frameToString(insts, "mt", 1024), "mt_cursors.acis");
    auto src = StreamingTraceSource::openPath(path, 8192);
    StreamTee tee(*src, 4);

    std::vector<std::vector<TraceInst>> got(4);
    std::atomic<unsigned> done{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < 4; ++c) {
        threads.emplace_back([&, c] {
            StreamTee::Cursor &cur = tee.cursor(c);
            std::vector<TraceInst> &out = got[c];
            out.reserve(insts.size());
            if (c == 0) {
                TraceInst inst;
                while (cur.next(inst))
                    out.push_back(inst);
            } else if (c == 1) {
                InstBatch batch;
                while (cur.decodeBatch(batch) > 0)
                    for (unsigned i = 0; i < batch.count; ++i)
                        out.push_back(batch.get(i));
            } else if (c == 2) {
                for (;;) {
                    std::uint64_t n = 0;
                    const TraceInst *run = cur.acquireRun(777, n);
                    if (!run || n == 0)
                        break;
                    out.insert(out.end(), run, run + n);
                }
            } else {
                // Mixed entry points, alternating per call.
                InstBatch batch;
                TraceInst inst;
                bool use_batch = true;
                for (;;) {
                    if (use_batch) {
                        if (cur.decodeBatch(batch) == 0)
                            break;
                        for (unsigned i = 0; i < batch.count; ++i)
                            out.push_back(batch.get(i));
                    } else {
                        if (!cur.next(inst))
                            break;
                        out.push_back(inst);
                    }
                    use_batch = !use_batch;
                }
            }
            done.fetch_add(1);
        });
    }
    while (done.load() < 4) {
        tee.trim();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::thread &t : threads)
        t.join();
    tee.trim();
    for (unsigned c = 0; c < 4; ++c)
        expectSame(insts, got[c]);
    EXPECT_EQ(tee.bufferedStart(), tee.bufferedEnd());
}

// ------------------------------------------- engine-on-stream equivalence

TEST(StreamingEngine, StreamAndFileRunsAreStatIdentical)
{
    // The acceptance property behind `acic_run serve`: one engine
    // driven through the streaming source + tee must finish with the
    // byte-identical statistics of the same engine on the recorded
    // file (no oracle on either side — a single-pass stream cannot
    // build one).
    WorkloadParams params = Workloads::datacenter().front();
    params.instructions = 120000;
    SyntheticWorkload synth(params);
    const std::string trace_path =
        (tempDir() / "engine_eq.acictrace").string();
    recordTrace(synth, trace_path);

    const SimConfig config;
    const std::uint64_t total = 120000;
    const std::uint64_t warm = total / 10;

    const auto run_file = [&](const char *scheme) {
        FileTraceSource file(trace_path);
        auto org = makeScheme(parseScheme(scheme), config);
        SimEngine engine(config, file, *org, nullptr);
        engine.warmUp(warm);
        engine.measure(total - warm);
        std::ostringstream dump;
        writeGoldenDump(dump, engine.finish());
        return dump.str();
    };
    const auto run_stream = [&](const char *scheme) {
        FileTraceSource file(trace_path);
        std::ostringstream bytes(std::ios::binary);
        {
            StreamTraceWriter writer(bytes, file.name(), 1024);
            TraceInst inst;
            while (file.next(inst))
                writer.append(inst);
            writer.finish();
        }
        auto streamed = StreamingTraceSource::openPath(
            writeBytes(bytes.str(), "engine_eq.acis"), 4096);
        StreamTee tee(*streamed, 1);
        auto org = makeScheme(parseScheme(scheme), config);
        SimEngine engine(config, tee.cursor(0), *org, nullptr);
        engine.warmUp(warm);
        // Chunked measure, as the serve loop steps it.
        std::uint64_t target = warm;
        while (target < total) {
            const std::uint64_t step =
                std::min<std::uint64_t>(7000, total - target);
            engine.measure(step);
            target += step;
            tee.trim();
        }
        std::ostringstream dump;
        writeGoldenDump(dump, engine.finish());
        return dump.str();
    };

    for (const char *scheme : {"lru", "acic"}) {
        const std::string file_dump = run_file(scheme);
        EXPECT_EQ(file_dump, run_stream(scheme)) << scheme;
        EXPECT_NE(file_dump.find("instructions 108000"),
                  std::string::npos);
    }
}

