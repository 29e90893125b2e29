/**
 * @file
 * Checkpoint/resume correctness battery (the crash-safety acceptance
 * bar of the distributed-sweep work):
 *
 *  - Round-trip property over every registered scheme preset:
 *    serialize a mid-measure engine, load it into a freshly
 *    constructed engine in pristine state, run both to completion,
 *    and diff the complete writeGoldenDump() statistics byte for
 *    byte against the uninterrupted run — at seeded-random
 *    checkpoint instants, so the cut point is not a lucky boundary.
 *  - Container hardening: bit flips (CRC), truncation, bad magic,
 *    foreign version, wrong payload tag — each must be rejected
 *    with its own diagnostic, never silently loaded.
 *  - Identity hardening: a checkpoint taken over one workload or
 *    scheme must refuse to resume a different one.
 *  - Format pins: CRC-32 known answers and a byte-at-a-time
 *    reference at every short length and alignment, and the length
 *    and CRC of one engine image recorded from version 1 of the
 *    format, so a faster writer cannot change a byte on disk.
 *  - Driver checkpointing: completed cells persist into
 *    --checkpoint-dir files, a rerun preloads them bit-identically
 *    without resimulating, and shard partitions are disjoint,
 *    covering, and cell-for-cell equal to the monolithic run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__)
#include <csignal>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/serialize.hh"
#include "driver/emitters.hh"
#include "driver/experiment.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "sim/scheme.hh"
#include "trace/workload_params.hh"

using namespace acic;

namespace {

/** One shared workload for the whole suite (materialized once). */
const SharedWorkload &
workload()
{
    static const SharedWorkload *shared = [] {
        WorkloadParams params = Workloads::byName("web_search");
        params.instructions = 50'000;
        return new SharedWorkload(params);
    }();
    return *shared;
}

std::string
golden(const SimResult &result)
{
    std::ostringstream out;
    writeGoldenDump(out, result);
    return out.str();
}

std::uint64_t
warmupOf(const SharedWorkload &shared)
{
    return static_cast<std::uint64_t>(
        static_cast<double>(shared.instructions()) *
        shared.config().warmupFraction);
}

/**
 * Run @p spec with a checkpoint at @p cut measured instructions: the
 * first engine stops mid-measure and serializes, a second engine —
 * fresh organization, fresh trace cursor, nothing carried over but
 * the byte stream — loads and finishes the run. Both engines predict
 * branches live, or both read @p branches.
 */
SimResult
runWithCheckpoint(const SharedWorkload &shared,
                  const SchemeSpec &spec, std::uint64_t cut,
                  const BranchTable *branches = nullptr)
{
    const std::uint64_t warm = warmupOf(shared);
    const std::uint64_t measured = shared.instructions() - warm;

    Serializer s;
    {
        auto org = makeScheme(spec, shared.config());
        MemoryTraceSource cursor = shared.source();
        SimEngine engine(shared.config(), cursor, *org,
                         &shared.oracle(), branches);
        engine.warmUp(warm);
        engine.measure(cut);
        engine.save(s);
    }
    auto org = makeScheme(spec, shared.config());
    MemoryTraceSource cursor = shared.source();
    SimEngine engine(shared.config(), cursor, *org,
                     &shared.oracle(), branches);
    Deserializer d(s.bytes());
    engine.load(d);
    d.finish();
    engine.measure(measured - cut);
    return engine.finish();
}

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path,
         const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(CheckpointRoundTrip, EveryPresetBitIdenticalAtRandomInstants)
{
    const SharedWorkload &shared = workload();
    const std::uint64_t measured =
        shared.instructions() - warmupOf(shared);
    ASSERT_GT(measured, 2u);

    // Seeded, so failures replay; distinct per-preset instants, so
    // one lucky cut cannot mask a phase-dependent bug. Each cut
    // round-trips a live-predicting engine and a table-driven one.
    std::mt19937_64 rng(0xAC1CAC1Cull);
    for (const SchemeSpec &spec : allSchemes()) {
        const SimResult whole = shared.run(spec);
        const std::uint64_t cut = 1 + rng() % (measured - 1);
        const SimResult live = runWithCheckpoint(shared, spec, cut);
        EXPECT_EQ(golden(whole), golden(live))
            << spec.toString() << " diverged after resuming at "
            << cut << " measured instructions";
        const SimResult tabled =
            runWithCheckpoint(shared, spec, cut, &shared.branchTable());
        EXPECT_EQ(golden(whole), golden(tabled))
            << spec.toString() << " (branch table) diverged after "
            << "resuming at " << cut << " measured instructions";
    }
}

TEST(CheckpointRoundTrip, ChunkedCheckpointsComposeAcrossManyCuts)
{
    // Several checkpoints in one run (the --checkpoint-every loop):
    // save/load at every chunk boundary, each into a fresh engine.
    const SharedWorkload &shared = workload();
    const SchemeSpec spec = parseScheme("acic");
    const std::uint64_t warm = warmupOf(shared);
    const std::uint64_t measured = shared.instructions() - warm;
    const SimResult whole = shared.run(spec);

    const std::uint64_t chunk = measured / 5 + 1;
    auto org = makeScheme(spec, shared.config());
    MemoryTraceSource cursor = shared.source();
    auto engine = std::make_unique<SimEngine>(
        shared.config(), cursor, *org, &shared.oracle());
    engine->warmUp(warm);
    std::uint64_t done = 0;
    while (done < measured) {
        const std::uint64_t step = std::min(chunk, measured - done);
        engine->measure(step);
        done += step;
        Serializer s;
        engine->save(s);
        engine.reset(); // before its org and cursor are replaced
        org = makeScheme(spec, shared.config());
        cursor = shared.source();
        engine = std::make_unique<SimEngine>(
            shared.config(), cursor, *org, &shared.oracle());
        Deserializer d(s.bytes());
        engine->load(d);
        d.finish();
    }
    EXPECT_EQ(golden(whole), golden(engine->finish()));
}

TEST(CheckpointRoundTrip, RunCheckpointedResumesFromInflightFile)
{
    // The driver-facing primitive: interrupt by saving an in-flight
    // file mid-run, then let the one run function find and finish
    // it. run() drives wholeRun() from the shared branch table, so
    // the interrupted engine does too.
    const SharedWorkload &shared = workload();
    const SchemeSpec spec = parseScheme("lru");
    const std::string path = "acic_test_inflight.ckpt";
    std::remove(path.c_str());

    const std::uint64_t warm = warmupOf(shared);
    {
        auto org = makeScheme(spec, shared.config());
        MemoryTraceSource cursor = shared.source();
        SimEngine engine(shared.config(), cursor, *org,
                         &shared.oracle(), &shared.branchTable());
        engine.warmUp(warm);
        engine.measure(7'321);
        engine.saveCheckpoint(path);
    }
    auto org = makeScheme(spec, shared.config());
    const InflightCheckpoint inflight{path, 10'000};
    const SimResult resumed =
        shared.run(*org, shared.wholeRun(), nullptr, &inflight);
    EXPECT_EQ(golden(shared.run(spec)), golden(resumed));
    std::remove(path.c_str());
}

TEST(CheckpointContainer, CorruptionAndFormatErrorsAreDistinct)
{
    const SharedWorkload &shared = workload();
    const SchemeSpec spec = parseScheme("lru");
    const std::string path = "acic_test_container.ckpt";
    {
        auto org = makeScheme(spec, shared.config());
        MemoryTraceSource cursor = shared.source();
        SimEngine engine(shared.config(), cursor, *org,
                         &shared.oracle());
        engine.warmUp(warmupOf(shared));
        engine.measure(1'000);
        engine.saveCheckpoint(path);
    }
    const std::vector<std::uint8_t> intact = readAll(path);
    ASSERT_GT(intact.size(), CheckpointFormat::kHeaderBytes);

    const auto expectError = [&](const std::string &what) {
        try {
            readCheckpointFile(path, SimEngine::kCheckpointTag);
            FAIL() << "expected rejection mentioning '" << what
                   << "'";
        } catch (const SerializeError &e) {
            EXPECT_NE(std::string(e.what()).find(what),
                      std::string::npos)
                << "actual diagnostic: " << e.what();
        }
    };

    // Payload bit flip -> CRC failure.
    std::vector<std::uint8_t> bytes = intact;
    bytes[CheckpointFormat::kHeaderBytes + bytes.size() / 2] ^= 0x40;
    writeAll(path, bytes);
    expectError("CRC");

    // Truncation -> declared length no longer matches.
    bytes = intact;
    bytes.resize(bytes.size() - 7);
    writeAll(path, bytes);
    expectError("truncated");

    // Truncation inside the header.
    bytes = intact;
    bytes.resize(CheckpointFormat::kHeaderBytes / 2);
    writeAll(path, bytes);
    expectError("truncated");

    // Foreign magic.
    bytes = intact;
    bytes[0] = 'Z';
    writeAll(path, bytes);
    expectError("bad magic");

    // Unsupported container version (magic is 4 bytes, then u16).
    bytes = intact;
    bytes[4] = 0xEE;
    writeAll(path, bytes);
    expectError("unsupported format version");

    // Wrong payload tag: an engine snapshot is not a cell record.
    writeAll(path, intact);
    try {
        readCheckpointFile(path, "CELL");
        FAIL() << "expected a payload-tag rejection";
    } catch (const SerializeError &e) {
        EXPECT_NE(std::string(e.what()).find("payload tag"),
                  std::string::npos);
    }

    // And the intact bytes still load (the harness itself is sound).
    writeAll(path, intact);
    EXPECT_NO_THROW(
        readCheckpointFile(path, SimEngine::kCheckpointTag));
    std::remove(path.c_str());
}

TEST(CheckpointIdentity, RefusesForeignWorkloadAndScheme)
{
    const SharedWorkload &shared = workload();
    const SchemeSpec lru = parseScheme("lru");
    Serializer s;
    {
        auto org = makeScheme(lru, shared.config());
        MemoryTraceSource cursor = shared.source();
        SimEngine engine(shared.config(), cursor, *org,
                         &shared.oracle());
        engine.warmUp(warmupOf(shared));
        engine.measure(500);
        engine.save(s);
    }

    // Same scheme, different workload.
    WorkloadParams other = Workloads::byName("tpcc");
    other.instructions = 50'000;
    const SharedWorkload foreign(other);
    {
        auto org = makeScheme(lru, foreign.config());
        MemoryTraceSource cursor = foreign.source();
        SimEngine engine(foreign.config(), cursor, *org,
                         &foreign.oracle());
        Deserializer d(s.bytes());
        EXPECT_THROW(engine.load(d), SerializeError);
    }

    // Same workload, different scheme.
    {
        auto org = makeScheme(parseScheme("srrip"), shared.config());
        MemoryTraceSource cursor = shared.source();
        SimEngine engine(shared.config(), cursor, *org,
                         &shared.oracle());
        Deserializer d(s.bytes());
        EXPECT_THROW(engine.load(d), SerializeError);
    }
}

TEST(CheckpointIdentity, RefusesTheOtherBranchPredictionMode)
{
    // A table-driven engine saves no predictor state, so its
    // checkpoint cannot resume a live-predicting engine, nor the
    // other way round; either mismatch names the two modes.
    const SharedWorkload &shared = workload();
    const SchemeSpec lru = parseScheme("lru");
    const BranchTable *modes[] = {nullptr, &shared.branchTable()};
    for (const BranchTable *saved : modes) {
        Serializer s;
        {
            auto org = makeScheme(lru, shared.config());
            MemoryTraceSource cursor = shared.source();
            SimEngine engine(shared.config(), cursor, *org,
                             &shared.oracle(), saved);
            engine.warmUp(warmupOf(shared));
            engine.measure(500);
            engine.save(s);
        }
        const BranchTable *other =
            saved == nullptr ? &shared.branchTable() : nullptr;
        auto org = makeScheme(lru, shared.config());
        MemoryTraceSource cursor = shared.source();
        SimEngine engine(shared.config(), cursor, *org,
                         &shared.oracle(), other);
        Deserializer d(s.bytes());
        try {
            engine.load(d);
            FAIL() << "expected a branch-prediction mode rejection";
        } catch (const SerializeError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(saved ? "table-driven" : "live"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("branch prediction"),
                      std::string::npos)
                << what;
        }
    }
}

namespace {

/** Two workloads x two schemes at ctest-friendly length. */
ExperimentSpec
smallMatrix()
{
    WorkloadParams a = Workloads::byName("web_search");
    a.instructions = 40'000;
    WorkloadParams b = Workloads::byName("tpcc");
    b.instructions = 40'000;
    ExperimentSpec spec;
    spec.workloads = {a, b};
    spec.schemes = parseSchemeList("lru,acic");
    spec.threads = 2;
    return spec;
}

std::string
goldenCells(const std::vector<CellResult> &cells)
{
    std::ostringstream out;
    for (const CellResult &cell : cells) {
        out << "cell " << cell.workloadIndex << ' '
            << cell.schemeIndex << ' ' << cell.done << '\n';
        writeGoldenDump(out, cell.result);
    }
    return out.str();
}

} // namespace

TEST(CheckpointDriver, RerunPreloadsEveryCompletedCell)
{
    const std::string dir = "acic_test_ckpt_dir";
    std::filesystem::remove_all(dir);

    ExperimentSpec spec = smallMatrix();
    spec.checkpointDir = dir;
    spec.checkpointEvery = 10'000;
    const auto first = ExperimentDriver(spec).run();
    ASSERT_EQ(first.size(), 4u);
    for (const CellResult &cell : first) {
        EXPECT_TRUE(cell.done);
        EXPECT_TRUE(std::filesystem::exists(
            dir + "/cells/cell_" +
            std::to_string(cell.workloadIndex) + "_" +
            std::to_string(cell.schemeIndex) + ".bin"));
    }
    // In-flight snapshots are cleaned up after each cell completes.
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/inflight"));

    // The rerun must preload — observer fires once per cell before
    // any simulation — and reproduce the results bit-for-bit.
    std::size_t observed = 0;
    const auto second =
        ExperimentDriver(spec).run([&](const CellResult &) {
            ++observed;
        });
    EXPECT_EQ(observed, 4u);
    EXPECT_EQ(goldenCells(first), goldenCells(second));

    // Checkpointed execution itself must not perturb results.
    const auto plain = ExperimentDriver(smallMatrix()).run();
    EXPECT_EQ(goldenCells(plain), goldenCells(first));
    std::filesystem::remove_all(dir);
}

TEST(CheckpointDriver, ManifestRejectsDifferentSweep)
{
    const std::string dir = "acic_test_ckpt_manifest";
    std::filesystem::remove_all(dir);

    ExperimentSpec spec = smallMatrix();
    spec.checkpointDir = dir;
    ExperimentDriver(spec).run();

    ExperimentSpec other = smallMatrix();
    other.schemes = parseSchemeList("lru,srrip");
    other.checkpointDir = dir;
    ExperimentDriver driver(other);
    EXPECT_THROW(driver.run(), SerializeError);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointDriver, CorruptCellFileIsRejectedNotResimulated)
{
    const std::string dir = "acic_test_ckpt_corrupt";
    std::filesystem::remove_all(dir);

    ExperimentSpec spec = smallMatrix();
    spec.checkpointDir = dir;
    ExperimentDriver(spec).run();

    const std::string victim = dir + "/cells/cell_0_1.bin";
    std::vector<std::uint8_t> bytes = readAll(victim);
    ASSERT_GT(bytes.size(), CheckpointFormat::kHeaderBytes);
    bytes[bytes.size() - 3] ^= 0x01;
    writeAll(victim, bytes);

    ExperimentDriver driver(spec);
    try {
        driver.run();
        FAIL() << "corrupt completed-cell file must be rejected";
    } catch (const SerializeError &e) {
        EXPECT_NE(std::string(e.what()).find("CRC"),
                  std::string::npos)
            << "actual diagnostic: " << e.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(CheckpointDriver, ResumeRemovesStaleFilesOfOwnedCellsOnly)
{
    // A kill between publishing a cell and removing its in-flight
    // snapshot, or in the middle of a checkpoint write, leaves files
    // behind. A resumed shard removes those of the cells it owns and
    // leaves a sibling shard's files alone.
    const std::string dir = "acic_test_ckpt_stale";
    std::filesystem::remove_all(dir);
    ExperimentSpec spec = smallMatrix();
    spec.checkpointDir = dir;
    spec.shardCount = 2;
    spec.shardIndex = 0; // owns cells (0, 0) and (1, 0)
    ExperimentDriver(spec).run();

    const std::string stale_snapshot = dir + "/inflight/cell_0_0.ckpt";
    const std::string owned_tmps[] = {
        dir + "/inflight/cell_1_0.ckpt.tmp.4242.7",
        dir + "/cells/cell_0_0.bin.tmp.4242.8"};
    const std::string foreign_tmp =
        dir + "/inflight/cell_0_1.ckpt.tmp.4242.9";
    for (const std::string &path :
         {stale_snapshot, owned_tmps[0], owned_tmps[1], foreign_tmp})
        std::ofstream(path) << "left by a killed run";

    ExperimentDriver(spec).run();
    EXPECT_FALSE(std::filesystem::exists(stale_snapshot));
    for (const std::string &path : owned_tmps)
        EXPECT_FALSE(std::filesystem::exists(path)) << path;
    EXPECT_TRUE(std::filesystem::exists(foreign_tmp));
    std::filesystem::remove_all(dir);
}

TEST(ShardedDriver, ShardsPartitionAndReproduceTheMonolithicRun)
{
    const auto whole = ExperimentDriver(smallMatrix()).run();
    ASSERT_EQ(whole.size(), 4u);

    std::vector<bool> covered(whole.size(), false);
    for (unsigned shard = 0; shard < 3; ++shard) {
        ExperimentSpec spec = smallMatrix();
        spec.shardIndex = shard;
        spec.shardCount = 3;
        const auto part = ExperimentDriver(spec).run();
        ASSERT_EQ(part.size(), whole.size());
        for (std::size_t i = 0; i < part.size(); ++i) {
            if (!part[i].done)
                continue;
            EXPECT_FALSE(covered[i])
                << "cell " << i << " ran on two shards";
            covered[i] = true;
            EXPECT_TRUE(spec.ownsCell(part[i].workloadIndex,
                                      part[i].schemeIndex));
            EXPECT_EQ(golden(whole[i].result),
                      golden(part[i].result))
                << "cell " << i << " diverged on shard " << shard;
        }
    }
    for (std::size_t i = 0; i < covered.size(); ++i)
        EXPECT_TRUE(covered[i]) << "cell " << i << " ran nowhere";
}

TEST(ShardedDriver, EmittersSkipUnownedCells)
{
    ExperimentSpec spec = smallMatrix();
    spec.shardIndex = 1;
    spec.shardCount = 2;
    const auto cells = ExperimentDriver(spec).run();

    const std::vector<ResultRow> rows = resultRows(spec, cells);
    ASSERT_EQ(rows.size(), 2u); // cells 1 and 3 of 4
    std::ostringstream csv;
    writeCsvRows(csv, rows);
    // Header plus exactly one line per owned cell.
    std::size_t lines = 0;
    for (const char c : csv.str())
        lines += c == '\n';
    EXPECT_EQ(lines, 3u);
}

TEST(CheckpointSimResult, SaveLoadRoundTripsEveryField)
{
    const SharedWorkload &shared = workload();
    const SimResult a = shared.run(parseScheme("acic"));
    Serializer s;
    a.save(s);
    SimResult b;
    Deserializer d(s.bytes());
    b.load(d);
    d.finish();
    EXPECT_EQ(golden(a), golden(b));
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scheme, b.scheme);
}

namespace {

/** The byte-at-a-time CRC-32 the sliced kernel must agree with. */
std::uint32_t
crc32Bytewise(const std::uint8_t *p, std::size_t n)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

} // namespace

TEST(CheckpointCrc, KnownAnswers)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(CheckpointCrc, SlicedMatchesBytewiseAtEveryLengthAndOffset)
{
    // Every length below two 8-byte slices plus a tail, at every
    // alignment of the start, then one long buffer.
    std::mt19937 rng(0xC8C32u);
    std::vector<std::uint8_t> buf(4099);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng());
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t length = 0; length <= 17; ++length)
            EXPECT_EQ(crc32(buf.data() + offset, length),
                      crc32Bytewise(buf.data() + offset, length))
                << "offset " << offset << ", length " << length;
    EXPECT_EQ(crc32(buf.data(), buf.size()),
              crc32Bytewise(buf.data(), buf.size()));
    // Continuing a CRC over a split buffer gives the whole one.
    for (const std::size_t cut : {0, 5, 4096})
        EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut,
                        crc32(buf.data(), cut)),
                  crc32(buf.data(), buf.size()))
            << "split at " << cut;
}

TEST(CheckpointSerializer, StreamedChunksEqualTheBufferedBytes)
{
    // Small fields across chunk boundaries, and vectors and strings
    // larger than a chunk: the chunks a sink receives concatenate to
    // the bytes a buffering serializer holds.
    const auto fill = [](Serializer &s) {
        std::vector<std::uint64_t> big(Serializer::kChunkBytes / 8 + 3);
        for (std::size_t i = 0; i < big.size(); ++i)
            big[i] = i * 0x9E3779B97F4A7C15ull;
        for (int i = 0; i < 40'000; ++i) {
            s.u8(static_cast<std::uint8_t>(i));
            s.u32(static_cast<std::uint32_t>(i * 7));
            s.u64(static_cast<std::uint64_t>(i) << 33);
        }
        s.vecU64(big);
        s.str(std::string(Serializer::kChunkBytes + 1, 'x'));
        s.u16(0xBEEF);
    };
    Serializer buffered;
    fill(buffered);
    std::vector<std::uint8_t> streamed;
    std::size_t chunks = 0;
    Serializer streaming([&](const std::uint8_t *data, std::size_t n) {
        streamed.insert(streamed.end(), data, data + n);
        ++chunks;
    });
    fill(streaming);
    streaming.flush();
    EXPECT_GT(chunks, 2u);
    EXPECT_EQ(streaming.size(), buffered.size());
    EXPECT_TRUE(streamed == buffered.bytes());
}

TEST(CheckpointFormat, EngineImageBytesAreVersionOneAndLoad)
{
    // One engine image at a fixed instant: web_search at 60K
    // instructions under acic, after warmUp and 20K measured
    // instructions. Its payload length and CRC were recorded from a
    // version-1 writer that stored one byte at a time; equal length
    // and CRC mean the image is that writer's image byte for byte,
    // so loading it proves an image written by version 1 still
    // loads and finishes to the uninterrupted run's statistics.
    constexpr std::uint64_t kPayloadBytes = 2'082'390;
    constexpr std::uint32_t kPayloadCrc = 0xDD773797u;
    static_assert(CheckpointFormat::kVersion == 1,
                  "a new format version needs new recorded images");

    WorkloadParams params = Workloads::byName("web_search");
    params.instructions = 60'000;
    const SharedWorkload shared(params);
    const SchemeSpec spec = parseScheme("acic");
    const std::uint64_t warm = warmupOf(shared);
    const std::uint64_t cut = 20'000;
    const std::string path = "acic_test_pinned.ckpt";
    {
        auto org = makeScheme(spec, shared.config());
        MemoryTraceSource cursor = shared.source();
        SimEngine engine(shared.config(), cursor, *org,
                         &shared.oracle());
        engine.warmUp(warm);
        engine.measure(cut);
        engine.saveCheckpoint(path);
    }
    const std::vector<std::uint8_t> file = readAll(path);
    ASSERT_GE(file.size(), CheckpointFormat::kHeaderBytes);
    const std::uint8_t *payload =
        file.data() + CheckpointFormat::kHeaderBytes;
    const std::size_t length =
        file.size() - CheckpointFormat::kHeaderBytes;
    EXPECT_EQ(length, kPayloadBytes);
    EXPECT_EQ(crc32Bytewise(payload, length), kPayloadCrc);
    Deserializer header(file.data(), CheckpointFormat::kHeaderBytes);
    EXPECT_EQ(std::string(file.begin(), file.begin() + 4), "ACKP");
    EXPECT_EQ(std::string(file.begin() + 6, file.begin() + 10), "ENGN");
    header.u32();
    EXPECT_EQ(header.u16(), 1u);
    header.u32();
    EXPECT_EQ(header.u64(), kPayloadBytes);
    EXPECT_EQ(header.u32(), kPayloadCrc);

    auto org = makeScheme(spec, shared.config());
    MemoryTraceSource cursor = shared.source();
    SimEngine engine(shared.config(), cursor, *org, &shared.oracle());
    engine.loadCheckpoint(path);
    engine.measure(shared.instructions() - warm - cut);
    EXPECT_EQ(golden(shared.run(spec)), golden(engine.finish()));
    std::remove(path.c_str());
}

#if defined(__unix__)
TEST(CheckpointContainer, FailedWriteLeavesNoTempFile)
{
    // A child process lowers its own file-size limit below the image
    // and ignores SIGXFSZ, so the write fails with EFBIG instead of
    // killing it; the writer must throw and remove its temp file.
    namespace fs = std::filesystem;
    const fs::path dir = "acic_test_failed_write";
    fs::remove_all(dir);
    fs::create_directory(dir);
    const std::string path = (dir / "cell.ckpt").string();

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit limit{};
        if (getrlimit(RLIMIT_FSIZE, &limit) != 0)
            _exit(3);
        limit.rlim_cur = 4096;
        if (setrlimit(RLIMIT_FSIZE, &limit) != 0)
            _exit(3);
        const std::vector<std::uint8_t> payload(64 * 1024, 0xA5);
        try {
            CheckpointWriter out(path, "CELL");
            out.payload().raw(payload.data(), payload.size());
            out.commit();
        } catch (const SerializeError &) {
            _exit(0);
        }
        _exit(1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "1: the over-limit write did not throw; 3: setrlimit failed";
    std::vector<std::string> left;
    for (const auto &entry : fs::directory_iterator(dir))
        left.push_back(entry.path().filename().string());
    EXPECT_TRUE(left.empty())
        << "left behind: " << ::testing::PrintToString(left);
    fs::remove_all(dir);
}
#endif
