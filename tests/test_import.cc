/**
 * @file
 * Tests of the trace-ingestion pipeline and the workload catalog:
 * gzip-aware framing, ChampSim/QEMU golden-fixture round-trips
 * (imported `.acictrace` replays bit-identically), format
 * auto-detection, malformed-input rejection, the TraceWriter
 * non-seekable-output guard, trace statistics, and the
 * WorkloadCatalog registry (builtin presets, trace-dir overlay,
 * group resolution, driver integration of trace-file entries).
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/experiment.hh"
#include "trace/catalog.hh"
#include "trace/import/champsim.hh"
#include "trace/import/importer.hh"
#include "trace/import/qemu.hh"
#include "trace/io.hh"
#include "trace/stats.hh"
#include "trace/synthetic.hh"

using namespace acic;

namespace {

/** Unique-ish temp path per test, removed on destruction. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name) : path_(name)
    {
        std::remove(path_.c_str());
    }
    ~TempPath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

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

TraceInst
makeInst(Addr pc, Addr next, BranchKind kind, bool taken)
{
    TraceInst inst;
    inst.pc = pc;
    inst.nextPc = next;
    inst.kind = kind;
    inst.taken = taken;
    return inst;
}

/** One 64-byte ChampSim record. */
std::vector<std::uint8_t>
champsimRecord(std::uint64_t ip, bool is_branch, bool taken,
               std::vector<std::uint8_t> dst = {},
               std::vector<std::uint8_t> src = {})
{
    std::vector<std::uint8_t> raw(ChampSimImporter::kRecordBytes, 0);
    for (int i = 0; i < 8; ++i)
        raw[i] = static_cast<std::uint8_t>(ip >> (8 * i));
    raw[8] = is_branch ? 1 : 0;
    raw[9] = taken ? 1 : 0;
    for (std::size_t i = 0; i < dst.size() && i < 2; ++i)
        raw[10 + i] = dst[i];
    for (std::size_t i = 0; i < src.size() && i < 4; ++i)
        raw[12 + i] = src[i];
    return raw;
}

void
writeBytes(const std::string &path,
           const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
    ASSERT_TRUE(out.good());
}

constexpr std::uint8_t kSp = ChampSimImporter::kRegStackPointer;
constexpr std::uint8_t kFlags = ChampSimImporter::kRegFlags;
constexpr std::uint8_t kIp =
    ChampSimImporter::kRegInstructionPointer;

/** The golden ChampSim fixture and the stream it must decode to. */
std::vector<std::uint8_t>
championFixture(std::vector<TraceInst> &expected)
{
    std::vector<std::uint8_t> bytes;
    const auto push = [&](std::vector<std::uint8_t> rec) {
        bytes.insert(bytes.end(), rec.begin(), rec.end());
    };
    // Plain, direct jump, direct call, return, not-taken
    // conditional, plain tail.
    push(champsimRecord(0x1000, false, false));
    push(champsimRecord(0x1004, true, true, {kIp}, {kIp}));
    push(champsimRecord(0x2000, true, true, {kIp, kSp}, {kIp, kSp}));
    push(champsimRecord(0x3000, true, true, {kIp, kSp}, {kSp}));
    push(champsimRecord(0x1008, true, false, {kIp}, {kIp, kFlags}));
    push(champsimRecord(0x100c, false, false));

    expected = {
        makeInst(0x1000, 0x1004, BranchKind::None, false),
        makeInst(0x1004, 0x2000, BranchKind::Direct, true),
        makeInst(0x2000, 0x3000, BranchKind::Call, true),
        makeInst(0x3000, 0x1008, BranchKind::Return, true),
        makeInst(0x1008, 0x100c, BranchKind::Cond, false),
        makeInst(0x100c, 0x1010, BranchKind::None, false),
    };
    return bytes;
}

/** The golden QEMU execlog fixture and its expected stream. */
std::string
qemuExeclogFixture(std::vector<TraceInst> &expected)
{
    const std::string text =
        "# comment line, skipped\n"
        "0, 0x400000, 0xd2800000, \"mov x0, #0\"\n"
        "0, 0x400004, 0x94000003, \"bl #0x400010\"\n"
        "0, 0x400010, 0xd2800001, \"mov x1, #1\"\n"
        "0, 0x400014, 0xd65f03c0, \"ret\"\n"
        "\n"
        "0, 0x400008, 0x14000006, \"b #0x400020\"\n"
        "0, 0x400020, 0x54000040, \"b.eq #0x400028\"\n"
        "0, 0x400024, 0xd503201f, \"nop\"\n";
    expected = {
        makeInst(0x400000, 0x400004, BranchKind::None, false),
        makeInst(0x400004, 0x400010, BranchKind::Call, true),
        makeInst(0x400010, 0x400014, BranchKind::None, false),
        makeInst(0x400014, 0x400008, BranchKind::Return, true),
        makeInst(0x400008, 0x400020, BranchKind::Direct, true),
        makeInst(0x400020, 0x400024, BranchKind::Cond, false),
        makeInst(0x400024, 0x400028, BranchKind::None, false),
    };
    return text;
}

} // namespace

// ----------------------------------------------------------- framing

TEST(Framing, LineFramingHandlesTerminatorsAndFinalLine)
{
    TempPath path("acic_test_lines.txt");
    writeText(path.str(), "alpha\nbeta\r\n\ngamma");
    InputStream in(path.str());
    std::string line;
    ASSERT_TRUE(in.getLine(line));
    EXPECT_EQ(line, "alpha");
    ASSERT_TRUE(in.getLine(line));
    EXPECT_EQ(line, "beta");
    ASSERT_TRUE(in.getLine(line));
    EXPECT_EQ(line, "");
    ASSERT_TRUE(in.getLine(line));
    EXPECT_EQ(line, "gamma"); // unterminated final line
    EXPECT_FALSE(in.getLine(line));
}

TEST(Framing, PeekDoesNotConsume)
{
    TempPath path("acic_test_peek.bin");
    writeBytes(path.str(), {1, 2, 3, 4, 5});
    InputStream in(path.str());
    const std::uint8_t *head = nullptr;
    ASSERT_EQ(in.peek(head, 64), 5u);
    EXPECT_EQ(head[0], 1);
    EXPECT_EQ(head[4], 5);
    std::uint8_t buf[8];
    EXPECT_EQ(in.read(buf, sizeof(buf)), 5u);
    EXPECT_EQ(buf[0], 1);
    EXPECT_EQ(in.consumed(), 5u);
}

TEST(Framing, GzipInputIsTransparent)
{
    if (!gzipSupported())
        GTEST_SKIP() << "built without zlib";
    TempPath plain("acic_test_gz_plain.txt");
    TempPath gz("acic_test_gz.txt.gz");
    writeText(plain.str(), "hello\nworld\n");
    ASSERT_TRUE(gzipFile(plain.str(), gz.str()));

    InputStream in(gz.str());
    EXPECT_TRUE(in.compressed());
    std::string line;
    ASSERT_TRUE(in.getLine(line));
    EXPECT_EQ(line, "hello");
    ASSERT_TRUE(in.getLine(line));
    EXPECT_EQ(line, "world");
    EXPECT_FALSE(in.getLine(line));
}

// --------------------------------------------------------- importers

TEST(ChampSimImport, GoldenFixtureRoundTrips)
{
    TempPath fixture("acic_test_golden.champsim");
    TempPath out("acic_test_golden_champsim.acictrace");
    std::vector<TraceInst> expected;
    writeBytes(fixture.str(), championFixture(expected));

    const ImportSummary summary =
        importTraceFile(fixture.str(), out.str());
    EXPECT_EQ(summary.format, "champsim");
    EXPECT_EQ(summary.instructions, expected.size());
    EXPECT_EQ(summary.name, "acic_test_golden_champsim");

    FileTraceSource trace(out.str());
    EXPECT_EQ(trace.length(), expected.size());
    expectSameStream(expected, drain(trace));
    // Re-iterability: the imported trace replays identically.
    trace.reset();
    expectSameStream(expected, drain(trace));
}

TEST(ChampSimImport, ExplicitFormatAndCustomName)
{
    TempPath fixture("acic_test_named.champsim");
    TempPath out("acic_test_named.acictrace");
    std::vector<TraceInst> expected;
    writeBytes(fixture.str(), championFixture(expected));

    ImportOptions options;
    options.format = "champsim";
    options.name = "my_workload";
    const ImportSummary summary =
        importTraceFile(fixture.str(), out.str(), options);
    EXPECT_EQ(summary.name, "my_workload");
    FileTraceSource trace(out.str());
    EXPECT_EQ(trace.name(), "my_workload");
}

TEST(ChampSimImportDeath, RejectsTruncatedRecord)
{
    TempPath fixture("acic_test_trunc.champsim");
    TempPath out("acic_test_trunc.acictrace");
    std::vector<TraceInst> expected;
    auto bytes = championFixture(expected);
    bytes.resize(bytes.size() - 7); // tear the final record
    writeBytes(fixture.str(), bytes);
    EXPECT_EXIT(importTraceFile(fixture.str(), out.str()),
                ::testing::ExitedWithCode(1), "truncated ChampSim");
}

TEST(QemuImport, ExeclogFixtureRoundTrips)
{
    TempPath fixture("acic_test_execlog.log");
    TempPath out("acic_test_execlog.acictrace");
    std::vector<TraceInst> expected;
    writeText(fixture.str(), qemuExeclogFixture(expected));

    const ImportSummary summary =
        importTraceFile(fixture.str(), out.str());
    EXPECT_EQ(summary.format, "qemu");
    EXPECT_EQ(summary.instructions, expected.size());

    FileTraceSource trace(out.str());
    expectSameStream(expected, drain(trace));
}

TEST(QemuImport, ExecTraceLinesRoundTrip)
{
    TempPath fixture("acic_test_exec.log");
    TempPath out("acic_test_exec.acictrace");
    // -d exec TB lines: pc is the second '/'-component. The second
    // block does not follow the first sequentially, so it becomes a
    // taken Direct branch; the third continues at +4 (kInstBytes).
    writeText(fixture.str(),
              "Trace 0: 0x7f1200 [00000000/0000000000400100/0x11]\n"
              "Trace 0: 0x7f1208 [00000000/0000000000400200/0x11]\n"
              "Trace 0: 0x7f1210 [00000000/0000000000400204/0x11]\n");
    const std::vector<TraceInst> expected = {
        makeInst(0x400100, 0x400200, BranchKind::Direct, true),
        makeInst(0x400200, 0x400204, BranchKind::None, false),
        makeInst(0x400204, 0x400208, BranchKind::None, false),
    };
    const ImportSummary summary =
        importTraceFile(fixture.str(), out.str());
    EXPECT_EQ(summary.format, "qemu");
    FileTraceSource trace(out.str());
    expectSameStream(expected, drain(trace));
}

TEST(QemuImportDeath, RejectsMalformedLine)
{
    TempPath fixture("acic_test_malformed.log");
    TempPath out("acic_test_malformed.acictrace");
    TempPath tmp("acic_test_malformed.acictrace.tmp");
    writeText(fixture.str(),
              "0, 0x400000, 0x0, \"nop\"\n"
              "this is not a qemu log line\n");
    ImportOptions options;
    options.format = "qemu";
    EXPECT_EXIT(importTraceFile(fixture.str(), out.str(), options),
                ::testing::ExitedWithCode(1),
                "malformed QEMU log line 2");
    // A failed import must not leave a partial trace under the real
    // name (it converts into a ".tmp" renamed only on success).
    std::ifstream leftover(out.str());
    EXPECT_FALSE(leftover.good());
}

TEST(QemuImport, ClassifiesMnemonicFamilies)
{
    using K = BranchKind;
    EXPECT_EQ(QemuImporter::classifyMnemonic("bl"), K::Call);
    EXPECT_EQ(QemuImporter::classifyMnemonic("CALL"), K::Call);
    EXPECT_EQ(QemuImporter::classifyMnemonic("jal"), K::Call);
    EXPECT_EQ(QemuImporter::classifyMnemonic("ret"), K::Return);
    EXPECT_EQ(QemuImporter::classifyMnemonic("retq"), K::Return);
    EXPECT_EQ(QemuImporter::classifyMnemonic("jmp"), K::Direct);
    EXPECT_EQ(QemuImporter::classifyMnemonic("b"), K::Direct);
    EXPECT_EQ(QemuImporter::classifyMnemonic("b.ne"), K::Cond);
    EXPECT_EQ(QemuImporter::classifyMnemonic("beq"), K::Cond);
    EXPECT_EQ(QemuImporter::classifyMnemonic("bltu"), K::Cond);
    EXPECT_EQ(QemuImporter::classifyMnemonic("jne"), K::Cond);
    EXPECT_EQ(QemuImporter::classifyMnemonic("cbz"), K::Cond);
    EXPECT_EQ(QemuImporter::classifyMnemonic("mov"), K::None);
    EXPECT_EQ(QemuImporter::classifyMnemonic("add"), K::None);
}

// ----------------------------------------------- detection + native

TEST(ImportDetection, ProbesPickTheRightImporter)
{
    std::vector<TraceInst> expected;
    const auto champ = championFixture(expected);
    const std::string qemu = qemuExeclogFixture(expected);

    const TraceImporter *by_champ = nullptr;
    const TraceImporter *by_qemu = nullptr;
    for (const TraceImporter *imp : traceImporters()) {
        if (std::string(imp->format()) == "champsim")
            by_champ = imp;
        if (std::string(imp->format()) == "qemu")
            by_qemu = imp;
    }
    ASSERT_NE(by_champ, nullptr);
    ASSERT_NE(by_qemu, nullptr);
    EXPECT_TRUE(by_champ->probe(champ.data(), champ.size(), true));
    EXPECT_FALSE(by_champ->probe(
        reinterpret_cast<const std::uint8_t *>(qemu.data()),
        qemu.size(), true));
    EXPECT_TRUE(by_qemu->probe(
        reinterpret_cast<const std::uint8_t *>(qemu.data()),
        qemu.size(), true));
    EXPECT_FALSE(by_qemu->probe(champ.data(), champ.size(), true));
    EXPECT_EQ(importerByFormat("acictrace")->format(),
              std::string("acictrace"));
    EXPECT_EQ(importerByFormat("no_such_format"), nullptr);
}

TEST(ImportDetection, UnterminatedFinalLineStillAutoDetects)
{
    // EOF falls inside the probe window, so the single line without
    // a trailing newline is complete evidence for the QEMU grammar.
    TempPath fixture("acic_test_nonewline.log");
    TempPath out("acic_test_nonewline.acictrace");
    writeText(fixture.str(), "0, 0x1000, 0x90, \"nop\"");
    const ImportSummary summary =
        importTraceFile(fixture.str(), out.str());
    EXPECT_EQ(summary.format, "qemu");
    EXPECT_EQ(summary.instructions, 1u);
}

TEST(NativeImport, ReencodePreservesStreamAndName)
{
    TempPath recorded("acic_test_native_rec.acictrace");
    TempPath reimported("acic_test_native_re.acictrace");
    auto params = Workloads::byName("web_search");
    params.instructions = 20'000;
    SyntheticWorkload synth(params);
    recordTrace(synth, recorded.str());

    const ImportSummary summary =
        importTraceFile(recorded.str(), reimported.str());
    EXPECT_EQ(summary.format, "acictrace");
    EXPECT_EQ(summary.name, "web_search"); // sniffed, not file stem
    EXPECT_EQ(summary.instructions, 20'000u);

    FileTraceSource a(recorded.str());
    FileTraceSource b(reimported.str());
    EXPECT_EQ(b.name(), "web_search");
    expectSameStream(drain(a), drain(b));
}

TEST(NativeImport, GzippedTraceImportsIdentically)
{
    if (!gzipSupported())
        GTEST_SKIP() << "built without zlib";
    TempPath recorded("acic_test_gztrace.acictrace");
    TempPath gz("acic_test_gztrace.acictrace.gz");
    TempPath out("acic_test_gztrace_out.acictrace");
    auto params = Workloads::byName("tpcc");
    params.instructions = 10'000;
    SyntheticWorkload synth(params);
    recordTrace(synth, recorded.str());
    ASSERT_TRUE(gzipFile(recorded.str(), gz.str()));

    const ImportSummary summary =
        importTraceFile(gz.str(), out.str());
    EXPECT_TRUE(summary.compressed);
    EXPECT_EQ(summary.format, "acictrace");
    FileTraceSource a(recorded.str());
    FileTraceSource b(out.str());
    expectSameStream(drain(a), drain(b));
}

// --------------------------------------------------- writer + stats

TEST(TraceWriterDeath, RejectsNonSeekableOutput)
{
    const char *fifo = "acic_test_fifo";
    std::remove(fifo);
    ASSERT_EQ(mkfifo(fifo, 0600), 0);
    const int reader = open(fifo, O_RDONLY | O_NONBLOCK);
    ASSERT_GE(reader, 0);
    EXPECT_EXIT({ TraceWriter writer(fifo, "unit"); },
                ::testing::ExitedWithCode(1), "not seekable");
    close(reader);
    std::remove(fifo);
}

TEST(TraceStats, CountsMatchHandBuiltStream)
{
    TempPath path("acic_test_stats.acictrace");
    {
        TraceWriter writer(path.str(), "stats");
        writer.append(
            makeInst(0x1000, 0x1004, BranchKind::None, false));
        writer.append(
            makeInst(0x1004, 0x2000, BranchKind::Call, true));
        writer.append(
            makeInst(0x2000, 0x2004, BranchKind::Cond, false));
        writer.append(
            makeInst(0x2004, 0x1008, BranchKind::Return, true));
    }
    FileTraceSource trace(path.str());
    const TraceStats stats = computeTraceStats(trace);
    EXPECT_EQ(stats.name, "stats");
    EXPECT_EQ(stats.instructions, 4u);
    EXPECT_EQ(stats.branches(), 3u);
    EXPECT_EQ(stats.kinds[static_cast<int>(BranchKind::Call)], 1u);
    EXPECT_EQ(stats.kinds[static_cast<int>(BranchKind::Cond)], 1u);
    EXPECT_EQ(stats.kinds[static_cast<int>(BranchKind::Return)],
              1u);
    EXPECT_EQ(stats.taken, 2u);
    EXPECT_EQ(stats.redirects, 2u);
    EXPECT_EQ(stats.uniqueBlocks, 2u); // blocks 0x40 and 0x80
    EXPECT_DOUBLE_EQ(stats.branchDensity(), 0.75);
    // The stat text is path-free and deterministic.
    std::ostringstream a, b;
    printTraceStats(a, stats);
    trace.reset();
    printTraceStats(b, computeTraceStats(trace));
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("block reuse distance"),
              std::string::npos);
}

// ----------------------------------------------------------- catalog

TEST(Catalog, BuiltinEnumeratesBothSuites)
{
    const WorkloadCatalog catalog = WorkloadCatalog::builtin();
    EXPECT_EQ(catalog.entries().size(), 15u);
    EXPECT_EQ(catalog.resolve("all").size(), 15u);
    EXPECT_EQ(catalog.resolve("all-datacenter").size(), 10u);
    EXPECT_EQ(catalog.resolve("all-spec").size(), 5u);
    const WorkloadEntry *entry = catalog.find("web_search");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->suite, "datacenter");
    EXPECT_EQ(entry->source, WorkloadSource::Synthetic);
    EXPECT_EQ(catalog.find("no_such_workload"), nullptr);

    const auto picked = catalog.resolve("tpcc,gcc");
    ASSERT_EQ(picked.size(), 2u);
    EXPECT_EQ(picked[0].name(), "tpcc");
    EXPECT_EQ(picked[1].suite, "spec");
}

TEST(CatalogDeath, UnknownNamesAreFatal)
{
    const WorkloadCatalog catalog = WorkloadCatalog::builtin();
    EXPECT_EXIT(catalog.resolve("no_such_workload"),
                ::testing::ExitedWithCode(1), "unknown workload");
    EXPECT_EXIT(catalog.resolve("all-bogus"),
                ::testing::ExitedWithCode(1),
                "unknown workload group");
}

TEST(Catalog, TraceDirOverlaysPresetsAndAddsImports)
{
    // A scratch directory holding one preset-named trace and one
    // new workload.
    const std::string dir = "acic_test_catalog_dir";
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(std::filesystem::create_directory(dir));
    {
        auto params = Workloads::byName("web_search");
        params.instructions = 5'000;
        SyntheticWorkload synth(params);
        recordTrace(synth,
                    dir + "/web_search" + TraceFormat::suffix());
        SyntheticWorkload other(params);
        recordTrace(other,
                    dir + "/captured_prod" + TraceFormat::suffix());
        // A foreign file that must be skipped, not fatal.
        std::ofstream junk(dir + "/junk" + TraceFormat::suffix());
        junk << "not a trace";
    }

    WorkloadCatalog catalog = WorkloadCatalog::builtin();
    EXPECT_EQ(catalog.addTraceDir(dir), 2u);
    EXPECT_EQ(catalog.entries().size(), 16u); // one new name

    // The preset override keeps its suite but becomes a trace file.
    const WorkloadEntry *ws = catalog.find("web_search");
    ASSERT_NE(ws, nullptr);
    EXPECT_EQ(ws->source, WorkloadSource::TraceFile);
    EXPECT_EQ(ws->suite, "datacenter");
    EXPECT_EQ(ws->params.instructions, 5'000u);
    EXPECT_EQ(catalog.resolve("all-datacenter").size(), 10u);

    // The new name lands in the imported suite.
    const auto imported = catalog.resolve("all-imported");
    ASSERT_EQ(imported.size(), 1u);
    EXPECT_EQ(imported[0].name(), "captured_prod");

    // entry.open() yields a working source for both kinds.
    auto opened = ws->open();
    EXPECT_EQ(opened->length(), 5'000u);
    auto synth_entry = catalog.find("tpcc")->open();
    EXPECT_EQ(synth_entry->name(), "tpcc");

    std::filesystem::remove_all(dir);
}

TEST(Catalog, TraceFileEntryRunsIdenticalToDirectRead)
{
    TempPath path("acic_test_entry_run.acictrace");
    auto params = Workloads::byName("media_streaming");
    params.instructions = 30'000;
    SyntheticWorkload synth(params);
    recordTrace(synth, path.str());

    // Direct FileTraceSource read...
    FileTraceSource file(path.str());
    SharedWorkload direct(file);
    const SimResult expected = direct.run(parseScheme("acic"));

    // ...equals a TraceFile WorkloadEntry through the driver.
    ExperimentSpec spec;
    spec.workloads = {
        WorkloadEntry::traceFile("media_streaming", path.str())};
    spec.schemes = {parseScheme("acic")};
    spec.threads = 2;
    const auto cells = ExperimentDriver(spec).run();
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].result.cycles, expected.cycles);
    EXPECT_EQ(cells[0].result.l1iMisses, expected.l1iMisses);
    EXPECT_EQ(cells[0].result.instructions, expected.instructions);
}

TEST(Catalog, ImportedQemuTraceRunsThroughDriver)
{
    TempPath fixture("acic_test_drv.log");
    TempPath out("acic_test_drv.acictrace");
    std::vector<TraceInst> expected;
    // A loop over the fixture body, long enough to simulate.
    std::string text;
    for (int rep = 0; rep < 2000; ++rep)
        text += qemuExeclogFixture(expected);
    writeText(fixture.str(), text);
    importTraceFile(fixture.str(), out.str());

    ExperimentSpec spec;
    spec.workloads = {
        WorkloadEntry::traceFile("qemu_loop", out.str())};
    spec.schemes = parseSchemeList("lru,acic");
    spec.threads = 1;
    const auto cells = ExperimentDriver(spec).run();
    ASSERT_EQ(cells.size(), 2u);
    for (const auto &cell : cells) {
        EXPECT_GT(cell.result.cycles, 0u);
        EXPECT_GT(cell.result.instructions, 0u);
    }
}
