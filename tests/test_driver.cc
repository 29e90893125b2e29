/**
 * @file
 * Tests of the experiment-driver subsystem: thread-pool draining,
 * equivalence of the one SharedWorkload run path with checkpointed
 * and directly stepped runs,
 * thread-count invariance of driver results, trace-dir replay, the
 * CSV/JSON emitters, StatSet ostream dumping, and the hardened
 * ACIC_TRACE_LEN parsing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "driver/emitters.hh"
#include "driver/experiment.hh"
#include "driver/thread_pool.hh"
#include "sim/engine.hh"
#include "trace/io.hh"
#include "trace/synthetic.hh"

using namespace acic;

namespace {

ExperimentSpec
smallSpec(unsigned threads)
{
    ExperimentSpec spec;
    spec.workloads = {Workloads::byName("web_search"),
                      Workloads::byName("media_streaming"),
                      Workloads::byName("tpcc")};
    spec.schemes = parseSchemeList("lru,srrip,acic,opt");
    spec.instructions = 40'000;
    spec.threads = threads;
    return spec;
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.demandAccesses, b.demandAccesses);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.btbMisses, b.btbMisses);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.latePrefetches, b.latePrefetches);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l3Accesses, b.l3Accesses);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.orgStats.raw(), b.orgStats.raw());
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::size_t
countCommas(const std::string &line)
{
    std::size_t n = 0;
    for (const char c : line)
        n += c == ',' ? 1 : 0;
    return n;
}

std::string
goldenDump(const SimResult &result)
{
    std::ostringstream out;
    writeGoldenDump(out, result);
    return out.str();
}

} // namespace

TEST(ThreadPool, DrainsTransitiveTaskGraph)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &count] {
            ++count;
            // Tasks submitted from worker threads must also drain
            // before wait() returns.
            pool.submit([&count] { ++count; });
        });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 16);
    // The pool stays usable after a wait().
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 17);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.threads(), 1u);
}

TEST(SharedWorkload, OneRunPathMatchesCheckpointedAndLiveEngine)
{
    // The one run function over wholeRun() must equal the same run
    // checkpointed in flight, and an engine stepped directly over
    // the live generator (so the materialized image replays the
    // source stream exactly).
    auto params = Workloads::byName("web_search");
    params.instructions = 50'000;
    const SharedWorkload shared(params);
    const SimConfig &config = shared.config();
    const SimInterval whole = shared.wholeRun();
    for (const char *s : {"lru", "acic", "opt_bypass"}) {
        const SchemeSpec spec = parseScheme(s);
        const SimResult plain = shared.run(spec);

        const InflightCheckpoint inflight{
            std::string("one_path_") + s + ".ckpt", 10'000};
        std::remove(inflight.path.c_str());
        auto org = makeScheme(spec, config);
        const SimResult checkpointed =
            shared.run(*org, whole, nullptr, &inflight);
        EXPECT_TRUE(std::ifstream(inflight.path).good()) << s;
        std::remove(inflight.path.c_str());

        SyntheticWorkload live(params);
        const DemandOracle oracle =
            DemandOracle::build(live, config.fetchWidth);
        auto live_org = makeScheme(spec, config);
        SimEngine engine(config, live, *live_org, &oracle);
        engine.warmUp(whole.warmup());
        engine.measure(whole.measured());

        EXPECT_EQ(goldenDump(plain), goldenDump(checkpointed)) << s;
        EXPECT_EQ(goldenDump(plain), goldenDump(engine.finish())) << s;
    }
}

TEST(SharedWorkload, ConcurrentRunsAreIndependent)
{
    auto params = Workloads::byName("tpcc");
    params.instructions = 40'000;
    const SharedWorkload shared(params);
    const SimResult expected = shared.run(parseScheme("acic"));

    std::vector<SimResult> results(8);
    {
        ThreadPool pool(4);
        for (auto &slot : results)
            pool.submit([&shared, &slot] {
                slot = shared.run(parseScheme("acic"));
            });
        pool.wait();
    }
    for (const auto &r : results)
        expectSameResult(expected, r);
}

TEST(Driver, ResultsIdenticalAcrossThreadCounts)
{
    ExperimentDriver serial(smallSpec(1));
    ExperimentDriver parallel(smallSpec(4));
    const auto a = serial.run();
    const auto b = parallel.run();
    ASSERT_EQ(a.size(), 12u);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workloadIndex, b[i].workloadIndex);
        EXPECT_EQ(a[i].schemeIndex, b[i].schemeIndex);
        expectSameResult(a[i].result, b[i].result);
    }
}

TEST(Driver, ObserverSeesEveryCellOnce)
{
    ExperimentDriver driver(smallSpec(4));
    std::vector<int> seen(12, 0);
    const auto cells = driver.run([&](const CellResult &cell) {
        ++seen[cell.workloadIndex * 4 + cell.schemeIndex];
    });
    for (const int n : seen)
        EXPECT_EQ(n, 1);
    // Returned cells are workload-major regardless of completion
    // order.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].workloadIndex, i / 4);
        EXPECT_EQ(cells[i].schemeIndex, i % 4);
    }
}

TEST(Driver, TraceDirReplayMatchesSynthetic)
{
    auto spec = smallSpec(2);
    spec.workloads.resize(2);

    // Record the two workloads at the spec's instruction count.
    const std::string dir = ".";
    std::vector<std::string> paths;
    for (const auto &entry : spec.workloads) {
        auto p = entry.params;
        p.instructions = spec.instructions;
        SyntheticWorkload synth(p);
        const std::string path =
            dir + "/" + p.name + TraceFormat::suffix();
        recordTrace(synth, path);
        paths.push_back(path);
    }

    ExperimentDriver synthetic(spec);
    auto from_synth = synthetic.run();

    auto disk_spec = spec;
    disk_spec.traceDir = dir;
    ExperimentDriver replay(disk_spec);
    auto from_disk = replay.run();

    ASSERT_EQ(from_synth.size(), from_disk.size());
    for (std::size_t i = 0; i < from_synth.size(); ++i)
        expectSameResult(from_synth[i].result, from_disk[i].result);
    for (const auto &path : paths)
        std::remove(path.c_str());
}

TEST(Driver, ExplicitInstructionsBeatEnvOverride)
{
    ExperimentSpec spec;
    spec.workloads = {Workloads::byName("tpcc")};
    spec.schemes = {parseScheme("lru")};
    spec.threads = 1;

    // Explicit spec override outranks the env var...
    ::setenv("ACIC_TRACE_LEN", "100000", 1);
    spec.instructions = 30'000;
    const auto explicit_cells = ExperimentDriver(spec).run();
    // ...but the env var still applies when nothing is explicit.
    spec.instructions = 0;
    ::setenv("ACIC_TRACE_LEN", "20000", 1);
    const auto env_cells = ExperimentDriver(spec).run();
    ::unsetenv("ACIC_TRACE_LEN");

    // SimResult counts post-warmup instructions (90% of the trace).
    EXPECT_EQ(explicit_cells[0].result.instructions, 27'000u);
    EXPECT_EQ(env_cells[0].result.instructions, 18'000u);
}

TEST(Emitters, CsvIsParseable)
{
    auto spec = smallSpec(2);
    spec.workloads.resize(2);
    spec.schemes = parseSchemeList("lru,acic");
    ExperimentDriver driver(spec);
    const auto cells = driver.run();

    std::ostringstream out;
    writeResultsCsv(out, driver.spec(), cells);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 1u + cells.size());
    const std::size_t columns = countCommas(lines[0]) + 1;
    EXPECT_EQ(columns, 16u);
    for (std::size_t i = 1; i < lines.size(); ++i)
        EXPECT_EQ(countCommas(lines[i]) + 1, columns)
            << "row " << i << ": " << lines[i];
    EXPECT_EQ(lines[1].substr(0, lines[1].find(',')),
              spec.workloads[0].name());
}

TEST(Emitters, JsonIsStructurallyValid)
{
    auto spec = smallSpec(2);
    spec.workloads.resize(1);
    spec.schemes = parseSchemeList("lru,acic");
    ExperimentDriver driver(spec);
    const auto cells = driver.run();

    std::ostringstream out;
    writeResultsJson(out, driver.spec(), cells);
    const std::string json = out.str();

    // Balanced braces/brackets and no dangling comma before a
    // closing token — the structural failures a hand-rolled emitter
    // can make. (Emitted strings contain no braces.)
    int braces = 0, brackets = 0;
    char prev_significant = '\0';
    for (const char c : json) {
        if (c == '{')
            ++braces;
        if (c == '}') {
            --braces;
            EXPECT_NE(prev_significant, ',');
        }
        if (c == '[')
            ++brackets;
        if (c == ']') {
            --brackets;
            EXPECT_NE(prev_significant, ',');
        }
        if (!std::isspace(static_cast<unsigned char>(c)))
            prev_significant = c;
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_NE(json.find("\"format\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"cells\": ["), std::string::npos);
    EXPECT_NE(json.find("\"org_stats\": {"), std::string::npos);
    EXPECT_NE(json.find("\"web_search\""), std::string::npos);
}

TEST(Emitters, CsvQuotesAwkwardWorkloadNames)
{
    // Trace-file catalog entries are named after arbitrary file
    // stems, so a comma in a name must not corrupt the column
    // count: the field gets RFC 4180 quoting.
    ExperimentSpec spec;
    auto params = Workloads::byName("tpcc");
    params.name = "we,ird \"name\"";
    spec.workloads = {params};
    spec.schemes = {parseScheme("lru")};
    spec.instructions = 20'000;
    spec.threads = 1;
    ExperimentDriver driver(spec);
    const auto cells = driver.run();

    std::ostringstream out;
    writeResultsCsv(out, driver.spec(), cells);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1].substr(0, 18), "\"we,ird \"\"name\"\"\",");
    // Commas inside the quoted field plus the 15 real separators.
    EXPECT_EQ(countCommas(lines[1]), countCommas(lines[0]) + 1);
}

TEST(Emitters, JsonEscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Stats, DumpWritesToProvidedStream)
{
    StatSet stats;
    stats.bump("beta", 2);
    stats.set("alpha", 7);
    std::ostringstream out;
    stats.dump(out, "pfx.");
    EXPECT_EQ(out.str(), "pfx.alpha 7\npfx.beta 2\n");
}

TEST(Runner, EnvOverrideRejectsGarbage)
{
    auto params = Workloads::byName("tpcc");
    const std::uint64_t preset = params.instructions;

    for (const char *bad : {"abc", "12x", "0", "-5", ""}) {
        ::setenv("ACIC_TRACE_LEN", bad, 1);
        EXPECT_EQ(withEnvOverrides(params).instructions, preset)
            << "value '" << bad << "' must be rejected";
    }
    ::setenv("ACIC_TRACE_LEN", "2345", 1);
    EXPECT_EQ(withEnvOverrides(params).instructions, 2'345u);
    ::unsetenv("ACIC_TRACE_LEN");
}

TEST(Runner, EnvOverrideWarnsOncePerProcess)
{
    // The warning latch is per process and another test may already
    // have tripped it, so count in a freshly started child.
    const std::string style = GTEST_FLAG_GET(death_test_style);
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    EXPECT_EXIT(
        {
            ::setenv("ACIC_TRACE_LEN", "abc", 1);
            const auto params = Workloads::byName("tpcc");
            testing::internal::CaptureStderr();
            for (int i = 0; i < 3; ++i)
                (void)withEnvOverrides(params);
            const std::string err =
                testing::internal::GetCapturedStderr();
            std::size_t lines = 0;
            for (std::size_t at = err.find("ACIC_TRACE_LEN");
                 at != std::string::npos;
                 at = err.find("ACIC_TRACE_LEN", at + 1))
                ++lines;
            std::exit(lines == 1 ? 0 : 10 + static_cast<int>(lines));
        },
        testing::ExitedWithCode(0), "");
    GTEST_FLAG_SET(death_test_style, style);
}
