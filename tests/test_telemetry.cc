/**
 * @file
 * Telemetry-layer tests: the JSONL sink (schema validity of every
 * emitted line, span nesting depths, per-thread buffer interleaving),
 * the engine heartbeat cadence, the common/json parser the report
 * command is built on, writeTelemetryReport() itself, and the
 * non-negotiable invariant that enabling telemetry leaves simulation
 * results byte-identical.
 *
 * Telemetry is a process-wide facility, so every test that opens the
 * sink closes it before returning (TelemetrySession below) — leaking
 * an enabled sink would bleed spans into unrelated tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/table.hh"
#include "common/telemetry.hh"
#include "driver/emitters.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "sim/runner.hh"
#include "trace/workload_params.hh"

using namespace acic;

namespace {

/** RAII sink-to-stringstream session; restores global state. */
class TelemetrySession
{
  public:
    TelemetrySession() { Telemetry::openStream(out_); }
    ~TelemetrySession()
    {
        Telemetry::close();
        Telemetry::setHeartbeatInterval(1'000'000);
    }

    /** close() and return the drained JSONL text. */
    std::string finish()
    {
        Telemetry::close();
        return out_.str();
    }

  private:
    std::ostringstream out_;
};

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** Parse every line; fail the test on the first invalid one. */
std::vector<json::Value>
parseAll(const std::vector<std::string> &lines)
{
    std::vector<json::Value> events;
    for (const std::string &line : lines) {
        json::Value ev;
        std::string err;
        EXPECT_TRUE(json::parse(line, ev, &err))
            << "invalid JSONL line: " << line << " (" << err << ")";
        EXPECT_TRUE(ev.isObject()) << line;
        events.push_back(std::move(ev));
    }
    return events;
}

/** The first datacenter preset, truncated for test speed. */
WorkloadParams
smallWorkload(std::uint64_t instructions)
{
    WorkloadParams params = Workloads::datacenter().front();
    params.instructions = instructions;
    return params;
}

} // namespace

TEST(Telemetry, DisabledByDefaultAndScopesAreDead)
{
    ASSERT_FALSE(Telemetry::enabled());
    TelemetryScope span("should.not.appear");
    EXPECT_FALSE(span.live());
    // No sink: these must be safe no-ops, not crashes.
    Telemetry::counter("noop", {{"k", std::uint64_t{1}}});
    Telemetry::gauge("noop", 1.0);
}

TEST(Telemetry, MetaLineFirstAndSchemaValid)
{
    TelemetrySession session;
    {
        TelemetryScope span("outer");
        span.attr("workload", std::string("w \"quoted\""));
        span.attr("count", std::uint64_t{42});
        span.attr("ratio", 0.25);
        TelemetryScope inner("inner");
    }
    Telemetry::counter("ticks", {{"n", std::uint64_t{7}}});
    Telemetry::gauge("depth", 3.5);

    const auto lines = splitLines(session.finish());
    ASSERT_GE(lines.size(), 4u);
    const auto events = parseAll(lines);

    EXPECT_EQ(events.front().text("ev"), "meta");
    EXPECT_EQ(events.front().num("version"), 1.0);

    std::set<std::string> kinds;
    for (const json::Value &ev : events) {
        const std::string kind = ev.text("ev");
        kinds.insert(kind);
        if (kind == "meta")
            continue;
        EXPECT_FALSE(ev.text("name").empty());
        EXPECT_NE(ev.find("t_us"), nullptr);
        EXPECT_NE(ev.find("tid"), nullptr);
        if (kind == "span")
            EXPECT_NE(ev.find("dur_us"), nullptr);
        if (kind == "gauge")
            EXPECT_DOUBLE_EQ(ev.num("value"), 3.5);
    }
    EXPECT_EQ(kinds,
              (std::set<std::string>{"meta", "span", "count",
                                     "gauge"}));

    // The escaped attribute must round-trip through the parser.
    for (const json::Value &ev : events) {
        if (ev.text("name") != "outer")
            continue;
        const json::Value *attrs = ev.find("attrs");
        ASSERT_NE(attrs, nullptr);
        EXPECT_EQ(attrs->text("workload"), "w \"quoted\"");
        EXPECT_EQ(attrs->num("count"), 42.0);
        EXPECT_DOUBLE_EQ(attrs->num("ratio"), 0.25);
    }
}

TEST(Telemetry, SpanNestingDepths)
{
    TelemetrySession session;
    {
        TelemetryScope a("a");
        {
            TelemetryScope b("b");
            TelemetryScope c("c");
        }
        TelemetryScope d("d");
    }
    const auto events = parseAll(splitLines(session.finish()));
    int found = 0;
    for (const json::Value &ev : events) {
        if (ev.text("ev") != "span")
            continue;
        ++found;
        const std::string name = ev.text("name");
        const double depth = ev.num("depth", -1.0);
        if (name == "a")
            EXPECT_EQ(depth, 0.0);
        else if (name == "b" || name == "d")
            EXPECT_EQ(depth, 1.0);
        else if (name == "c")
            EXPECT_EQ(depth, 2.0);
    }
    EXPECT_EQ(found, 4);
}

TEST(Telemetry, ThreadsInterleaveWithDistinctTids)
{
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 200;
    TelemetrySession session;
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([] {
                for (int i = 0; i < kSpansPerThread; ++i) {
                    TelemetryScope span("worker.span");
                    Telemetry::gauge("worker.i",
                                     static_cast<double>(i));
                }
            });
        for (std::thread &t : threads)
            t.join();
    }
    const auto events = parseAll(splitLines(session.finish()));

    std::set<double> tids;
    int spans = 0;
    for (const json::Value &ev : events) {
        if (ev.text("ev") != "span")
            continue;
        ++spans;
        tids.insert(ev.num("tid", -1.0));
    }
    // Every span from every thread survived the interleaved drain...
    EXPECT_EQ(spans, kThreads * kSpansPerThread);
    // ...and buffers kept per-thread identity (one tid per thread;
    // the main thread emitted no span here).
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(Telemetry, EngineHeartbeatsFollowCadence)
{
    Telemetry::setHeartbeatInterval(20'000);
    TelemetrySession session;
    SharedWorkload workload(smallWorkload(100'000));
    (void)workload.run(parseScheme("lru"));

    const auto events = parseAll(splitLines(session.finish()));
    int heartbeats = 0;
    for (const json::Value &ev : events) {
        if (ev.text("ev") != "count" ||
            ev.text("name") != "engine.heartbeat")
            continue;
        ++heartbeats;
        const json::Value *attrs = ev.find("attrs");
        ASSERT_NE(attrs, nullptr);
        EXPECT_GT(attrs->num("retired"), 0.0);
        EXPECT_GT(attrs->num("window_insts"), 0.0);
        EXPECT_GE(attrs->num("window_mpki"), 0.0);
        EXPECT_GT(attrs->num("window_ipc"), 0.0);
        EXPECT_GT(attrs->num("minst_per_s"), 0.0);
    }
    // 100k retired at a 20k cadence: 5 beats, give or take the
    // boundary (the engine checks after each retire bundle).
    EXPECT_GE(heartbeats, 4);
    EXPECT_LE(heartbeats, 6);

    // Phase spans from the same run must be present too.
    std::set<std::string> names;
    for (const json::Value &ev : events)
        if (ev.text("ev") == "span")
            names.insert(ev.text("name"));
    EXPECT_TRUE(names.count("engine.measure"));
    EXPECT_TRUE(names.count("engine.warmUp"));
}

TEST(Telemetry, ResultsAreByteIdenticalWithTelemetryOn)
{
    const WorkloadParams params = smallWorkload(60'000);
    SharedWorkload workload(params);

    const auto dump = [&](const char *spec) {
        std::ostringstream out;
        writeGoldenDump(out, workload.run(parseScheme(spec)));
        return out.str();
    };

    ASSERT_FALSE(Telemetry::enabled());
    const std::string off_lru = dump("lru");
    const std::string off_acic = dump("acic");
    std::string on_lru, on_acic;
    {
        Telemetry::setHeartbeatInterval(10'000);
        TelemetrySession session;
        on_lru = dump("lru");
        on_acic = dump("acic");
        // The sink must actually have been exercised, or this test
        // proves nothing.
        EXPECT_NE(session.finish().find("engine.heartbeat"),
                  std::string::npos);
    }
    EXPECT_EQ(off_lru, on_lru);
    EXPECT_EQ(off_acic, on_acic);
}

TEST(TelemetryReport, EngineClockIsTheSameAtAnyThreadCount)
{
    // Cycles and stepped cycles are deterministic work counters: the
    // engine.warmUp/engine.measure spans carry them, and the report's
    // clock table must read the same from a serial and a parallel
    // run of one matrix.
    const auto clockTable = [](unsigned threads) {
        ExperimentSpec spec;
        spec.workloads = {smallWorkload(60'000),
                          Workloads::byName("tpcc")};
        spec.workloads[1].params.instructions = 60'000;
        spec.schemes = parseSchemeList("lru,acic");
        spec.threads = threads;
        std::string jsonl;
        {
            TelemetrySession session;
            ExperimentDriver driver(spec);
            (void)driver.run();
            jsonl = session.finish();
        }
        std::istringstream in(jsonl);
        std::ostringstream out;
        std::string error;
        EXPECT_TRUE(writeTelemetryReport(in, out, ReportOptions{}, error))
            << error;
        const std::string text = out.str();
        const std::size_t at = text.find("Engine clock");
        EXPECT_NE(at, std::string::npos) << text;
        return at == std::string::npos
                   ? std::string()
                   : text.substr(at, text.find("\n\n", at) - at);
    };
    const std::string serial = clockTable(1);
    EXPECT_NE(serial.find("engine.measure"), std::string::npos) << serial;
    EXPECT_EQ(serial, clockTable(4));
}

TEST(TelemetryReport, CheckpointTableCountsSavesAndLoads)
{
    // A run that saves an in-flight image every 20K instructions,
    // then a rerun that resumes from the last one: the spans carry
    // each file's size as `bytes`, and the report's checkpoint table
    // counts the images and averages their size.
    SharedWorkload workload(smallWorkload(60'000));
    const std::string path = "acic_test_report.ckpt";
    std::remove(path.c_str());
    const InflightCheckpoint inflight{path, 20'000};
    std::string jsonl;
    {
        TelemetrySession session;
        auto first = makeScheme(parseScheme("acic"), workload.config());
        (void)workload.run(*first, workload.wholeRun(), nullptr,
                           &inflight);
        auto second = makeScheme(parseScheme("acic"), workload.config());
        const InflightCheckpoint resume{path, 0};
        (void)workload.run(*second, workload.wholeRun(), nullptr,
                           &resume);
        jsonl = session.finish();
    }
    const double mib =
        static_cast<double>(std::filesystem::file_size(path)) /
        (1024.0 * 1024.0);
    std::remove(path.c_str());

    std::uint64_t saves = 0, loads = 0;
    for (const json::Value &ev : parseAll(splitLines(jsonl))) {
        const std::string name = ev.text("name");
        if (name != "engine.saveCheckpoint" &&
            name != "engine.loadCheckpoint")
            continue;
        const json::Value *attrs = ev.find("attrs");
        ASSERT_NE(attrs, nullptr);
        EXPECT_NEAR(attrs->num("bytes") / (1024.0 * 1024.0), mib, 0.05)
            << name;
        ++(name == "engine.saveCheckpoint" ? saves : loads);
    }
    // 54K measured instructions in 20K chunks: saves after the first
    // two; the rerun loads the second and finishes without saving.
    EXPECT_EQ(saves, 2u);
    EXPECT_EQ(loads, 1u);

    std::istringstream in(jsonl);
    std::ostringstream out;
    std::string error;
    ASSERT_TRUE(writeTelemetryReport(in, out, ReportOptions{}, error))
        << error;
    const std::string text = out.str();
    const std::size_t at = text.find("Checkpoints");
    ASSERT_NE(at, std::string::npos) << text;
    const std::string table = text.substr(at, text.find("\n\n", at) - at);
    // Rows read: op, images, MiB/image, ms/image, MiB/s.
    std::map<std::string, std::vector<std::string>> rows;
    std::istringstream lines(table);
    for (std::string line; std::getline(lines, line);) {
        std::istringstream cells(line);
        std::vector<std::string> row;
        for (std::string cell; cells >> cell;)
            row.push_back(cell);
        if (row.size() == 5)
            rows[row[0]] = row;
    }
    ASSERT_TRUE(rows.count("save") && rows.count("load")) << table;
    EXPECT_EQ(rows["save"][1], "2");
    EXPECT_EQ(rows["load"][1], "1");
    EXPECT_NEAR(std::stod(rows["save"][2]), mib, 0.05) << table;
    EXPECT_EQ(rows["load"][2], TablePrinter::fmt(mib, 2)) << table;
}

TEST(JsonParser, ParsesScalarsContainersAndEscapes)
{
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(
        R"({"s":"a\"bé","n":-1.5e2,"t":true,"f":false,)"
        R"("z":null,"arr":[1,2,3],"obj":{"k":"v"}})",
        v, &err))
        << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.text("s"), "a\"b\xc3\xa9");
    EXPECT_EQ(v.num("n"), -150.0);
    const json::Value *arr = v.find("arr");
    ASSERT_NE(arr, nullptr);
    ASSERT_EQ(arr->kind, json::Value::Kind::Array);
    EXPECT_EQ(arr->items.size(), 3u);
    const json::Value *obj = v.find("obj");
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->text("k"), "v");
}

TEST(JsonParser, RejectsMalformedInput)
{
    json::Value v;
    EXPECT_FALSE(json::parse("", v));
    EXPECT_FALSE(json::parse("{", v));
    EXPECT_FALSE(json::parse("{\"a\":}", v));
    EXPECT_FALSE(json::parse("[1,2,]", v));
    EXPECT_FALSE(json::parse("{} trailing", v));
    EXPECT_FALSE(json::parse("\"unterminated", v));
}

TEST(TelemetryReport, SummarizesAStreamAndRejectsEmptyInput)
{
    // A run's worth of events, hand-written so the test pins the
    // report against the documented schema, not the emitter.
    std::istringstream in(
        "{\"ev\":\"meta\",\"version\":1,\"heartbeat_insts\":1000}\n"
        "{\"ev\":\"span\",\"name\":\"driver.cell\",\"tid\":1,"
        "\"t_us\":0,\"dur_us\":2000000,\"depth\":0,\"attrs\":"
        "{\"workload\":\"w1\",\"scheme\":\"LRU\"}}\n"
        "{\"ev\":\"span\",\"name\":\"driver.cell\",\"tid\":2,"
        "\"t_us\":0,\"dur_us\":500000,\"depth\":0,\"attrs\":"
        "{\"workload\":\"w2\",\"scheme\":\"ACIC\"}}\n"
        "{\"ev\":\"count\",\"name\":\"engine.heartbeat\",\"tid\":1,"
        "\"t_us\":1000,\"attrs\":{\"window_insts\":1000,"
        "\"window_mpki\":25.0,\"window_ipc\":0.5,"
        "\"minst_per_s\":10.0}}\n"
        "not json at all\n"
        "{\"ev\":\"gauge\",\"name\":\"driver.queue_depth\","
        "\"tid\":1,\"t_us\":5,\"value\":3}\n");
    std::ostringstream out;
    std::string error;
    ASSERT_TRUE(
        writeTelemetryReport(in, out, ReportOptions{}, error))
        << error;
    const std::string text = out.str();
    EXPECT_NE(text.find("5 events"), std::string::npos) << text;
    EXPECT_NE(text.find("1 unparseable"), std::string::npos);
    EXPECT_NE(text.find("Phase time breakdown"), std::string::npos);
    EXPECT_NE(text.find("Slowest cells"), std::string::npos);
    // w1/LRU (2.0 s) must rank above w2/ACIC (0.5 s).
    EXPECT_LT(text.find("w1"), text.find("w2"));
    EXPECT_NE(text.find("Heartbeats"), std::string::npos);
    EXPECT_NE(text.find("driver.queue_depth"), std::string::npos);

    std::istringstream empty("\n\n");
    std::ostringstream out2;
    EXPECT_FALSE(
        writeTelemetryReport(empty, out2, ReportOptions{}, error));
    EXPECT_FALSE(error.empty());

    std::istringstream junk("only\ngarbage\nlines\n");
    std::ostringstream out3;
    EXPECT_FALSE(
        writeTelemetryReport(junk, out3, ReportOptions{}, error));
}

TEST(TelemetryReport, TopCellsOptionTruncates)
{
    std::ostringstream stream;
    for (int i = 0; i < 8; ++i)
        stream << "{\"ev\":\"span\",\"name\":\"driver.cell\","
                  "\"tid\":1,\"t_us\":0,\"dur_us\":"
               << (1000 + i)
               << ",\"depth\":0,\"attrs\":{\"workload\":\"w"
               << i << "\",\"scheme\":\"LRU\"}}\n";
    std::istringstream in(stream.str());
    std::ostringstream out;
    std::string error;
    ReportOptions options;
    options.topCells = 3;
    ASSERT_TRUE(writeTelemetryReport(in, out, options, error));
    const std::string text = out.str();
    // Slowest three are w7, w6, w5; w0 must have been cut.
    EXPECT_NE(text.find("w7"), std::string::npos);
    EXPECT_NE(text.find("w5"), std::string::npos);
    EXPECT_EQ(text.find("w0 "), std::string::npos);
}
