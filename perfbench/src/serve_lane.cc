/**
 * @file
 * serve_stream: the live path of `acic_run serve`. A producer thread
 * writes a pre-framed stream into a pipe (a closed loop: the pipe and
 * the bounded ingest ring push back on it); a StreamingTraceSource
 * decodes it, a StreamTee fans it out, and runLockstepRounds steps one
 * resident engine per scheme, calling back at every window.
 */

#include <csignal>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/telemetry.hh"
#include "driver/experiment.hh"
#include "driver/serve.hh"
#include "lanes.hh"
#include "metrics.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "sim/scheme.hh"
#include "stream_pipe.hh"
#include "trace/io.hh"
#include "trace/streaming.hh"

namespace perfbench {

namespace {

/** Lockstep round width (the `serve --step` default). */
constexpr std::uint64_t kStep = 65'536;
/** Window width: four rounds, so a window spans ~50 ms of host time
 *  and a scheduler hiccup of a few ms does not dominate its p90. */
constexpr std::uint64_t kWindow = 4 * kStep;

/** Everything one serve pass produced. */
struct ServePass
{
    std::vector<acic::SimResult> results;
    double setupS = 0.0;
    double openS = 0.0;
    double wall = 0.0;
    double cpu = 0.0;
    std::vector<double> windowMs;
    std::uint64_t delivered = 0;
    bool cleanEnd = false;
};

/** Decorators of a traced pass, one per engine, plus a probe save of
 *  each engine after the pass (serve never checkpoints); they outlive
 *  the pass so their totals can be read after it. */
struct ServeProbes
{
    explicit ServeProbes(std::string ckpt_path)
        : ckptPath(std::move(ckpt_path))
    {
    }

    std::string ckptPath;
    std::vector<std::unique_ptr<TimedSource>> sources;
    std::vector<std::unique_ptr<TimedOrg>> orgs;
    double saveS = 0.0;
    std::uint64_t saves = 0;
    std::uint64_t saveBytes = 0;
};

ServePass
servePass(const std::vector<std::uint8_t> &bytes,
          const std::vector<acic::SchemeSpec> &schemes,
          const acic::SimConfig &config,
          const acic::LockstepOptions &lockstep, ServeProbes *probes)
{
    ServePass pass;
    const double t0 = wallSeconds();
    PipeProducer producer(bytes);
    acic::StreamingTraceSource source(producer.readFd(), false);
    pass.openS = wallSeconds() - t0;
    acic::StreamTee tee(source, static_cast<unsigned>(schemes.size()));
    std::vector<std::unique_ptr<acic::IcacheOrg>> orgs;
    std::vector<std::unique_ptr<acic::SimEngine>> engines;
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        acic::TraceSource *cursor = &tee.cursor(static_cast<unsigned>(i));
        auto org = acic::makeScheme(schemes[i], config);
        acic::IcacheOrg *engine_org = org.get();
        if (probes != nullptr) {
            // The cursors are wrapped, not the upstream source: the
            // tee adopts chunks zero-copy only from a
            // ChunkedTraceSource upstream.
            probes->sources.push_back(
                std::make_unique<TimedSource>(*cursor));
            cursor = probes->sources.back().get();
            probes->orgs.push_back(
                std::make_unique<TimedOrg>(std::move(org)));
            engine_org = probes->orgs.back().get();
        } else {
            orgs.push_back(std::move(org));
        }
        engines.push_back(std::make_unique<acic::SimEngine>(
            config, *cursor, *engine_org, nullptr));
    }
    pass.setupS = wallSeconds() - t0;

    double last_window = -1.0;
    const auto on_window = [&](std::uint64_t) {
        const double now = wallSeconds();
        if (last_window >= 0.0)
            pass.windowMs.push_back((now - last_window) * 1e3);
        last_window = now;
    };
    const double w0 = wallSeconds();
    const double c0 = processCpuSeconds();
    (void)acic::runLockstepRounds(tee, engines, config, lockstep,
                                  on_window, nullptr, &source);
    for (const auto &engine : engines)
        pass.results.push_back(engine->finish());
    pass.wall = wallSeconds() - w0;
    pass.cpu = processCpuSeconds() - c0;
    pass.delivered = source.delivered();
    pass.cleanEnd = source.sawEndOfStream();
    if (probes != nullptr)
        for (const auto &engine : engines) {
            const double t = wallSeconds();
            engine->saveCheckpoint(probes->ckptPath);
            probes->saveS += wallSeconds() - t;
            ++probes->saves;
            probes->saveBytes +=
                std::filesystem::file_size(probes->ckptPath);
        }
    return pass;
}

/** Fold a traced pass's telemetry events into the layers. */
void
readTelemetry(const std::string &jsonl, double wall, unsigned threads,
              Layers &layers)
{
    std::istringstream in(jsonl);
    std::string line;
    double busy_us = 0.0;
    while (std::getline(in, line)) {
        acic::json::Value ev;
        if (!acic::json::parse(line, ev))
            continue;
        const std::string kind = ev.text("ev");
        const std::string name = ev.text("name");
        if (kind == "span" && name == "engine.warmUp") {
            layers.warmNs += ev.num("dur_us") * 1e3;
            busy_us += ev.num("dur_us");
        } else if (kind == "span" && name == "engine.measure") {
            layers.measureNs += ev.num("dur_us") * 1e3;
            busy_us += ev.num("dur_us");
        } else if (kind == "gauge" && name == "serve.ring_occupancy") {
            layers.ringOccupancy.push_back(ev.num("value"));
        } else if (kind == "gauge" && name == "serve.tee_backlog") {
            layers.teeBacklogMax =
                std::max(layers.teeBacklogMax, ev.num("value"));
        } else if (kind == "gauge" && name == "serve.round_lag_us") {
            layers.roundLagUsMax =
                std::max(layers.roundLagUsMax, ev.num("value"));
        }
    }
    layers.poolUtilization.push_back(busy_us * 1e-6 /
                                     (wall * static_cast<double>(threads)));
}

} // namespace

void
runServeLane(const Lane &lane, const RunOptions &options, Report &report,
             Checks &checks)
{
    // A producer writing into a pipe whose reader is gone must see
    // EPIPE, not die of SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    const std::string &preset = lane.presets.front();
    const std::vector<std::uint8_t> bytes =
        readBytes(streamPath(options.dir, preset));
    const std::vector<acic::SchemeSpec> schemes =
        acic::parseSchemeList(lane.schemes);
    const acic::SimConfig config;
    const std::uint64_t total = lane.instructions;
    const std::uint64_t stream_insts = total * schemes.size();

    acic::LockstepOptions lockstep;
    lockstep.warmup = static_cast<std::uint64_t>(
        static_cast<double>(total) * config.warmupFraction);
    lockstep.step = kStep;
    lockstep.window = kWindow;
    // Producer and ingest reader take one CPU each; round workers get
    // the rest.
    lockstep.threads = options.cpus > 3 ? options.cpus - 2 : 1;
    for (const acic::SchemeSpec &spec : schemes)
        lockstep.labels.push_back(spec.toString());

    // Reference: the batch driver over the same records with the
    // oracle off — the contract `serve` keeps with `run --no-oracle`.
    acic::ExperimentSpec batch;
    batch.workloads.push_back(acic::WorkloadEntry::traceFile(
        preset, tracePath(options.dir, preset)));
    batch.schemes = schemes;
    batch.threads = options.cpus;
    batch.useOracle = false;
    const std::vector<acic::CellResult> reference =
        acic::ExperimentDriver(batch).run();
    std::vector<std::string> ref_dumps;
    for (const acic::CellResult &cell : reference)
        ref_dumps.push_back(statsDump(cell.result));
    const auto compare = [&](const ServePass &pass,
                             const std::string &what) {
        checks.expect(pass.cleanEnd && pass.delivered == total,
                      what + ": stream did not end cleanly after " +
                          std::to_string(total) + " records");
        for (std::size_t i = 0; i < pass.results.size(); ++i)
            checks.expect(statsDump(pass.results[i]) == ref_dumps[i],
                          what + ": " + pass.results[i].scheme +
                              " statistics differ from the batch "
                              "driver without oracle");
    };

    // Untimed first pass: warms the page cache and the allocator.
    compare(servePass(bytes, schemes, config, lockstep, nullptr),
            "first pass");

    const double start = wallSeconds();
    if (!options.traced) {
        EndToEnd e2e;
        e2e.setExact(batch, reference);
        for (std::size_t rep = 0;
             rep < kMinReps || e2e.windowMs.size() < kMinWindows ||
             wallSeconds() - start < options.seconds;
             ++rep) {
            const ServePass pass =
                servePass(bytes, schemes, config, lockstep, nullptr);
            compare(pass, "repetition " + std::to_string(rep));
            e2e.setupS.push_back(pass.setupS);
            e2e.minstPerS.push_back(static_cast<double>(stream_insts) /
                                    pass.wall / 1e6);
            e2e.cpuNsPerInst.push_back(pass.cpu * 1e9 /
                                       static_cast<double>(stream_insts));
            e2e.cellSMax.push_back(pass.wall);
            e2e.windowMs.insert(e2e.windowMs.end(), pass.windowMs.begin(),
                                pass.windowMs.end());
        }
        e2e.report(report);
        return;
    }

    // Traced run: alternate plain and decorated passes; the decorated
    // one runs with the serve telemetry gauges and engine spans on.
    Layers layers;
    acic::Telemetry::setHeartbeatInterval(0);
    for (std::size_t rep = 0;
         rep == 0 || wallSeconds() - start < options.seconds; ++rep) {
        const ServePass plain =
            servePass(bytes, schemes, config, lockstep, nullptr);
        compare(plain, "plain pass");
        layers.cpuPlain += plain.cpu;

        std::ostringstream sink;
        acic::Telemetry::openStream(sink);
        ServeProbes probes(options.dir + "/serve.ckpt");
        const ServePass traced =
            servePass(bytes, schemes, config, lockstep, &probes);
        acic::Telemetry::close();
        compare(traced, "traced pass");
        layers.cpuTraced += traced.cpu;
        readTelemetry(sink.str(), traced.wall, lockstep.threads, layers);

        layers.loadNs += traced.openS * 1e9;
        layers.loadInsts += traced.delivered;
        layers.warmInsts += lockstep.warmup * schemes.size();
        layers.measuredInsts += (total - lockstep.warmup) * schemes.size();
        layers.simulatedInsts += stream_insts;
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            layers.pullNs += probes.sources[i]->pull.totalNs();
            const TimedOrg &org = *probes.orgs[i];
            layers.orgNs += org.accesses.totalNs() + org.fills.totalNs();
            if (schemes[i].key == "lru")
                layers.lru.add(org, total);
            if (schemes[i].key == "acic")
                layers.acic.add(org, total);
            if (rep == 0)
                layers.addResult(traced.results[i], schemes[i].key, false);
        }
        layers.ckptNs += probes.saveS * 1e9;
        layers.ckptTimed += probes.saves;
        layers.ckptBytes += probes.saveBytes;
        if (rep == 0)
            layers.recordsDecoded = traced.delivered;
        timeStreamDecode(bytes, layers);
    }

    // The live lane has no oracle. The oracle layer is timed on, and
    // ACIC's decision accuracy taken from, an oracle replay of the same
    // records through the batch path — never from the oracle-less
    // counters.
    acic::FileTraceSource file(tracePath(options.dir, preset));
    const acic::SharedWorkload shared(file, config);
    const double t = wallSeconds();
    layers.distinctBlocks = shared.oracle().distinctBlocks();
    layers.oracleNs += (wallSeconds() - t) * 1e9;
    layers.oracleInsts += shared.instructions();
    for (const acic::SchemeSpec &spec : schemes)
        if (spec.key == "acic") {
            const acic::SimResult r = shared.run(spec);
            layers.decisions += r.orgStats.get("acic.decisions");
            layers.decisionsCorrect +=
                r.orgStats.get("acic.decisions_correct");
        }
    layers.report(report);
}

} // namespace perfbench
