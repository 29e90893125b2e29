/**
 * @file
 * Batch lanes (dc_sweep, spec_ckpt_sweep): the recorded traces run as
 * one workloads x schemes matrix through ExperimentDriver — the path
 * `acic_run run --trace-dir` takes — on a pool of one worker per CPU.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "driver/experiment.hh"
#include "lanes.hh"
#include "metrics.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "sim/scheme.hh"
#include "stream_pipe.hh"
#include "trace/catalog.hh"
#include "trace/io.hh"

namespace perfbench {

namespace {

acic::ExperimentSpec
sweepSpec(const Lane &lane, const RunOptions &options)
{
    acic::ExperimentSpec spec;
    for (const std::string &preset : lane.presets)
        spec.workloads.push_back(acic::WorkloadEntry::traceFile(
            preset, tracePath(options.dir, preset)));
    spec.schemes = acic::parseSchemeList(lane.schemes);
    spec.threads = options.cpus;
    if (lane.checkpointEvery != 0) {
        spec.checkpointDir = options.dir + "/checkpoints";
        spec.checkpointEvery = lane.checkpointEvery;
    }
    return spec;
}

struct DriverPass
{
    std::vector<acic::CellResult> cells;
    double wall = 0.0;
    double cpu = 0.0;
};

/** One ExperimentDriver::run(). A checkpointed sweep starts from an
 *  empty directory, or it would skip the cells a previous pass
 *  published. */
DriverPass
runDriver(const acic::ExperimentSpec &spec,
          const acic::ExperimentDriver::Observer &observer = {})
{
    if (!spec.checkpointDir.empty())
        std::filesystem::remove_all(spec.checkpointDir);
    acic::ExperimentDriver driver(spec);
    DriverPass pass;
    const double w0 = wallSeconds();
    const double c0 = processCpuSeconds();
    pass.cells = driver.run(observer);
    pass.wall = wallSeconds() - w0;
    pass.cpu = processCpuSeconds() - c0;
    if (!spec.checkpointDir.empty())
        std::filesystem::remove_all(spec.checkpointDir);
    return pass;
}

/**
 * The driver's per-workload set-up, performed standalone: decode the
 * recorded file into a shared image, then build the Belady oracle.
 * The driver prepares workloads concurrently, so the slowest one is
 * its set-up critical path.
 */
struct Setup
{
    double wall = 0.0;
    double cpu = 0.0;
    double slowest = 0.0;
};

Setup
timeSetup(const Lane &lane, const RunOptions &options,
          const acic::SimConfig &config)
{
    Setup setup;
    for (const std::string &preset : lane.presets) {
        const double w0 = wallSeconds();
        const double c0 = processCpuSeconds();
        acic::FileTraceSource file(tracePath(options.dir, preset));
        acic::SharedWorkload shared(file, config);
        (void)shared.oracle();
        const double wall = wallSeconds() - w0;
        setup.cpu += processCpuSeconds() - c0;
        setup.wall += wall;
        setup.slowest = std::max(setup.slowest, wall);
    }
    return setup;
}

/** Host time of one replayed cell's engine phases. */
struct PhaseTimes
{
    double warmS = 0.0;
    double measureS = 0.0;
    double saveS = 0.0;
    std::uint64_t saves = 0;
    std::uint64_t saveBytes = 0;
};

/**
 * Step @p engine the way the driver's worker does: warm up
 * warmupFraction of the trace, measure the rest, and on a
 * checkpointed lane snapshot to @p ckpt_path every checkpointEvery
 * instructions (SharedWorkload::runCheckpointed's plan).
 */
PhaseTimes
stepCell(acic::SimEngine &engine, std::uint64_t total,
         const acic::SimConfig &config, const Lane &lane,
         const std::string &ckpt_path)
{
    PhaseTimes times;
    const auto warm = static_cast<std::uint64_t>(
        static_cast<double>(total) * config.warmupFraction);
    const std::uint64_t every =
        lane.checkpointEvery == 0 ? total : lane.checkpointEvery;
    double t = wallSeconds();
    engine.warmUp(warm);
    times.warmS = wallSeconds() - t;
    while (engine.plannedTarget() < total) {
        const std::uint64_t left = total - engine.plannedTarget();
        t = wallSeconds();
        engine.measure(std::min(left, every));
        times.measureS += wallSeconds() - t;
        if (lane.checkpointEvery != 0 &&
            engine.plannedTarget() < total) {
            t = wallSeconds();
            engine.saveCheckpoint(ckpt_path);
            times.saveS += wallSeconds() - t;
            ++times.saves;
            times.saveBytes += std::filesystem::file_size(ckpt_path);
        }
    }
    return times;
}

/**
 * Replay one cell serially, plain or @p traced through the timing
 * decorators. Its process CPU time, excluding any probe save, goes to
 * the plain or traced total of @p layers; the per-layer figures are
 * taken from traced replays only.
 */
acic::SimResult
replayCell(const acic::SharedWorkload &shared,
           const acic::SchemeSpec &scheme, const Lane &lane,
           const std::string &ckpt_path, bool traced, Layers &layers)
{
    const double cpu0 = processCpuSeconds();
    const acic::SimConfig &config = shared.config();
    const std::uint64_t total = shared.instructions();
    auto org = acic::makeScheme(scheme, config);
    acic::MemoryTraceSource cursor = shared.source();
    if (!traced) {
        acic::SimEngine engine(config, cursor, *org, &shared.oracle());
        (void)stepCell(engine, total, config, lane, ckpt_path);
        acic::SimResult result = engine.finish();
        layers.cpuPlain += processCpuSeconds() - cpu0;
        return result;
    }

    TimedSource source(cursor);
    TimedOrg timed(std::move(org));
    acic::SimEngine engine(config, source, timed, &shared.oracle());
    PhaseTimes times = stepCell(engine, total, config, lane, ckpt_path);
    acic::SimResult result = engine.finish();
    layers.cpuTraced += processCpuSeconds() - cpu0;
    layers.ckptPlanned += times.saves;
    if (lane.checkpointEvery == 0) {
        // This lane never checkpoints; one save of the finished engine
        // still gives the serializer's cost on its state.
        const double t = wallSeconds();
        engine.saveCheckpoint(ckpt_path);
        times.saveS += wallSeconds() - t;
        ++times.saves;
        times.saveBytes += std::filesystem::file_size(ckpt_path);
    }
    const auto warm = static_cast<std::uint64_t>(
        static_cast<double>(total) * config.warmupFraction);
    layers.pullNs += source.pull.totalNs();
    layers.orgNs += timed.accesses.totalNs() + timed.fills.totalNs();
    layers.warmNs += times.warmS * 1e9;
    layers.measureNs += times.measureS * 1e9;
    layers.warmInsts += warm;
    layers.measuredInsts += total - warm;
    layers.simulatedInsts += total;
    layers.ckptNs += times.saveS * 1e9;
    layers.ckptBytes += times.saveBytes;
    layers.ckptTimed += times.saves;
    if (scheme.key == "lru")
        layers.lru.add(timed, total);
    if (scheme.key == "acic")
        layers.acic.add(timed, total);
    return result;
}

} // namespace

void
runSweepLane(const Lane &lane, const RunOptions &options,
             Report &report, Checks &checks)
{
    const acic::ExperimentSpec spec = sweepSpec(lane, options);
    const std::size_t n_schemes = spec.schemes.size();
    const std::uint64_t pass_insts =
        lane.instructions * spec.cellCount();

    // The first pass is untimed: it warms the page cache and the
    // allocator, and its statistics are the reference every later
    // pass, replay and traced replay must reproduce exactly.
    const DriverPass reference = runDriver(spec);
    std::vector<std::string> ref_dumps;
    for (const acic::CellResult &cell : reference.cells) {
        checks.expect(cell.done, "reference pass left a cell undone");
        ref_dumps.push_back(statsDump(cell.result));
    }
    const auto compare = [&](const acic::SimResult &r, std::size_t i,
                             const std::string &what) {
        checks.expect(statsDump(r) == ref_dumps[i],
                      what + ": " + r.workload + "/" + r.scheme +
                          " statistics differ from the reference "
                          "pass");
    };

    const double start = wallSeconds();
    if (!options.traced) {
        EndToEnd e2e;
        e2e.setExact(spec, reference.cells);
        for (std::size_t rep = 0;
             rep < kMinReps || e2e.windowMs.size() < kMinWindows ||
             wallSeconds() - start < options.seconds;
             ++rep) {
            const Setup setup = timeSetup(lane, options, spec.config);
            const DriverPass pass = runDriver(spec);
            e2e.setupS.push_back(setup.wall);
            e2e.minstPerS.push_back(
                static_cast<double>(pass_insts) /
                (pass.wall - setup.slowest) / 1e6);
            e2e.cpuNsPerInst.push_back((pass.cpu - setup.cpu) * 1e9 /
                                       static_cast<double>(pass_insts));
            double slowest = 0.0;
            for (std::size_t i = 0; i < pass.cells.size(); ++i) {
                const acic::CellResult &cell = pass.cells[i];
                slowest = std::max(slowest, cell.hostSeconds);
                e2e.windowMs.push_back(cell.hostSeconds * 1e3);
                compare(cell.result, i,
                        "repetition " + std::to_string(rep));
            }
            e2e.cellSMax.push_back(slowest);
        }
        e2e.report(report);
        return;
    }

    // Traced run. The driver pass gives pool utilization; every cell
    // is then replayed serially, once plain (the untraced CPU cost)
    // and once through the timing decorators, and both must match
    // the reference produced by the parallel driver.
    Layers layers;
    const std::string ckpt_path = options.dir + "/replay.ckpt";
    std::vector<std::vector<std::uint8_t>> streams;
    for (const std::string &preset : lane.presets)
        streams.push_back(readBytes(streamPath(options.dir, preset)));
    for (std::size_t rep = 0;
         rep == 0 || wallSeconds() - start < options.seconds; ++rep) {
        // The pass is one round with a barrier at its end: the lag is
        // how long the first worker to run out of cells waits for the
        // last one.
        std::map<std::thread::id, double> last_done;
        const DriverPass pass =
            runDriver(spec, [&](const acic::CellResult &) {
                last_done[std::this_thread::get_id()] = wallSeconds();
            });
        double first_idle = last_done.begin()->second;
        double last_idle = first_idle;
        for (const auto &[worker, at] : last_done) {
            first_idle = std::min(first_idle, at);
            last_idle = std::max(last_idle, at);
        }
        layers.roundLagUsMax =
            std::max(layers.roundLagUsMax, (last_idle - first_idle) * 1e6);
        double busy = 0.0;
        for (std::size_t i = 0; i < pass.cells.size(); ++i) {
            busy += pass.cells[i].hostSeconds;
            compare(pass.cells[i].result, i,
                    "driver repetition " + std::to_string(rep));
        }
        layers.poolUtilization.push_back(
            busy / (pass.wall * static_cast<double>(options.cpus)));

        for (std::size_t w = 0; w < lane.presets.size(); ++w) {
            double t = wallSeconds();
            acic::FileTraceSource file(
                tracePath(options.dir, lane.presets[w]));
            TimedSource counted(file);
            acic::SharedWorkload shared(counted, spec.config);
            layers.loadNs += (wallSeconds() - t) * 1e9;
            layers.loadInsts += shared.instructions();
            t = wallSeconds();
            const acic::DemandOracle &oracle = shared.oracle();
            layers.oracleNs += (wallSeconds() - t) * 1e9;
            layers.oracleInsts += shared.instructions();
            if (rep == 0) {
                layers.recordsDecoded += counted.records;
                layers.distinctBlocks += oracle.distinctBlocks();
            }
            timeStreamDecode(streams[w], layers);
            for (std::size_t s = 0; s < n_schemes; ++s) {
                const std::size_t cell = w * n_schemes + s;
                const acic::SimResult plain = replayCell(
                    shared, spec.schemes[s], lane, ckpt_path, false, layers);
                const acic::SimResult traced = replayCell(
                    shared, spec.schemes[s], lane, ckpt_path, true, layers);
                compare(plain, cell, "serial replay");
                compare(traced, cell, "traced replay");
                if (rep == 0)
                    layers.addResult(traced, spec.schemes[s].key, true);
            }
        }
        if (rep == 0)
            layers.ckptSaves = layers.ckptPlanned;
    }
    std::filesystem::remove(ckpt_path);
    layers.report(report);
}

} // namespace perfbench
