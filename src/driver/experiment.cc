#include "driver/experiment.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/telemetry.hh"
#include "driver/thread_pool.hh"
#include "trace/io.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace acic {

namespace {

/**
 * Pool-health gauges emitted as each cell/shard task finishes: how
 * deep the work queue is and what fraction of workers is busy. Cheap
 * (two locked size reads) and only on the cold per-task epilogue.
 */
void
emitPoolGauges(const ThreadPool &pool)
{
    if (!Telemetry::enabled())
        return;
    Telemetry::gauge("driver.queue_depth",
                     static_cast<double>(pool.queued()));
    const unsigned threads = pool.threads();
    if (threads > 0)
        Telemetry::gauge("driver.pool_utilization",
                         static_cast<double>(pool.running()) /
                             threads);
}

/** Payload tag of completed-cell checkpoint files. */
constexpr char kCellTag[4] = {'C', 'E', 'L', 'L'};

std::string
cellFilePath(const std::string &dir, std::size_t w, std::size_t s)
{
    return dir + "/cells/cell_" + std::to_string(w) + "_" +
           std::to_string(s) + ".bin";
}

std::string
inflightFilePath(const std::string &dir, std::size_t w,
                 std::size_t s)
{
    return dir + "/inflight/cell_" + std::to_string(w) + "_" +
           std::to_string(s) + ".ckpt";
}

/**
 * Publish one finished cell to its "CELL" container: the identity
 * (workload and canonical scheme spec, validated on reload), the full
 * SimResult, and the host seconds. Atomic via CheckpointWriter.
 */
void
writeCellFile(const std::string &path, const ExperimentSpec &spec,
              const CellResult &cell)
{
    CheckpointWriter out(path, kCellTag);
    Serializer &s = out.payload();
    s.str(spec.workloads[cell.workloadIndex].name());
    s.str(spec.schemes[cell.schemeIndex].toString());
    cell.result.save(s);
    s.f64(cell.hostSeconds);
    out.commit();
}

/**
 * Load a completed-cell file if present. Returns false when the file
 * does not exist; throws SerializeError on corruption or when the
 * stored identity does not match cell (w, s) of the running spec.
 */
bool
loadCellFile(const std::string &path, const ExperimentSpec &spec,
             std::size_t w, std::size_t s, CellResult &out)
{
    {
        std::ifstream probe(path, std::ios::binary);
        if (!probe.good())
            return false;
    }
    const std::vector<std::uint8_t> payload =
        readCheckpointFile(path, kCellTag);
    Deserializer d(payload);
    const std::string workload = d.str();
    const std::string scheme = d.str();
    if (workload != spec.workloads[w].name() ||
        scheme != spec.schemes[s].toString())
        throw SerializeError(
            "checkpoint cell file " + path + " holds (" + workload +
            ", " + scheme + "), but the running sweep places (" +
            spec.workloads[w].name() + ", " +
            spec.schemes[s].toString() +
            ") at that cell — the checkpoint directory belongs to a "
            "different sweep");
    out.workloadIndex = w;
    out.schemeIndex = s;
    out.result.load(d);
    out.hostSeconds = d.f64();
    d.finish();
    out.done = true;
    return true;
}

/**
 * Remove what a killed run leaves behind for the cells this shard
 * owns: the in-flight snapshot of a cell published before the kill
 * could remove it (that cell is preloaded now, so nothing else would
 * ever remove it), and the `.tmp.*` orphans of a checkpoint write
 * cut short. Cells of sibling shards are left alone — their
 * processes share the directory and may be mid-write.
 */
void
removeStaleFiles(const ExperimentSpec &spec,
                 const std::vector<bool> &preloaded)
{
    namespace fs = std::filesystem;
    const std::string &dir = spec.checkpointDir;
    const std::size_t n_schemes = spec.schemes.size();
    std::unordered_set<std::string> owned; // file names of owned cells
    for (std::size_t w = 0; w < spec.workloads.size(); ++w)
        for (std::size_t s = 0; s < n_schemes; ++s) {
            if (!spec.ownsCell(w, s))
                continue;
            const std::string inflight = inflightFilePath(dir, w, s);
            if (preloaded[w * n_schemes + s])
                std::remove(inflight.c_str());
            owned.insert(fs::path(inflight).filename().string());
            owned.insert(
                fs::path(cellFilePath(dir, w, s)).filename().string());
        }
    for (const char *sub : {"/cells", "/inflight"})
        for (const auto &entry : fs::directory_iterator(dir + sub)) {
            const std::string name = entry.path().filename().string();
            const std::size_t tmp = name.find(".tmp.");
            if (tmp != std::string::npos &&
                owned.count(name.substr(0, tmp)) != 0) {
                std::error_code ignored;
                fs::remove(entry.path(), ignored);
            }
        }
}

/**
 * The manifest pins everything that defines the sweep's result
 * identity — the matrix shape and the instruction budget — so a
 * restart (or a sibling shard) with a different spec is rejected
 * instead of silently mixing incompatible cells.
 */
std::string
manifestText(const ExperimentSpec &spec)
{
    std::ostringstream out;
    out << "{\n  \"format\": 1,\n  \"workloads\": [";
    for (std::size_t w = 0; w < spec.workloads.size(); ++w)
        out << (w ? ", " : "") << '"'
            << json::escape(spec.workloads[w].name()) << '"';
    out << "],\n  \"schemes\": [";
    for (std::size_t s = 0; s < spec.schemes.size(); ++s)
        out << (s ? ", " : "") << '"'
            << json::escape(spec.schemes[s].toString()) << '"';
    out << "],\n  \"instructions\": " << spec.instructions
        << ",\n  \"intervals\": " << spec.intervals
        << ",\n  \"interval_warmup\": " << spec.intervalWarmup
        << ",\n  \"warm_horizon\": " << spec.warmHorizon
        << ",\n  \"use_oracle\": "
        << (spec.useOracle ? "true" : "false") << "\n}\n";
    return out.str();
}

/**
 * Write or validate `<dir>/manifest.json`. Concurrent shard
 * processes may race to create it; both write identical content
 * through a temp-file + rename, so the race is benign.
 */
void
ensureManifest(const std::string &dir, const ExperimentSpec &spec)
{
    const std::string path = dir + "/manifest.json";
    const std::string want = manifestText(spec);
    std::ifstream in(path);
    if (in.good()) {
        std::ostringstream have;
        have << in.rdbuf();
        if (have.str() != want)
            throw SerializeError(
                "checkpoint directory " + dir +
                " was created for a different sweep (manifest.json "
                "does not match this workload x scheme matrix); use "
                "a fresh --checkpoint-dir or rerun the original "
                "spec");
        return;
    }
    std::string tmp = path + ".tmp";
#if defined(__unix__) || defined(__APPLE__)
    tmp += "." + std::to_string(static_cast<long>(getpid()));
#endif
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            throw SerializeError("cannot write sweep manifest " +
                                 tmp);
        out << want;
        out.flush();
        if (!out)
            throw SerializeError("short write to sweep manifest " +
                                 tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SerializeError("cannot rename sweep manifest " + tmp +
                             " over " + path);
    }
}

} // namespace

ExperimentDriver::ExperimentDriver(ExperimentSpec spec)
    : spec_(std::move(spec))
{
    ACIC_ASSERT(!spec_.workloads.empty(),
                "experiment spec names no workloads");
    ACIC_ASSERT(!spec_.schemes.empty(),
                "experiment spec names no schemes");
    ACIC_ASSERT(spec_.shardCount >= 1,
                "experiment shard count must be at least 1");
    ACIC_ASSERT(spec_.shardIndex < spec_.shardCount,
                "experiment shard index out of range");
}

std::shared_ptr<const SharedWorkload>
ExperimentDriver::prepareWorkload(const WorkloadEntry &entry) const
{
    if (entry.source == WorkloadSource::Stream) {
        // A pipe/stdin entry is single-pass: it can be neither
        // materialized for concurrent schemes nor replayed for the
        // oracle, so the batch driver cannot run it.
        const std::string msg =
            "workload '" + entry.name() +
            "' is a live stream; the batch driver needs a "
            "re-iterable trace. Drive it with 'acic_run serve " +
            entry.name() +
            " --schemes ...' instead, or materialize it to a file "
            "first";
        ACIC_FATAL(msg.c_str());
    }
    if (entry.source == WorkloadSource::TraceFile ||
        !spec_.traceDir.empty()) {
        FileTraceSource file(
            entry.source == WorkloadSource::TraceFile
                ? entry.path
                : spec_.traceDir + "/" + entry.name() +
                      TraceFormat::suffix());
        return std::make_shared<SharedWorkload>(file, spec_.config,
                                                spec_.useOracle);
    }
    // Precedence: explicit spec override > ACIC_TRACE_LEN > preset.
    WorkloadParams effective = withEnvOverrides(entry.params);
    if (spec_.instructions != 0)
        effective.instructions = spec_.instructions;
    return std::make_shared<SharedWorkload>(
        std::move(effective), spec_.config, spec_.useOracle);
}

namespace {

/** Shared bookkeeping of one ExperimentDriver::run() invocation. */
struct RunState
{
    explicit RunState(std::size_t n_workloads)
        : remainingCells(
              std::make_unique<std::atomic<std::size_t>[]>(
                  n_workloads)),
          nextWorkload(0)
    {
    }

    /** Unfinished cells per workload; 0 releases its trace image. */
    std::unique_ptr<std::atomic<std::size_t>[]> remainingCells;
    /** Next workload index to prepare. */
    std::atomic<std::size_t> nextWorkload;
    std::mutex observerMutex;
};

/** The in-flight regions of one cell and their partial results. */
struct CellRegions
{
    explicit CellRegions(std::vector<SimInterval> plan_)
        : plan(std::move(plan_)), parts(plan.size()),
          seconds(plan.size(), 0.0), remaining(plan.size())
    {
    }

    std::vector<SimInterval> plan;
    std::vector<SimResult> parts;     ///< distinct slots, no lock
    std::vector<double> seconds;
    std::atomic<std::size_t> remaining;
};

/**
 * One workload's region oracles, shared by every scheme's shard
 * tasks (the oracle depends only on the region, not the scheme).
 * Built lazily inside the first shard task that needs each region,
 * so the builds run on the pool instead of serializing the prepare
 * task.
 */
struct RegionOracles
{
    explicit RegionOracles(std::size_t n)
        : once(std::make_unique<std::once_flag[]>(n)), oracles(n)
    {
    }

    const DemandOracle &get(std::size_t i, const SharedWorkload &w,
                            const SimInterval &interval)
    {
        std::call_once(once[i], [&] {
            oracles[i] = w.buildIntervalOracle(interval);
        });
        return oracles[i];
    }

    std::unique_ptr<std::once_flag[]> once;
    std::vector<DemandOracle> oracles;
};

/**
 * Simulate region @p i of cell (@p w, @p s) into its part slot: the
 * one per-task body of the driver. Only a one-region cell snapshots
 * itself in flight — interval shards are short, and the
 * completed-cell granularity bounds their lost work by one shard.
 */
void
runRegion(const ExperimentSpec &spec, std::size_t w, std::size_t s,
          std::size_t i, const SharedWorkload &shared,
          CellRegions &regions, RegionOracles *oracles,
          bool checkpointing)
{
    const auto start = std::chrono::steady_clock::now();
    const SimInterval &region = regions.plan[i];
    const bool sharded = regions.plan.size() > 1;
    TelemetryScope span(sharded ? "driver.shard" : "driver.cell");
    if (span.live()) {
        span.attr("workload", spec.workloads[w].name());
        span.attr("scheme", schemeName(spec.schemes[s]));
        if (sharded) {
            span.attr("shard", static_cast<std::uint64_t>(i));
            span.attr("shards",
                      static_cast<std::uint64_t>(regions.plan.size()));
        }
    }
    const InflightCheckpoint inflight{
        checkpointing ? inflightFilePath(spec.checkpointDir, w, s)
                      : std::string(),
        spec.checkpointEvery};
    try {
        auto org = makeScheme(spec.schemes[s], spec.config);
        regions.parts[i] = shared.run(
            *org, region,
            oracles ? &oracles->get(i, shared, region) : nullptr,
            checkpointing && !sharded ? &inflight : nullptr);
    } catch (const std::exception &e) {
        // Specs are pre-validated against the default SimConfig
        // only; a builder rejecting the run-time config must fail
        // loudly, not std::terminate the pool on an escaping
        // exception.
        ACIC_FATAL(e.what());
    }
    regions.seconds[i] = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
}

} // namespace

std::vector<CellResult>
ExperimentDriver::run(const Observer &observer)
{
    const std::size_t n_workloads = spec_.workloads.size();
    const std::size_t n_schemes = spec_.schemes.size();
    std::vector<CellResult> cells(spec_.cellCount());

    // Checkpoint directory: create the layout, pin the sweep
    // identity, preload every owned cell already completed by a
    // previous (crashed or finished) invocation, and clear the stale
    // files a crash left behind. A corrupt cell file throws here —
    // restarts never silently recompute or mix results.
    const bool checkpointing = !spec_.checkpointDir.empty();
    if (checkpointing) {
        std::filesystem::create_directories(spec_.checkpointDir +
                                            "/cells");
        std::filesystem::create_directories(spec_.checkpointDir +
                                            "/inflight");
        ensureManifest(spec_.checkpointDir, spec_);
    }
    std::vector<bool> preloaded(spec_.cellCount(), false);
    for (std::size_t w = 0; w < n_workloads; ++w)
        for (std::size_t s = 0; s < n_schemes; ++s) {
            if (!spec_.ownsCell(w, s))
                continue;
            const std::size_t idx = w * n_schemes + s;
            if (checkpointing &&
                loadCellFile(
                    cellFilePath(spec_.checkpointDir, w, s), spec_,
                    w, s, cells[idx]))
                preloaded[idx] = true;
        }
    if (checkpointing)
        removeStaleFiles(spec_, preloaded);
    if (observer)
        for (const CellResult &cell : cells)
            if (cell.done)
                observer(cell);

    ThreadPool pool(spec_.threads);
    const std::size_t threads = pool.threads();
    RunState state(n_workloads);
    for (std::size_t w = 0; w < n_workloads; ++w) {
        std::size_t pending = 0;
        for (std::size_t s = 0; s < n_schemes; ++s)
            if (spec_.ownsCell(w, s) &&
                !preloaded[w * n_schemes + s])
                ++pending;
        state.remainingCells[w] = pending;
    }

    // Publish one finished cell: store it, persist it to the
    // checkpoint directory (then drop the now-stale in-flight engine
    // snapshot — publish-then-clean keeps the cell exactly-once),
    // notify the observer, and release the workload's trace image
    // (submitting the next prepare) when its row completes.
    const auto finishCell = [this, &cells, &state, &observer,
                             n_schemes, checkpointing](
                                CellResult cell,
                                const std::function<void()> &next) {
        cell.done = true;
        const std::size_t idx =
            cell.workloadIndex * n_schemes + cell.schemeIndex;
        if (checkpointing) {
            writeCellFile(cellFilePath(spec_.checkpointDir,
                                       cell.workloadIndex,
                                       cell.schemeIndex),
                          spec_, cell);
            std::remove(inflightFilePath(spec_.checkpointDir,
                                         cell.workloadIndex,
                                         cell.schemeIndex)
                            .c_str());
        }
        cells[idx] = cell;
        if (observer) {
            std::lock_guard<std::mutex> lock(state.observerMutex);
            observer(cells[idx]);
        }
        if (state.remainingCells[cell.workloadIndex].fetch_sub(1) ==
            1)
            next();
    };

    // A prepare task builds one workload's shared trace and fans its
    // row's (cell, region) pairs back into the same pool as one task
    // each — one region per cell when monolithic, one per interval
    // shard otherwise, so a long workload's own trace is simulated
    // by many workers at once.
    // Prepares are released in a sliding window of ~thread-count
    // workloads — the last cell of a finished workload submits the
    // next prepare — so preparation overlaps simulation while the
    // number of live trace images (and oracles) stays bounded by
    // the thread count, not the workload count.
    std::function<void()> submitNextPrepare =
        [&]() {
            // Skip workloads whose owned cells all preloaded (or
            // that this shard owns no cell of): their traces need
            // not be prepared at all.
            std::size_t w;
            do {
                w = state.nextWorkload.fetch_add(1);
                if (w >= n_workloads)
                    return;
            } while (state.remainingCells[w].load() == 0);
            pool.submit([this, w, n_schemes, &pool, &state,
                         &preloaded, checkpointing, &finishCell,
                         &submitNextPrepare] {
                std::shared_ptr<const SharedWorkload> shared;
                {
                    TelemetryScope span("driver.prepare");
                    span.attr("workload",
                              spec_.workloads[w].name());
                    shared = prepareWorkload(spec_.workloads[w]);
                }
                // A monolithic cell is the one region wholeRun();
                // K > 1 intervals shard the same measured region
                // (post-warmupFraction), so merged results are
                // directly comparable to full runs.
                const SimInterval whole = shared->wholeRun();
                std::vector<SimInterval> plan = planIntervals(
                    whole.begin, whole.end, spec_.intervals,
                    spec_.intervalWarmup, spec_.warmHorizon);
                if (plan.size() <= 1)
                    plan = {whole};
                std::shared_ptr<RegionOracles> oracles;
                if (plan.size() > 1 && spec_.useOracle)
                    oracles =
                        std::make_shared<RegionOracles>(plan.size());
                for (std::size_t s = 0; s < n_schemes; ++s) {
                    if (!spec_.ownsCell(w, s) ||
                        preloaded[w * n_schemes + s])
                        continue;
                    const auto regions =
                        std::make_shared<CellRegions>(plan);
                    for (std::size_t i = 0; i < plan.size(); ++i)
                        pool.submit([this, w, s, i, shared, regions,
                                     oracles, &pool, checkpointing,
                                     &finishCell, &submitNextPrepare] {
                            runRegion(spec_, w, s, i, *shared,
                                      *regions, oracles.get(),
                                      checkpointing);
                            emitPoolGauges(pool);
                            if (regions->remaining.fetch_sub(1) != 1)
                                return;
                            // Last region: publish the cell. A
                            // one-region cell publishes its part
                            // as-is (mergeSimResults would drop
                            // registered-but-unwritten stat handles
                            // the cell file records).
                            CellResult cell;
                            cell.workloadIndex = w;
                            cell.schemeIndex = s;
                            cell.result =
                                regions->plan.size() == 1
                                    ? regions->parts.front()
                                    : mergeSimResults(regions->parts);
                            for (const double secs : regions->seconds)
                                cell.hostSeconds += secs;
                            finishCell(cell, submitNextPrepare);
                        });
                }
            });
        };

    const std::size_t window = std::min(
        n_workloads, std::max<std::size_t>(threads, 1));
    for (std::size_t i = 0; i < window; ++i)
        submitNextPrepare();

    pool.wait();
    return cells;
}

} // namespace acic
