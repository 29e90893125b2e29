/**
 * @file
 * Parallel experiment driver: a declarative ExperimentSpec names a
 * workloads x schemes matrix (the shape of the paper's Table IV and
 * Figs. 10-17) and the driver executes every cell on a thread pool.
 * Each workload's trace is encoded into one image and its Belady
 * oracle built exactly once, shared read-only by all workers; per-cell state (the
 * cache organization and engine) is private to the worker, and every
 * task is one SharedWorkload::run over one region of a cell, so
 * results are bit-identical to a serial SharedWorkload::run at any
 * thread count.
 */

#ifndef ACIC_DRIVER_EXPERIMENT_HH
#define ACIC_DRIVER_EXPERIMENT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/scheme.hh"
#include "sim/sim_config.hh"
#include "trace/catalog.hh"
#include "trace/workload_params.hh"

namespace acic {

/** Default timed-warmup instructions per measured interval — the
 *  `--warmup` default the CLI help cites. */
constexpr std::uint64_t kDefaultIntervalWarmup = 100'000;

/** Declarative description of one experiment matrix. */
struct ExperimentSpec
{
    /**
     * Workloads forming the rows of the matrix. Entries name either
     * a synthetic preset or an on-disk trace (WorkloadEntry), so
     * imported and generated workloads mix freely in one matrix; a
     * bare WorkloadParams converts implicitly to a synthetic entry.
     */
    std::vector<WorkloadEntry> workloads;

    /**
     * Schemes forming the columns: validated registry specs (see
     * sim/scheme.hh), so presets and parameterized variants mix
     * freely in one matrix. Build with parseSchemeList() /
     * expandSchemeGrid() or parseScheme() per entry.
     */
    std::vector<SchemeSpec> schemes;

    /** Simulator configuration shared by every cell. */
    SimConfig config{};

    /** Worker threads; 0 means hardware concurrency. */
    unsigned threads = 0;

    /**
     * Intervals each cell's trace is sharded into (intra-workload
     * parallelism). 1 (the default) runs each cell as the one region
     * SharedWorkload::wholeRun(). K > 1 slices the trace into
     * K equal regions simulated concurrently on the same pool —
     * each warmed by `intervalWarmup` instructions with stats frozen
     * — and merges shard results with mergeSimResults(), so the
     * longest workload no longer sets the wall-clock floor.
     */
    unsigned intervals = 1;

    /**
     * Timed-warmup instructions preceding each measured interval
     * (clipped at the trace start; the first interval warms from a
     * cold machine exactly like a full run). Only consulted when
     * intervals > 1; full runs keep config.warmupFraction.
     */
    std::uint64_t intervalWarmup = kDefaultIntervalWarmup;

    /**
     * Functional-warming horizon per shard; 0 (default) warms from
     * the trace start — most accurate, with per-shard cost
     * O(shard start). Bound it (kScalingWarmHorizon) for very long
     * traces where shard cost must stay O(horizon + interval). Only
     * consulted when intervals > 1.
     */
    std::uint64_t warmHorizon = 0;

    /**
     * Build and pass the Belady demand oracle to every cell (the
     * default). OPT-style schemes need it to make decisions; for the
     * others it only feeds advisory accuracy counters (match_opt,
     * acic.*) in the org-stats dump. Turning it off skips the oracle
     * pass entirely; those counters are then computed from sentinel
     * next-use values and are not meaningful. That is also what
     * `acic_run serve` reports, since a live stream cannot be
     * replayed for an oracle, so `run --no-oracle` output is the
     * byte-comparison currency between served and file-based runs.
     */
    bool useOracle = true;

    /**
     * Per-workload trace-length override; 0 keeps preset lengths.
     * Applies to synthetic entries only — trace-file entries always
     * replay their recorded stream in full.
     */
    std::uint64_t instructions = 0;

    /**
     * When non-empty, load `<traceDir>/<name>.acictrace` recorded by
     * `acic_run record` instead of regenerating synthetically.
     * Strict: every *synthetic* entry must have its file present.
     * (TraceFile entries carry their own path and ignore this; the
     * `acic_run --trace-dir` flag instead overlays the directory
     * onto the catalog, which tolerates missing files.)
     */
    std::string traceDir;

    /**
     * Shard selection for distributed sweeps: this process runs only
     * the cells it owns under the deterministic round-robin
     * partition ownsCell(). shardIndex must be < shardCount;
     * shardCount == 1 (the default) owns every cell. Shards of one
     * sweep must agree on the full matrix — each process names the
     * complete workload x scheme grid and the same instruction
     * budget, and only execution is partitioned, so per-shard
     * outputs reassemble with `acic_run merge`.
     */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;

    /**
     * When non-empty, the sweep checkpoints into this directory:
     * completed cells are published to
     * `<dir>/cells/cell_<w>_<s>.bin` ("CELL" containers) and
     * skipped on restart, and monolithic (intervals == 1) cells
     * snapshot their mid-run engine to
     * `<dir>/inflight/cell_<w>_<s>.ckpt` every `checkpointEvery`
     * retired instructions, resuming from the snapshot after a
     * crash. A `manifest.json` pins the matrix shape so a restart
     * with a different spec is rejected instead of mixing results.
     */
    std::string checkpointDir;

    /**
     * Instructions between in-flight engine snapshots of a
     * monolithic cell; 0 disables mid-cell snapshots (completed-cell
     * checkpointing still applies). Ignored when intervals > 1 —
     * interval shards are short; the completed-cell granularity
     * bounds lost work by one shard.
     */
    std::uint64_t checkpointEvery = 5'000'000;

    /** Matrix size (cells). */
    std::size_t cellCount() const
    {
        return workloads.size() * schemes.size();
    }

    /**
     * Deterministic cell partition: cell (w, s) belongs to shard
     * (w * n_schemes + s) mod shardCount — round-robin in
     * workload-major cell order, so every shard gets a near-equal
     * slice of every workload's row.
     */
    bool ownsCell(std::size_t w, std::size_t s) const
    {
        return (w * schemes.size() + s) % shardCount == shardIndex;
    }
};

/** Outcome of one (workload, scheme) cell. */
struct CellResult
{
    std::size_t workloadIndex = 0;
    std::size_t schemeIndex = 0;
    SimResult result;
    /**
     * Host wall-clock seconds the cell's simulation took; for an
     * interval-sharded cell, the summed simulation seconds of its
     * shards (the work, not the elapsed span).
     */
    double hostSeconds = 0.0;
    /**
     * True once the cell has a result. Cells not owned by this
     * process's shard stay false and are skipped by the emitters;
     * a single-shard run marks every cell done.
     */
    bool done = false;
};

/** See file comment. */
class ExperimentDriver
{
  public:
    explicit ExperimentDriver(ExperimentSpec spec);

    /**
     * Streaming-aggregation callback, invoked as each cell finishes
     * (from worker threads, serialized by the driver). Completion
     * order is nondeterministic; cell indices identify the work.
     */
    using Observer = std::function<void(const CellResult &)>;

    /**
     * Execute the full matrix.
     * @return every cell, ordered workload-major (row by row),
     *         independent of completion order.
     */
    std::vector<CellResult> run(const Observer &observer = {});

    const ExperimentSpec &spec() const { return spec_; }

  private:
    /** Materialize one workload's shared trace. */
    std::shared_ptr<const SharedWorkload>
    prepareWorkload(const WorkloadEntry &entry) const;

    ExperimentSpec spec_;
};

} // namespace acic

#endif // ACIC_DRIVER_EXPERIMENT_HH
