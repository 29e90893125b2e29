/**
 * @file
 * The one batch run path. A SharedWorkload owns one workload's trace,
 * encoded into an immutable shared TraceImage (trace/memory.hh), and
 * its lazily built Belady oracle; any number of worker threads can
 * then run schemes against it concurrently, each through a private
 * cursor. Every batch simulation (benches, examples,
 * the experiment driver's cells and interval shards, checkpointed
 * cells) is one call of SharedWorkload::run over a SimInterval region
 * of the image: a monolithic run is the region wholeRun(), an
 * interval shard is one planIntervals() region.
 */

#ifndef ACIC_SIM_RUNNER_HH
#define ACIC_SIM_RUNNER_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/icache_org.hh"
#include "frontend/branch_unit.hh"
#include "sim/oracle.hh"
#include "sim/scheme.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "trace/memory.hh"
#include "trace/workload_params.hh"

namespace acic {

/**
 * One region of a run — the whole trace (SharedWorkload::wholeRun)
 * or one shard of an interval-parallel run: instructions
 * [funcStart, warmStart) functionally warm the long-lived state
 * (branch predictors, organization metadata, L2/L3 contents — see
 * SimEngine::functionalWarm), [warmStart, begin) warm under full
 * timing with stats frozen via the SimEngine snapshot, and
 * [begin, end) is the measured region. Shard results merge with
 * mergeSimResults().
 */
struct SimInterval
{
    std::uint64_t funcStart = 0; ///< functional-warming start
    std::uint64_t warmStart = 0; ///< first timed instruction
    std::uint64_t begin = 0;     ///< first measured instruction
    std::uint64_t end = 0;       ///< one past the last measured

    std::uint64_t measured() const { return end - begin; }
    std::uint64_t warmup() const { return begin - warmStart; }

    bool operator==(const SimInterval &o) const
    {
        return funcStart == o.funcStart && warmStart == o.warmStart &&
               begin == o.begin && end == o.end;
    }
};

/**
 * Suggested functional-warming horizon for very long traces:
 * long-lived state mostly saturates within a few million
 * instructions (the 2 MB L3 holds 32 K blocks; TAGE/BTB sooner), so
 * a bounded horizon keeps per-shard cost O(horizon + interval) as
 * traces grow — near-linear intra-workload scaling — at the price
 * of ~1-2% MPKI error on slow-warming (low-MPKI) workloads. The
 * default everywhere is 0 (warm from the trace start): sub-1% on
 * every catalog workload, with the cheap functional pass still
 * dominated by the parallelized detailed simulation.
 */
constexpr std::uint64_t kScalingWarmHorizon = 2'500'000;

/**
 * Slice the measured region [@p measureBegin, @p measureEnd) into
 * @p intervals equal shards (the remainder spread over the leading
 * shards), each preceded by up to @p warmup instructions of
 * functional warming clipped at the trace start. Passing the
 * full-run measured region (measureBegin = total * warmupFraction)
 * makes the merged shards cover exactly the instruction span a
 * monolithic run measures, so merged and full-run MPKI are directly
 * comparable. @p intervals is clamped to [1, region length]; an
 * empty region yields one empty interval. @p warmHorizon bounds the
 * functional-warming prefix per shard (0 = unbounded, warm from the
 * trace start).
 */
std::vector<SimInterval>
planIntervals(std::uint64_t measureBegin, std::uint64_t measureEnd,
              unsigned intervals, std::uint64_t warmup,
              std::uint64_t warmHorizon = 0);

/**
 * In-flight snapshot of a run: every @p every retired instructions the
 * engine saves itself to @p path (atomically, temp-file + rename), and
 * a run that finds @p path already present resumes from it instead of
 * warming up. every == 0 disables the snapshots; the run still
 * resumes from an existing file.
 */
struct InflightCheckpoint
{
    std::string path;
    std::uint64_t every = 0;
};

/** See file comment. Immutable after construction; run() is const. */
class SharedWorkload
{
  public:
    /**
     * Generate @p params synthetically as given, encode the image,
     * and (lazily) build the oracle. ACIC_TRACE_LEN is NOT applied here;
     * callers wanting it apply withEnvOverrides() themselves.
     *
     * @param useOracle hand runs the Belady oracle (the default).
     *        Without it the engine gets a null oracle: OPT-style
     *        schemes see "never reused" for every block — what a
     *        single-pass live stream (`acic_run serve`) can compute.
     *        The advisory accuracy counters (match_opt, acic.*) are
     *        then computed from sentinel next-use values and are not
     *        meaningful.
     */
    SharedWorkload(WorkloadParams params, SimConfig config = {},
                   bool useOracle = true);

    /**
     * Adopt an existing source (e.g. a FileTraceSource): encode it
     * into the image, decoding every record, so a corrupt one fails
     * here. @p source is reset around the encode and not retained.
     */
    SharedWorkload(TraceSource &source, SimConfig config = {},
                   bool useOracle = true);

    /** Run a registered scheme over wholeRun(). */
    SimResult run(const SchemeSpec &scheme) const;

    /**
     * Simulate @p org over @p region of the shared image — the one
     * function that drives a SimEngine:
     *
     *  1. a private cursor over [region.warmStart, region.end);
     *  2. functionalWarm over [region.funcStart, region.warmStart);
     *  3. loadCheckpoint(@p checkpoint->path) if that file exists,
     *     otherwise warmUp(region.warmup());
     *  4. measure up to region.end, in chunks of checkpoint->every
     *     with a saveCheckpoint between chunks when checkpointing;
     *  5. finish().
     *
     * The chunked phases accumulate (warmUp + measure(a) +
     * measure(b) == warmUp + measure(a+b)), so an interrupted and
     * resumed run finishes with byte-identical statistics to an
     * uninterrupted one. A corrupt or mismatched checkpoint throws
     * SerializeError; nothing is silently recomputed. The caller
     * removes the checkpoint file once the result is published.
     *
     * Oracle: @p oracle when given (indices starting at
     * region.warmStart, see buildIntervalOracle); otherwise, with
     * the oracle enabled, the shared whole-trace oracle() for
     * wholeRun() and a freshly built region-local oracle for any
     * other region.
     *
     * Branch prediction: a region whose timed cursor is the whole
     * trace with nothing functionally warmed before it (wholeRun())
     * reads the shared branchTable(); any other region predicts live.
     * Safe to call from any thread as long as @p org is not shared
     * across threads.
     */
    SimResult run(IcacheOrg &org, const SimInterval &region,
                  const DemandOracle *oracle = nullptr,
                  const InflightCheckpoint *checkpoint = nullptr) const;

    /**
     * The monolithic region: warm up on the first
     * total * config().warmupFraction instructions, measure the rest.
     */
    SimInterval wholeRun() const;

    /**
     * Build the region-local oracle of one region — the demand
     * sequence over [region.warmStart, region.end), indices starting
     * at warmStart — for sharing across run() calls of different
     * schemes over the same region.
     */
    DemandOracle buildIntervalOracle(const SimInterval &region) const;

    /** A fresh private cursor over the shared trace image. */
    MemoryTraceSource source() const { return MemoryTraceSource(image_); }

    /**
     * The whole-trace oracle, built on first use (thread-safe).
     * Lazy because interval runs never consult it — they build
     * region-local oracles instead — and a full-trace pass per
     * workload would be pure overhead there.
     */
    const DemandOracle &oracle() const;

    /**
     * The BranchOutcome of every bundle of the whole trace under
     * config()'s predictors, built on first use (thread-safe). It
     * is independent of the cache organization, so every scheme run
     * over wholeRun() shares it instead of re-running TAGE/BTB/RAS.
     * Built separately from oracle(), so a caller that only wants
     * the oracle does not pay for it.
     */
    const BranchTable &branchTable() const;

    const SimConfig &config() const { return config_; }
    const std::string &name() const { return image_->name; }
    std::uint64_t instructions() const { return image_->instructions; }

  private:
    SimConfig config_;
    std::shared_ptr<const TraceImage> image_;
    bool useOracle_;
    mutable std::once_flag oracleOnce_;
    mutable DemandOracle oracle_;
    mutable std::once_flag branchesOnce_;
    mutable BranchTable branches_;
};

} // namespace acic

#endif // ACIC_SIM_RUNNER_HH
