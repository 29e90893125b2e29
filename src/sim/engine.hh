/**
 * @file
 * Resumable simulation engine. MachineState is every piece of per-run
 * mutable state of the front-end timing model — FTQ, branch
 * predictors, MSHRs, backing hierarchy, prefetcher, decode queue,
 * cycle/retired counters, and the warmup stat snapshot — extracted
 * from the old monolithic one-shot run loop so a run can be stepped
 * in phases instead of one shot:
 *
 *   SimEngine engine(config, trace, org, oracle);
 *   engine.warmUp(w);     // warm caches/predictors; stats frozen
 *   engine.measure(n);    // timed region
 *   SimResult r = engine.finish();
 *
 * warmUp() performs full timing simulation and latches a snapshot of
 * the cumulative counters when the warmup target retires; finish()
 * reports measured = cumulative - snapshot. This generalizes the old
 * inline warmupFraction snapshot hack bit-for-bit: a monolithic run
 * is warmUp(total*warmupFraction) + measure(rest) and reproduces the
 * pre-refactor golden corpus byte-identically.
 *
 * The clock is event-driven but exact: after a cycle in which no
 * stage acted, the engine jumps to the next cycle on which one can
 * (see advanceUntilRetired and DESIGN.md section 8, "Engine clock").
 *
 * Phases compose: SharedWorkload::run (sim/runner.hh), the one batch
 * driver of this class, seeks a region cursor to (intervalStart - W),
 * warms W instructions, measures the interval in checkpointable
 * chunks, and the experiment driver merges the per-interval
 * SimResults (see mergeSimResults in sim/simulator.hh).
 */

#ifndef ACIC_SIM_ENGINE_HH
#define ACIC_SIM_ENGINE_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/icache_org.hh"
#include "cache/mshr.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "frontend/branch_unit.hh"
#include "frontend/bundle.hh"
#include "frontend/entangling.hh"
#include "sim/oracle.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace acic {

/**
 * One FTQ entry: a fetch bundle's block, first PC and size plus BP
 * bookkeeping. The bundle's instructions are not kept: the BP unit
 * has consumed their branch metadata by the time the entry is queued.
 */
struct FtqEntry
{
    BlockAddr blk = 0;
    Addr pc = 0;
    std::uint8_t count = 0;     ///< instructions in the bundle
    std::uint64_t seq = 0;      ///< demand-sequence index
    Cycle redirectPenalty = 0;  ///< charged when the bundle is fetched
    bool prefetchConsidered = false;
};

/** See file comment. Owned by SimEngine; plain data + structures. */
struct MachineState
{
    MachineState(const SimConfig &config, TraceSource &trace);

    // Front-end structures.
    BundleWalker walker;
    BranchUnit bp;
    MshrFile mshr;
    MemoryHierarchy hierarchy;
    EntanglingPrefetcher entangler;

    std::deque<FtqEntry> ftq;
    std::vector<MshrFile::Fill> fills; ///< reused per-cycle buffer

    // Clock and bundle supply.
    Cycle cycle = 0;
    Cycle bpResumeAt = 0;
    bool bpWaitingRedirect = false; ///< paused until bundle fetched
    bool walkerDone = false;

    std::uint64_t decodeQueue = 0; ///< instructions buffered
    std::uint64_t retired = 0;
    std::uint64_t seqCounter = 0;
    std::uint64_t lastDemandSeq = 0;

    // Demand-miss wait state: the FTQ head stalls on this block.
    // `headReady` is latched by the fill *event* (not by re-probing
    // the organization): a bypassing organization may drop the fill,
    // and a later fill may even re-evict the block, but the waiting
    // fetch group was satisfied by the returning miss either way.
    bool waiting = false;
    BlockAddr waitingBlk = 0;
    bool headReady = false;
    bool pendingAlloc = false; ///< MSHRs were full; retry allocate
    Cycle pendingLatency = 0;

    /**
     * FDP scan cursor: every FTQ entry past the head with
     * seq < prefetchCursor has already been prefetch-considered
     * (the scan marks entries front-to-back and stops at the first
     * failure, so the unconsidered entries form a suffix). Derived
     * from the per-entry flags — not checkpointed, recomputed on
     * load — it lets the per-cycle prefetch stage start at the
     * first unconsidered entry instead of rescanning the whole FTQ.
     */
    std::uint64_t prefetchCursor = 0;

    // Cumulative counters; the warmup snapshot is subtracted by
    // finish(). Handle registration happens before any snapshot
    // copy, so `raw` and `snap` share one index layout.
    StatSet raw;
    StatHandle stPrefetches;
    StatHandle stDemandAccesses;
    StatHandle stL1iMisses;
    StatHandle stLatePrefetches;
    StatHandle stMispredicts;
    StatHandle stBtbMisses;
    StatHandle stRasMispredicts;

    bool warmupSnapped = false;
    StatSet snap;
    Cycle warmupCycle = 0;
};

/** See file comment. */
class SimEngine
{
  public:
    /**
     * Bind to @p trace (reset; must outlive the engine), @p org, and
     * an optional @p oracle whose demand-sequence indices must align
     * with @p trace (build it over the same region the engine walks).
     *
     * With @p branches the engine is table-driven: the BP stage reads
     * each bundle's outcome from the table by demand-sequence index,
     * the index the oracle uses, and never touches TAGE/BTB/RAS. The
     * table must cover @p trace from its first bundle with cold
     * predictors (SharedWorkload::branchTable over wholeRun()).
     * Without it the engine predicts live, through the same
     * BranchUnit::predict that builds tables.
     */
    SimEngine(const SimConfig &config, TraceSource &trace,
              IcacheOrg &org, const DemandOracle *oracle = nullptr,
              const BranchTable *branches = nullptr);

    /**
     * Functionally warm the long-lived machine state by replaying
     * @p prefix without detailed timing — the SMARTS-style warming
     * that makes short per-interval timed warmups accurate:
     *
     *  - Branch predictors (TAGE, BTB, RAS) see the exact update
     *    sequence of the BP-unit stage. BP training is a pure
     *    function of the instruction stream (predictions never feed
     *    back into it), so their state ends bit-equal to a timed
     *    simulation of @p prefix.
     *  - The organization and the L2/L3 hierarchy see the demand
     *    bundle stream under a coarse stall-until-fill clock,
     *    training replacement/admission metadata (SRRIP RRPVs, ACIC
     *    HRT/PT) and filling the megabyte-scale L2/L3 capacity that
     *    no affordable timed warmup reaches (~10^6 instructions for
     *    the 2 MB L3). Prefetch timeliness — late prefetches count
     *    as demand misses — rides on those hit rates. The
     *    entangling prefetcher (when configured) trains on the same
     *    access/miss stream, with its candidate queue drained.
     *
     * Warming traffic is excluded from the reported stats. Must run
     * before any stepping; the timed clock resumes from the warming
     * clock so delayed-update queues see monotonic time.
     */
    void functionalWarm(TraceSource &prefix);

    /**
     * Advance until @p n more instructions have retired, then latch
     * the warmup snapshot (freezing everything simulated so far out
     * of the measured stats). The snapshot latches exactly when the
     * cumulative retire count crosses the target — mid-cycle, in the
     * retire stage — matching the legacy inline warmupFraction hack
     * bit-for-bit. Only the first warmUp() latches; n may be 0.
     */
    void warmUp(std::uint64_t n);

    /**
     * Advance until @p n more instructions have retired. Latches the
     * warmup snapshot first (as warmUp(0)) if no warmUp() ran.
     * Callable repeatedly; measured totals accumulate.
     */
    void measure(std::uint64_t n);

    /** Assemble the post-warmup metrics. Idempotent. */
    SimResult finish() const;

    /** Cumulative instructions retired (warmup + measured). */
    std::uint64_t retired() const { return state_.retired; }

    /**
     * Nominal retire count the phases run so far extend to: warmup
     * length plus every measure(n) — unlike retired(), free of the
     * bundle-granularity overshoot of the retire stage. A chunked
     * driver must plan its next measure(n) from this value so that
     * warmUp(w) + measure(a) + measure(b) lands on the identical
     * final target as warmUp(w) + measure(a + b).
     */
    std::uint64_t plannedTarget() const { return measureTarget_; }

    /** Cumulative cycles simulated. */
    Cycle cycles() const { return state_.cycle; }

    /**
     * Cycles actually stepped (stepCycle calls) by this engine
     * object; the clock skips the rest (see advanceUntilRetired).
     * Host-side work counter: not checkpointed.
     */
    std::uint64_t steps() const { return steps_; }

    const MachineState &state() const { return state_; }

    /** Payload tag of on-disk engine checkpoint containers. */
    static constexpr char kCheckpointTag[4] = {'E', 'N', 'G', 'N'};

    /**
     * Serialize the entire mid-run machine — trace cursor, front-end
     * structures, organization, hierarchy, cumulative and snapshot
     * stats, and the phase targets — so that an identically
     * constructed engine in a fresh process can load() and continue
     * to byte-identical final statistics. The stream starts with an
     * identity header (trace name/length, scheme name, oracle
     * presence, table-driven or live branch prediction, core config)
     * that load() validates, so a checkpoint can never resume into a
     * mismatched run. A table-driven engine has no predictor state
     * to save.
     */
    void save(Serializer &s) const;
    void load(Deserializer &d);

    /**
     * save()/load() through an "ENGN" checkpoint file at @p path.
     * Their telemetry spans carry the file's size as `bytes`.
     */
    void saveCheckpoint(const std::string &path) const;
    void loadCheckpoint(const std::string &path);

  private:
    /** Simulate one cycle; false when no stage acted in it. */
    bool stepCycle();
    /** Earliest cycle at which a stage can act again, after a cycle
     *  in which none did. */
    Cycle nextEvent() const;
    void advanceUntilRetired(std::uint64_t target);
    void latchSnapshot();
    void emitHeartbeat();

    std::uint64_t nextUseOf(std::uint64_t seq) const;
    std::uint64_t nextUseAfter(BlockAddr blk,
                               std::uint64_t seq) const;
    bool issuePrefetch(BlockAddr blk, Addr pc, std::uint64_t seq);

    SimConfig config_;
    TraceSource &trace_;
    IcacheOrg &org_;
    const DemandOracle *oracle_;
    const BranchTable *branches_;
    MachineState state_;
    std::uint64_t steps_ = 0;

    /** Retire count at which the snapshot latches (warmup end). */
    std::uint64_t snapTarget_ = 0;
    /** Retire count the measured phases extend to (nominal). */
    std::uint64_t measureTarget_ = 0;

    /**
     * Hierarchy traffic generated by functionalWarm()'s miss
     * stream, subtracted from the reported L2/L3/DRAM counters so a
     * warmed shard reports the same traffic semantics as a legacy
     * run (which includes the *timed* warmup region, a quirk the
     * golden corpus pins). Likewise the organization's counter
     * values at the end of the warming pass, subtracted from the
     * reported orgStats.
     */
    std::uint64_t funcL2Accesses_ = 0;
    std::uint64_t funcL3Accesses_ = 0;
    std::uint64_t funcDramAccesses_ = 0;
    bool warmedFunctionally_ = false;
    std::map<std::string, std::uint64_t> orgStatsBase_;

    /**
     * Telemetry heartbeat state. When telemetry is enabled at engine
     * construction, hbNext_ is the retire count of the next heartbeat
     * snapshot; otherwise it stays at the ~0 sentinel, so the stepping
     * loop's only telemetry cost is one always-false integer compare
     * (the acceptance bound of ISSUE 6). Window deltas (instructions,
     * misses, cycles, host wall time) are taken against the previous
     * heartbeat to report rolling-window MPKI/IPC and Minst/s.
     */
    std::uint64_t hbNext_ = ~std::uint64_t{0};
    std::uint64_t hbInterval_ = 0;
    std::uint64_t hbLastRetired_ = 0;
    std::uint64_t hbLastMisses_ = 0;
    Cycle hbLastCycle_ = 0;
    std::chrono::steady_clock::time_point hbLastWall_{};
};

} // namespace acic

#endif // ACIC_SIM_ENGINE_HH
