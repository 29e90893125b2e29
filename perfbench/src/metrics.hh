/**
 * @file
 * The two metric sets: end-to-end samples gathered across the
 * untraced repetitions, and per-layer totals gathered by the traced
 * run. Both lanes fill the same structures, so every workload prints
 * every metric under one name and unit (METRICS.md defines each).
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "decorators.hh"
#include "driver/experiment.hh"
#include "measure.hh"
#include "sim/simulator.hh"

namespace perfbench {

/** Untraced repetition floor, so medians have a middle. */
constexpr std::size_t kMinReps = 5;
/** Window samples a p90 needs: ten beyond it. */
constexpr std::size_t kMinWindows = 100;

/** Untraced repetitions; medians across them are reported. */
struct EndToEnd
{
    std::vector<double> minstPerS;
    std::vector<double> cpuNsPerInst;
    std::vector<double> setupS;
    std::vector<double> cellSMax;
    /** Result-delivery intervals pooled over every repetition: serve
     *  windows, or sweep cells. */
    std::vector<double> windowMs;
    /** Exact, from the simulated statistics. */
    double acicSpeedup = 0.0;
    double acicMpki = 0.0;

    /** Geomean ACIC/LRU IPC ratio and ACIC's MPKI over the workloads
     *  of a driver matrix naming both schemes. */
    void setExact(const acic::ExperimentSpec &spec,
                  const std::vector<acic::CellResult> &cells);

    void report(Report &out) const;
};

/** One organization's share of the traced run. */
struct OrgLayer
{
    CallTimer accesses;
    CallTimer fills;
    /** Instructions simulated (warm-up included) through it. */
    std::uint64_t instructions = 0;

    void add(const TimedOrg &org, std::uint64_t simulated);
};

/** Per-layer totals of the traced run. */
struct Layers
{
    // trace
    double loadNs = 0.0;
    std::uint64_t loadInsts = 0;
    std::uint64_t recordsDecoded = 0; ///< one repetition's count
    double pullNs = 0.0; ///< estimated, see CallTimer
    // stream
    double decodeNs = 0.0;
    std::uint64_t decodeInsts = 0;
    std::vector<double> ringOccupancy;
    double teeBacklogMax = 0.0;
    // oracle
    double oracleNs = 0.0;
    std::uint64_t oracleInsts = 0;
    std::uint64_t distinctBlocks = 0; ///< one repetition's count
    // engine
    double warmNs = 0.0;
    double measureNs = 0.0;
    double orgNs = 0.0; ///< access + fill time of every org
    std::uint64_t warmInsts = 0;
    std::uint64_t measuredInsts = 0;
    std::uint64_t simulatedInsts = 0;
    OrgLayer lru;
    OrgLayer acic;
    // Simulated statistics of one repetition (measured region).
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t l2 = 0;
    std::uint64_t dram = 0;
    std::uint64_t latePrefetches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t acicDemand = 0;
    std::uint64_t filterHits = 0;
    std::uint64_t admitted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t decisions = 0;
    std::uint64_t decisionsCorrect = 0;
    // driver
    std::vector<double> poolUtilization;
    double roundLagUsMax = 0.0;
    // serialize
    std::uint64_t ckptSaves = 0;   ///< the lane's own, one repetition
    std::uint64_t ckptPlanned = 0; ///< the lane's own, every repetition
    /** Timed saves over every repetition: the lane's own, or on a lane
     *  that never checkpoints, one probe save per traced engine. */
    std::uint64_t ckptTimed = 0;
    std::uint64_t ckptBytes = 0; ///< their total size
    double ckptNs = 0.0;         ///< their total time
    // tracing cost
    double cpuPlain = 0.0;
    double cpuTraced = 0.0;

    /** Fold one cell's simulated statistics in (first repetition);
     *  @p scheme_key is the registry key ("lru", "acic", ...). ACIC's
     *  decision accuracy is taken only when @p oracle ran. */
    void addResult(const acic::SimResult &result,
                   const std::string &scheme_key, bool oracle);

    void report(Report &out) const;
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
