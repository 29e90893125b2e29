/**
 * @file
 * Result record of a simulation run of the decoupled front end (Sec.
 * IV-A infrastructure substitute) and the interval-merge helper. The
 * per-cycle stepping core lives in sim/engine.hh (SimEngine /
 * MachineState, the resumable phase API); SharedWorkload::run
 * (sim/runner.hh) is the batch path that drives it.
 */

#ifndef ACIC_SIM_SIMULATOR_HH
#define ACIC_SIM_SIMULATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace acic {

class Serializer;
class Deserializer;

/** Post-warmup metrics of one run. */
struct SimResult
{
    std::string workload;
    std::string scheme;

    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    std::uint64_t demandAccesses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t latePrefetches = 0;

    /** L2/L3/DRAM counters (energy model inputs). */
    std::uint64_t l2Accesses = 0;
    std::uint64_t l3Accesses = 0;
    std::uint64_t dramAccesses = 0;

    /** Organization-specific counters copied out of the run. */
    StatSet orgStats;

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                                 static_cast<double>(cycles);
    }

    /** L1i misses per kilo-instruction (the paper's MPKI metric). */
    double
    mpki() const
    {
        return instructions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(l1iMisses) /
                         static_cast<double>(instructions);
    }

    /** Checkpoint the result record (completed-cell files). */
    void save(Serializer &s) const;
    void load(Deserializer &d);
};

/**
 * Weighted merge of per-interval partial results into one whole-run
 * SimResult: every counter (instructions, cycles, misses, the org
 * stats) sums, and the derived rates recompute from the sums — so
 * merged ipc() is the instruction-weighted harmonic combination and
 * merged mpki() is total misses over total instructions. Workload and
 * scheme labels are taken from the first part.
 */
SimResult mergeSimResults(const std::vector<SimResult> &parts);

} // namespace acic

#endif // ACIC_SIM_SIMULATOR_HH
