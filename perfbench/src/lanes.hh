/**
 * @file
 * The benchmark's workloads ("lanes") and their seeded inputs.
 *
 * Every lane names catalog presets, but the benchmark re-seeds them:
 * each preset's generator seed is derived from the --seed argument,
 * so a new seed gives new, held-out programs with the preset's shape.
 * The inputs are written as the byte formats users feed the tool —
 * `.acictrace` files for the batch driver, a framed `.acis` stream for
 * the serve path — and the measured process reads only those bytes.
 */

#ifndef PERFBENCH_LANES_HH
#define PERFBENCH_LANES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hh"

namespace perfbench {

struct Lane
{
    std::string name;
    /** Catalog presets whose re-seeded traces form the input. */
    std::vector<std::string> presets;
    /** Registry scheme list. */
    std::string schemes;
    /** Trace length per preset. */
    std::uint64_t instructions;
    /** In-flight checkpoint interval; 0 = no checkpoint directory. */
    std::uint64_t checkpointEvery;
    /** Serve lane: one stream fanned out to resident engines. */
    bool serve;
};

/** The lane called @p name, or nullptr. */
const Lane *findLane(const std::string &name);

/** Names of every lane, comma-separated (for usage text). */
std::string laneNames();

std::string tracePath(const std::string &dir, const std::string &preset);
std::string streamPath(const std::string &dir,
                       const std::string &preset);

/**
 * Write the lane's inputs into @p dir: each preset's records as a
 * `.acictrace` file and as a framed `.acis` stream. Serve reads the
 * stream and checks itself against the file; the sweeps' traced run
 * times stream decode on theirs.
 */
void generateInputs(const Lane &lane, std::uint64_t seed,
                    const std::string &dir);

/** How one measuring invocation runs. */
struct RunOptions
{
    /** Directory holding the generated inputs (and scratch files). */
    std::string dir;
    /** Minimum measuring time; repetitions run until it is used. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool traced = false;
    /** CPUs available; the process's busy threads never exceed it. */
    unsigned cpus = 1;
};

/** Measure a batch-driver lane (dc_sweep, spec_ckpt_sweep). */
void runSweepLane(const Lane &lane, const RunOptions &options,
                  Report &report, Checks &checks);

/** Measure the serve lane. */
void runServeLane(const Lane &lane, const RunOptions &options,
                  Report &report, Checks &checks);

} // namespace perfbench

#endif // PERFBENCH_LANES_HH
