/**
 * @file
 * Shared plumbing for the figure/table regeneration binaries: run a
 * scheme sweep over the datacenter workloads, compute speedups against
 * the LRU+FDP baseline, and print paper-shaped tables.
 */

#ifndef ACIC_BENCH_BENCH_UTIL_HH
#define ACIC_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/runner.hh"
#include "trace/catalog.hh"

namespace acic::bench {

/**
 * Catalog entries for the datacenter suite — the default rows of the
 * figure/table benches. Set ACIC_BENCH_TRACE_DIR to overlay a
 * directory of recorded or imported `.acictrace` files onto the
 * presets, so every bench can rerun against real traces unchanged.
 */
inline std::vector<WorkloadEntry>
datacenterEntries()
{
    WorkloadCatalog catalog = WorkloadCatalog::builtin();
    if (const char *dir = std::getenv("ACIC_BENCH_TRACE_DIR"))
        catalog.addTraceDir(dir);
    return catalog.resolve("all-datacenter");
}

/** Default per-workload trace length for bench sweeps. */
inline std::uint64_t
benchTraceLength()
{
    // Delegate ACIC_TRACE_LEN parsing to the one hardened parser.
    WorkloadParams params;
    params.instructions = 2'000'000;
    return withEnvOverrides(params).instructions;
}

/** One workload's materialized trace plus its baseline run. */
struct WorkloadRun
{
    std::string name;
    std::unique_ptr<SharedWorkload> workload;
    SimResult baseline;
};

/** Build workloads and LRU+FDP baselines for a preset collection. */
inline std::vector<WorkloadRun>
buildBaselines(std::vector<WorkloadParams> presets,
               const SimConfig &config = {},
               const std::string &baseline = "lru")
{
    const SchemeSpec baseline_spec = parseScheme(baseline);
    std::vector<WorkloadRun> runs;
    for (auto &params : presets) {
        params.instructions = benchTraceLength();
        WorkloadRun run;
        run.name = params.name;
        run.workload =
            std::make_unique<SharedWorkload>(params, config);
        run.baseline = run.workload->run(baseline_spec);
        runs.push_back(std::move(run));
    }
    return runs;
}

inline double
speedupOf(const SimResult &baseline, const SimResult &result)
{
    return static_cast<double>(baseline.cycles) /
           static_cast<double>(result.cycles);
}

inline double
mpkiReductionOf(const SimResult &baseline, const SimResult &result)
{
    if (baseline.mpki() == 0.0)
        return 0.0;
    return (baseline.mpki() - result.mpki()) / baseline.mpki();
}

inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

/**
 * Run a scheme across all workloads and return per-workload results
 * keyed by workload name.
 */
inline std::map<std::string, SimResult>
runScheme(std::vector<WorkloadRun> &runs, const SchemeSpec &scheme)
{
    std::map<std::string, SimResult> out;
    for (auto &run : runs)
        out[run.name] = run.workload->run(scheme);
    return out;
}

} // namespace acic::bench

#endif // ACIC_BENCH_BENCH_UTIL_HH
