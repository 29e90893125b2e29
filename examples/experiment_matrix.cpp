/**
 * @file
 * Experiment-driver walkthrough: declare a small workloads x schemes
 * matrix, execute it in parallel with per-cell streaming progress,
 * then capture one workload to an on-disk .acictrace file and show
 * that a trace-file WorkloadEntry (the same kind `acic_run import`
 * produces) replayed through the driver reproduces the in-memory
 * results exactly.
 *
 * Usage: experiment_matrix [instructions] (default 200000)
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "driver/emitters.hh"
#include "driver/experiment.hh"
#include "trace/io.hh"
#include "trace/synthetic.hh"

using namespace acic;

int
main(int argc, char **argv)
{
    ExperimentSpec spec;
    spec.workloads = {Workloads::byName("web_search"),
                      Workloads::byName("media_streaming"),
                      Workloads::byName("tpcc")};
    spec.schemes = parseSchemeList("lru,srrip,acic,opt");
    spec.instructions =
        argc > 1 ? static_cast<std::uint64_t>(std::atoll(argv[1]))
                 : 200'000;
    spec.threads = 4;

    std::printf("running a %zux%zu matrix on %u threads...\n",
                spec.workloads.size(), spec.schemes.size(),
                spec.threads);
    ExperimentDriver driver(spec);
    const auto cells = driver.run([&](const CellResult &cell) {
        std::printf("  finished %s / %s: mpki %.2f\n",
                    spec.workloads[cell.workloadIndex]
                        .name()
                        .c_str(),
                    schemeName(spec.schemes[cell.schemeIndex])
                        .c_str(),
                    cell.result.mpki());
    });

    std::ostringstream csv;
    writeResultsCsv(csv, driver.spec(), cells);
    std::printf("\nCSV emitter output:\n%s", csv.str().c_str());

    // Round-trip one workload through the on-disk trace format.
    const std::string path = "web_search.acictrace";
    {
        auto params = spec.workloads[0].params;
        params.instructions = spec.instructions;
        SyntheticWorkload synth(params);
        std::printf("\nrecording %s (%llu instructions)...\n",
                    path.c_str(),
                    static_cast<unsigned long long>(
                        recordTrace(synth, path)));
    }
    // A trace-file entry runs through the same driver as synthetic
    // presets — matrices can mix both sources freely.
    ExperimentSpec replay_spec;
    replay_spec.workloads = {
        WorkloadEntry::traceFile("web_search", path)};
    replay_spec.schemes = {parseScheme("acic")};
    replay_spec.threads = 1;
    const SimResult from_disk =
        ExperimentDriver(replay_spec).run()[0].result;
    const SimResult in_memory = cells[2].result; // web_search/ACIC
    std::printf("ACIC on web_search: %llu cycles in memory, "
                "%llu cycles from disk -> %s\n",
                static_cast<unsigned long long>(in_memory.cycles),
                static_cast<unsigned long long>(from_disk.cycles),
                in_memory.cycles == from_disk.cycles
                    ? "bit-identical"
                    : "MISMATCH");
    std::remove(path.c_str());
    return in_memory.cycles == from_disk.cycles ? 0 : 1;
}
