/**
 * @file
 * perfbench: the repository benchmark's measuring program.
 *
 *   perfbench gen --workload W --seed N --dir D
 *       write the lane's seeded inputs into D
 *   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
 *       measure lane W over the inputs in D; the last stdout line is
 *       the JSON result (end-to-end metrics, or per-layer with
 *       --trace 1)
 *
 * Generation and measurement are separate processes so the measured
 * process's peak RSS and set-up time hold only what the simulator
 * itself loads. run.py drives both.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "lanes.hh"
#include "measure.hh"
#include "slowdown.hh"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench gen --workload W --seed N --dir D\n"
                 "       perfbench run --workload W --seed N "
                 "--seconds S --trace 0|1 --dir D\n"
                 "workloads: %s\n",
                 perfbench::laneNames().c_str());
    return 2;
}

bool
parseU64(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    std::string workload, dir;
    std::uint64_t seed = 0, seconds = 10, trace = 0;
    bool have_seed = false;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        bool ok = true;
        if (flag == "--workload")
            workload = value;
        else if (flag == "--dir")
            dir = value;
        else if (flag == "--seed")
            ok = have_seed = parseU64(value, seed);
        else if (flag == "--seconds")
            ok = parseU64(value, seconds) && seconds > 0;
        else if (flag == "--trace")
            ok = parseU64(value, trace) && trace <= 1;
        else
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "perfbench: bad argument %s %s\n",
                         flag.c_str(), value);
            return usage();
        }
    }
    if (argc % 2 != 0 || (mode != "gen" && mode != "run") ||
        !have_seed || dir.empty())
        return usage();
    const perfbench::Lane *lane = perfbench::findLane(workload);
    if (lane == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     workload.c_str());
        return usage();
    }

    try {
        if (mode == "gen") {
            perfbench::generateInputs(*lane, seed, dir);
            return 0;
        }
        perfbench::installSlowdown();
        perfbench::RunOptions options;
        options.dir = dir;
        options.seconds = static_cast<double>(seconds);
        options.traced = trace == 1;
        options.cpus = perfbench::usableCpus();
        perfbench::Report report;
        perfbench::Checks checks;
        report.note("workload " + lane->name + ", seed " +
                    std::to_string(seed) + ", " +
                    std::to_string(options.cpus) + " CPUs, " +
                    (options.traced ? "traced" : "untraced"));
        if (lane->serve)
            perfbench::runServeLane(*lane, options, report, checks);
        else
            perfbench::runSweepLane(*lane, options, report, checks);
        report.print(checks);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
