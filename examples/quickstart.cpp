/**
 * @file
 * Quickstart: simulate one datacenter workload under the baseline
 * LRU i-cache, ACIC, and the OPT oracle, and print the headline
 * metrics the paper reports (speedup, MPKI reduction, storage).
 *
 * Usage: quickstart [workload_name] [instructions]
 *   e.g. quickstart web_search 2000000
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table.hh"
#include "core/storage.hh"
#include "sim/runner.hh"

using namespace acic;

int
main(int argc, char **argv)
{
    const std::string workload_name =
        argc > 1 ? argv[1] : "media_streaming";
    WorkloadParams params = Workloads::byName(workload_name);
    if (argc > 2)
        params.instructions =
            static_cast<std::uint64_t>(std::atoll(argv[2]));
    params = withEnvOverrides(params);

    std::printf("ACIC quickstart: workload '%s', %llu instructions\n",
                params.name.c_str(),
                static_cast<unsigned long long>(params.instructions));

    const SharedWorkload workload(params);
    const SimResult base = workload.run(parseScheme("lru"));
    const SimResult acic = workload.run(parseScheme("acic"));
    const SimResult opt = workload.run(parseScheme("opt"));

    TablePrinter table("Quickstart: LRU baseline vs ACIC vs OPT");
    table.setHeader({"scheme", "IPC", "L1i MPKI", "speedup",
                     "MPKI reduction"});
    const auto row = [&](const SimResult &r) {
        const double speedup = static_cast<double>(base.cycles) /
                               static_cast<double>(r.cycles);
        const double mpki_red =
            base.mpki() == 0.0
                ? 0.0
                : (base.mpki() - r.mpki()) / base.mpki();
        table.addRow({r.scheme, TablePrinter::fmt(r.ipc(), 3),
                      TablePrinter::fmt(r.mpki(), 2),
                      TablePrinter::fmt(speedup, 4),
                      TablePrinter::pct(mpki_red)});
    };
    row(base);
    row(acic);
    row(opt);
    table.print();

    const auto breakdown = acicStorageBreakdown();
    std::printf("\nACIC hardware budget: %.2f KB "
                "(paper: 2.67 KB)\n",
                static_cast<double>(totalBits(breakdown)) / 8.0 /
                    1024.0);
    std::printf("demand accesses: %llu, branch mispredicts: %llu, "
                "prefetches: %llu\n",
                static_cast<unsigned long long>(base.demandAccesses),
                static_cast<unsigned long long>(
                    base.branchMispredicts),
                static_cast<unsigned long long>(
                    base.prefetchesIssued));
    return 0;
}
