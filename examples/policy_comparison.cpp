/**
 * @file
 * Policy comparison example: run the full scheme catalogue on one
 * workload and print a compact Fig. 10/11-style table (speedup and
 * MPKI reduction vs. the LRU+FDP baseline), plus the i-Filter
 * admission statistics for the filtered schemes.
 *
 * Usage: policy_comparison [workload] [instructions]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/runner.hh"

using namespace acic;

int
main(int argc, char **argv)
{
    const std::string workload_name =
        argc > 1 ? argv[1] : "neo4j_analytics";
    WorkloadParams params = Workloads::byName(workload_name);
    params.instructions =
        argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2]))
                 : 2'000'000;

    params = withEnvOverrides(params);

    const SharedWorkload workload(params);
    const SimResult base = workload.run(parseScheme("lru"));

    const std::vector<SchemeSpec> kSchemes = parseSchemeList(
        "srrip,ship,harmony,ghrp,dsb,obm,vvc,vc3k,always_insert,"
        "acic,l1i36k,opt,opt_bypass");

    TablePrinter table("Scheme comparison on " + params.name +
                       " (baseline LRU+FDP: " +
                       TablePrinter::fmt(base.mpki(), 2) + " MPKI, " +
                       TablePrinter::fmt(base.ipc(), 2) + " IPC)");
    table.setHeader({"scheme", "speedup", "MPKI", "MPKI reduction",
                     "admit rate", "storage KB"});
    for (const SchemeSpec &scheme : kSchemes) {
        auto org = makeScheme(scheme, workload.config());
        const SimResult r = workload.run(*org, workload.wholeRun());
        const double speedup = static_cast<double>(base.cycles) /
                               static_cast<double>(r.cycles);
        const double reduction =
            base.mpki() == 0.0
                ? 0.0
                : (base.mpki() - r.mpki()) / base.mpki();
        std::string admit = "-";
        const std::uint64_t victims =
            r.orgStats.get("filtered.filter_victims");
        if (victims > 0) {
            admit = TablePrinter::pct(
                static_cast<double>(
                    r.orgStats.get("filtered.victims_admitted")) /
                    static_cast<double>(victims),
                0);
        }
        table.addRow({r.scheme, TablePrinter::fmt(speedup, 4),
                      TablePrinter::fmt(r.mpki(), 2),
                      TablePrinter::pct(reduction, 1), admit,
                      TablePrinter::fmt(
                          static_cast<double>(
                              org->storageOverheadBits()) /
                              8.0 / 1024.0,
                          2)});
    }
    table.print();
    return 0;
}
