/**
 * @file
 * Regenerates Fig. 16: ACIC's speedup over an FDP baseline that is
 * *already equipped with an i-Filter* (always-insert). Real cores
 * carry small fetch buffers, so this isolates the benefit of the
 * admission/bypass policy itself.
 */

#include "bench_util.hh"

using namespace acic;
using namespace acic::bench;

int
main()
{
    // Baseline here is the i-Filter + always-insert organization.
    auto runs = buildBaselines(Workloads::datacenter(), SimConfig{},
                               "always_insert");

    TablePrinter table("Fig. 16: ACIC speedup over FDP baseline "
                       "with i-Filter (always-insert)");
    table.setHeader({"workload", "speedup"});
    std::vector<double> speedups;
    for (auto &run : runs) {
        const SimResult r = run.workload->run(parseScheme("acic"));
        speedups.push_back(speedupOf(run.baseline, r));
        table.addRow({run.name,
                      TablePrinter::fmt(speedups.back(), 4)});
    }
    table.addRow({"gmean", TablePrinter::fmt(geomean(speedups), 4)});
    table.addNote("paper: the bypass policy alone gives 1.0165 "
                  "geomean over the i-Filter-equipped baseline");
    table.print();
    return 0;
}
