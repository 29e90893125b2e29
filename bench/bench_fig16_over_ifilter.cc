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
    const BenchMatrix m =
        runMatrix(parseSchemeList("always_insert,acic"));

    TablePrinter table("Fig. 16: ACIC speedup over FDP baseline "
                       "with i-Filter (always-insert)");
    table.setHeader({"workload", "speedup"});
    for (std::size_t w = 0; w < m.rows(); ++w)
        table.addRow({m.name(w), TablePrinter::fmt(m.speedup(w, 1), 4)});
    table.addRow({"gmean", TablePrinter::fmt(m.gmeanSpeedup(1), 4)});
    table.addNote("paper: the bypass policy alone gives 1.0165 "
                  "geomean over the i-Filter-equipped baseline");
    table.print();
    return 0;
}
