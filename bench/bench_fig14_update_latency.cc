/**
 * @file
 * Regenerates Fig. 14: L1i MPKI reduction of ACIC with the realistic
 * 2-cycle parallel predictor-update pipeline vs. an instant-update
 * idealization. The paper's point: staleness from the update latency
 * does not measurably hurt.
 */

#include "bench_util.hh"

using namespace acic;
using namespace acic::bench;

int
main()
{
    const BenchMatrix m =
        runMatrix(parseSchemeList("lru,acic,acic_instant"));

    TablePrinter table("Fig. 14: MPKI reduction, parallel (2-cycle) "
                       "vs instant predictor update");
    table.setHeader({"workload", "parallel update",
                     "instant update"});
    for (std::size_t w = 0; w < m.rows(); ++w)
        table.addRow({m.name(w),
                      TablePrinter::pct(m.mpkiReduction(w, 1), 2),
                      TablePrinter::pct(m.mpkiReduction(w, 2), 2)});
    table.addRow({"Avg", TablePrinter::pct(m.meanMpkiReduction(1), 2),
                  TablePrinter::pct(m.meanMpkiReduction(2), 2)});
    table.addNote("paper: the two schemes are indistinguishable, so "
                  "the update pipeline stays off the critical path");
    table.print();
    return 0;
}
