/**
 * @file
 * Regenerates the Sec. III-D energy claim: chip energy of ACIC vs.
 * the LRU+FDP baseline, charging ACIC's i-Filter/HRT/PT/CSHR activity
 * and crediting the shorter execution time (paper: -0.63% on
 * average).
 */

#include "bench_util.hh"
#include "sim/energy.hh"

using namespace acic;
using namespace acic::bench;

int
main()
{
    const BenchMatrix m = runMatrix(parseSchemeList("lru,acic"));

    TablePrinter table("Sec. III-D: chip energy, ACIC vs baseline");
    table.setHeader({"workload", "baseline (mJ)", "ACIC (mJ)",
                     "delta"});
    std::vector<double> deltas;
    for (std::size_t w = 0; w < m.rows(); ++w) {
        const EnergyBreakdown base_e =
            computeEnergy(m.baseline(w), {}, false);
        const EnergyBreakdown acic_e =
            computeEnergy(m.at(w, 1), {}, true);
        const double delta =
            acic_e.totalNj() / base_e.totalNj() - 1.0;
        deltas.push_back(delta);
        table.addRow({m.name(w),
                      TablePrinter::fmt(base_e.totalNj() / 1e6, 3),
                      TablePrinter::fmt(acic_e.totalNj() / 1e6, 3),
                      TablePrinter::pct(delta, 2)});
    }
    table.addRow({"Avg", "", "", TablePrinter::pct(mean(deltas), 2)});
    table.addNote("paper: ACIC saves 0.63% chip energy on average "
                  "despite the added structures");
    table.print();
    return 0;
}
