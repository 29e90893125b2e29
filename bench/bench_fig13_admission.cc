/**
 * @file
 * Regenerates Fig. 13: the percentage of i-Filter victims that ACIC's
 * predictor admits into the i-cache, per workload. The paper reads
 * this as evidence of dynamic per-application adaptation (30-99%).
 */

#include "bench_util.hh"

using namespace acic;
using namespace acic::bench;

int
main()
{
    // ACIC's own counters only: no baseline column is needed.
    const BenchMatrix m = runMatrix(parseSchemeList("acic"));

    TablePrinter table(
        "Fig. 13: % of i-Filter victims inserted into i-cache");
    table.setHeader({"workload", "victims", "inserted", "percent"});
    for (std::size_t w = 0; w < m.rows(); ++w) {
        const StatSet &stats = m.at(w, 0).orgStats;
        const std::uint64_t victims =
            stats.get("filtered.filter_victims");
        const std::uint64_t admitted =
            stats.get("filtered.victims_admitted");
        table.addRow({m.name(w), std::to_string(victims),
                      std::to_string(admitted),
                      TablePrinter::pct(
                          victims == 0
                              ? 0.0
                              : static_cast<double>(admitted) /
                                    static_cast<double>(victims),
                          1)});
    }
    table.addNote("paper: 30-99% across applications; the four "
                  "(512,1024]-heavy apps filter the most");
    table.print();
    return 0;
}
