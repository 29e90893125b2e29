/**
 * @file
 * Regenerates Fig. 20 (speedup) and Fig. 21 (MPKI reduction) with the
 * entangling instruction prefetcher as the baseline prefetcher
 * instead of FDP, comparing GHRP, 36 KB L1i, ACIC, and OPT. The
 * paper's point: a stronger prefetcher raises baseline hit rate, yet
 * ACIC still improves on top of it.
 */

#include "bench_util.hh"

using namespace acic;
using namespace acic::bench;

int
main()
{
    SimConfig config;
    config.prefetcher = PrefetcherKind::Entangling;
    const BenchMatrix m =
        runMatrix(parseSchemeList("lru,ghrp,l1i36k,acic,opt"), config);
    TablePrinter fig20 = matrixTable(
        m, Metric::Speedup,
        "Fig. 20: speedup over entangling-prefetcher baseline");
    fig20.addNote("paper: ACIC 1.0102 gmean, 6.71% MPKI reduction "
                  "on top of the entangling prefetcher");
    fig20.print();
    matrixTable(m, Metric::MpkiReduction,
                "Fig. 21: L1i MPKI reduction over entangling baseline")
        .print();
    return 0;
}
