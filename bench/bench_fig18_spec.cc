/**
 * @file
 * Regenerates Fig. 18 (speedup) and Fig. 19 (MPKI reduction) for the
 * SPEC-like workloads under GHRP, the 36 KB L1i, ACIC, and OPT over
 * the LRU+FDP baseline. The paper's point: SPEC hit rates are high at
 * baseline, leaving little headroom -- ACIC roughly matches a 36 KB
 * L1i without the capacity cost.
 */

#include "bench_util.hh"

using namespace acic;
using namespace acic::bench;

int
main()
{
    const BenchMatrix m =
        runMatrix(parseSchemeList("lru,ghrp,l1i36k,acic,opt"), {},
                  catalogEntries("all-spec"));
    TablePrinter fig18 = matrixTable(
        m, Metric::Speedup, "Fig. 18: SPEC speedup over LRU+FDP", true);
    fig18.addNote("paper: little headroom on SPEC; ACIC ~= 36KB L1i");
    fig18.print();
    matrixTable(m, Metric::MpkiReduction,
                "Fig. 19: SPEC L1i MPKI reduction", true)
        .print();
    return 0;
}
