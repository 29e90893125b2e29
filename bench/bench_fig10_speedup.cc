/**
 * @file
 * Regenerates Fig. 10: speedup of every compared scheme (replacement
 * policies, bypassing policies, victim caches, larger L1i, ACIC, and
 * the OPT oracles) over the LRU + FDP baseline, per datacenter
 * workload with geomean.
 */

#include "bench_util.hh"

using namespace acic;
using namespace acic::bench;

int
main()
{
    const BenchMatrix m = runMatrix(parseSchemeList(
        "lru,srrip,ship,harmony,ghrp,dsb,obm,vvc,vc3k,acic,"
        "l1i36k,opt,opt_bypass"));
    TablePrinter table = matrixTable(
        m, Metric::Speedup,
        "Fig. 10: speedup over LRU baseline with fetch-directed "
        "prefetching");
    table.addNote("paper gmeans: GHRP best prior (< ACIC 1.0223); "
                  "VVC slows down; OPT 1.0398; OPT-bypass ~= OPT");
    table.print();
    return 0;
}
