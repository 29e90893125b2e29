/**
 * @file
 * Regenerates Fig. 15: geomean speedup of ACIC under the paper's
 * sensitivity axes -- HRT entries, history length, PT counter width,
 * i-Filter slots, and CSHR partial-tag width -- around the default
 * Table I configuration.
 *
 * The sweep is declared as registry spec strings, so the same points
 * are reachable from the command line, e.g.
 *   acic_run sweep --grid 'acic(filter={8,16,32})' \
 *            --workloads all-datacenter
 */

#include "bench_util.hh"

using namespace acic;
using namespace acic::bench;

int
main()
{
    printVariantGmeans(
        {
            {"default", "acic"},
            {"2k HRT entries", "acic(hrt=2048)"},
            {"512 HRT entries", "acic(hrt=512)"},
            {"8-bit history", "acic(history=8)"},
            {"10-bit history", "acic(history=10)"},
            {"2-bit counter", "acic(counter=2)"},
            {"8-bit counter", "acic(counter=8)"},
            {"8-slot i-Filter", "acic(filter=8)"},
            {"32-slot i-Filter", "acic(filter=32)"},
            {"7-bit CSHR tag", "acic(tag=7)"},
            {"27-bit CSHR tag", "acic(tag=27)"},
        },
        "Fig. 15: ACIC sensitivity (gmean speedup over LRU+FDP)",
        "configuration",
        "paper: larger i-Filter helps most; smaller i-Filter, short "
        "PT counters, and 7-bit CSHR tags hurt most; 10-bit history "
        "barely helps");
    return 0;
}
