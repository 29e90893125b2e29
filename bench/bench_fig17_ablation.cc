/**
 * @file
 * Regenerates Fig. 17: geomean speedup of ACIC with pieces removed or
 * simplified -- no i-Filter (1-slot filter, every fill judged
 * immediately), i-Filter only (no admission), global-history
 * predictor, and bimodal predictor -- against the full design.
 *
 * Every ablation is a registry spec string; the same points are
 * reachable from the command line via `acic_run run --schemes`.
 */

#include "bench_util.hh"

using namespace acic;
using namespace acic::bench;

int
main()
{
    printVariantGmeans(
        {
            {"default ACIC", "acic"},
            {"no i-Filter", "acic(filter=1)"},
            {"i-Filter only", "ifilter_only"},
            {"global-history predictor", "acic_global_history"},
            {"bimodal predictor", "acic_bimodal"},
        },
        "Fig. 17: speedup of ACIC with simpler designs over LRU+FDP "
        "(gmean)",
        "design",
        "paper: turning off the i-Filter or the predictor, or "
        "degrading it to global-history/bimodal, all lose performance "
        "vs. the full ACIC");
    return 0;
}
