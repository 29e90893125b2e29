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
    auto runs = buildBaselines(Workloads::datacenter(), config);

    const std::vector<SchemeSpec> kSchemes =
        parseSchemeList("ghrp,l1i36k,acic,opt");

    TablePrinter fig20(
        "Fig. 20: speedup over entangling-prefetcher baseline");
    TablePrinter fig21(
        "Fig. 21: L1i MPKI reduction over entangling baseline");
    std::vector<std::string> header{"workload"};
    for (const SchemeSpec &s : kSchemes)
        header.push_back(schemeName(s));
    fig20.setHeader(header);
    fig21.setHeader(header);

    std::map<std::string, std::vector<double>> speedups, reductions;
    for (auto &run : runs) {
        std::vector<std::string> srow{run.name}, rrow{run.name};
        for (const SchemeSpec &s : kSchemes) {
            const SimResult r = run.workload->run(s);
            const double sp = speedupOf(run.baseline, r);
            const double red = mpkiReductionOf(run.baseline, r);
            speedups[schemeName(s)].push_back(sp);
            reductions[schemeName(s)].push_back(red);
            srow.push_back(TablePrinter::fmt(sp, 4));
            rrow.push_back(TablePrinter::pct(red, 1));
        }
        fig20.addRow(srow);
        fig21.addRow(rrow);
    }
    std::vector<std::string> grow{"gmean"}, arow{"Avg"};
    for (const SchemeSpec &s : kSchemes) {
        grow.push_back(
            TablePrinter::fmt(geomean(speedups[schemeName(s)]), 4));
        arow.push_back(
            TablePrinter::pct(mean(reductions[schemeName(s)]), 1));
    }
    fig20.addRow(grow);
    fig21.addRow(arow);
    fig20.addNote("paper: ACIC 1.0102 gmean, 6.71% MPKI reduction "
                  "on top of the entangling prefetcher");
    fig20.print();
    fig21.print();
    return 0;
}
