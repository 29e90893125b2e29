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
    auto runs = buildBaselines(Workloads::spec());

    const std::vector<SchemeSpec> kSchemes =
        parseSchemeList("ghrp,l1i36k,acic,opt");

    TablePrinter fig18("Fig. 18: SPEC speedup over LRU+FDP");
    TablePrinter fig19("Fig. 19: SPEC L1i MPKI reduction");
    std::vector<std::string> header{"workload"};
    for (const SchemeSpec &s : kSchemes)
        header.push_back(schemeName(s));
    header.push_back("baseline MPKI");
    fig18.setHeader(header);
    fig19.setHeader(header);

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
        srow.push_back(TablePrinter::fmt(run.baseline.mpki(), 2));
        rrow.push_back(TablePrinter::fmt(run.baseline.mpki(), 2));
        fig18.addRow(srow);
        fig19.addRow(rrow);
    }
    std::vector<std::string> grow{"gmean"}, arow{"Avg"};
    for (const SchemeSpec &s : kSchemes) {
        grow.push_back(
            TablePrinter::fmt(geomean(speedups[schemeName(s)]), 4));
        arow.push_back(
            TablePrinter::pct(mean(reductions[schemeName(s)]), 1));
    }
    grow.push_back("");
    arow.push_back("");
    fig18.addRow(grow);
    fig19.addRow(arow);
    fig18.addNote("paper: little headroom on SPEC; ACIC ~= 36KB L1i");
    fig18.print();
    fig19.print();
    return 0;
}
