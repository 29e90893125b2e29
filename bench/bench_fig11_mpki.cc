/**
 * @file
 * Regenerates Fig. 11: L1i MPKI reduction of every compared scheme
 * over the LRU + FDP baseline, plus the Sec. IV-D replacement-
 * accuracy statistic (fraction of evictions matching OPT's choice).
 */

#include <map>

#include "bench_util.hh"

using namespace acic;
using namespace acic::bench;

int
main()
{
    const BenchMatrix m = runMatrix(parseSchemeList(
        "lru,srrip,ship,harmony,ghrp,dsb,obm,vvc,vc3k,acic,l1i36k,"
        "opt,opt_bypass"));
    TablePrinter table = matrixTable(
        m, Metric::MpkiReduction,
        "Fig. 11: L1i MPKI reduction over LRU+FDP");
    table.addNote("paper: ACIC 18.14% avg (55.85% of OPT's "
                  "reduction); GHRP 15.64% of OPT's");
    table.print();

    // Only PlainIcache organizations judge evictions against OPT.
    std::map<std::string, std::vector<double>> accuracy;
    for (std::size_t w = 0; w < m.rows(); ++w)
        for (std::size_t s = 1; s < m.columns(); ++s) {
            const StatSet &stats = m.at(w, s).orgStats;
            if (stats.has("plain.evictions_judged"))
                accuracy[schemeName(m.spec.schemes[s])].push_back(
                    stats.ratio("plain.evictions_match_opt",
                                "plain.evictions_judged"));
        }
    TablePrinter acc("Sec. IV-D: replacement accuracy (evictions "
                     "matching OPT's victim)");
    acc.setHeader({"scheme", "avg accuracy"});
    for (const auto &[name, values] : accuracy)
        acc.addRow({name, TablePrinter::pct(mean(values), 1)});
    acc.addNote("paper: GHRP 17.90% average");
    acc.print();
    return 0;
}
