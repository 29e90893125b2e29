/**
 * @file
 * Regenerates Fig. 11: L1i MPKI reduction of every compared scheme
 * over the LRU + FDP baseline, plus the Sec. IV-D replacement-
 * accuracy statistic (fraction of evictions matching OPT's choice).
 */

#include "bench_util.hh"

using namespace acic;
using namespace acic::bench;

int
main()
{
    auto runs = buildBaselines(Workloads::datacenter());

    const std::vector<SchemeSpec> kSchemes = parseSchemeList(
        "srrip,ship,harmony,ghrp,dsb,obm,vvc,vc3k,acic,l1i36k,"
        "opt,opt_bypass");

    TablePrinter table("Fig. 11: L1i MPKI reduction over LRU+FDP");
    std::vector<std::string> header{"workload"};
    for (const SchemeSpec &s : kSchemes)
        header.push_back(schemeName(s));
    table.setHeader(header);

    std::map<std::string, std::vector<double>> reductions;
    std::map<std::string, std::vector<double>> accuracy;
    for (auto &run : runs) {
        std::vector<std::string> row{run.name};
        for (const SchemeSpec &s : kSchemes) {
            const SimResult result = run.workload->run(s);
            const double red = mpkiReductionOf(run.baseline, result);
            reductions[schemeName(s)].push_back(red);
            row.push_back(TablePrinter::pct(red, 1));
            if (result.orgStats.has("plain.evictions_judged")) {
                accuracy[schemeName(s)].push_back(
                    result.orgStats.ratio(
                        "plain.evictions_match_opt",
                        "plain.evictions_judged"));
            }
        }
        table.addRow(row);
    }
    std::vector<std::string> avg_row{"Avg"};
    for (const SchemeSpec &s : kSchemes)
        avg_row.push_back(
            TablePrinter::pct(mean(reductions[schemeName(s)]), 1));
    table.addRow(avg_row);
    table.addNote("paper: ACIC 18.14% avg (55.85% of OPT's "
                  "reduction); GHRP 15.64% of OPT's");
    table.print();

    TablePrinter acc("Sec. IV-D: replacement accuracy (evictions "
                     "matching OPT's victim)");
    acc.setHeader({"scheme", "avg accuracy"});
    for (const auto &[name, values] : accuracy)
        acc.addRow({name, TablePrinter::pct(mean(values), 1)});
    acc.addNote("paper: GHRP 17.90% average");
    acc.print();
    return 0;
}
