/**
 * @file
 * Regenerates Fig. 3a (speedup of always-insert i-Filter, bypass with
 * access-count comparison, and the OPT replacement policy over the
 * LRU+FDP baseline) and Fig. 3b (histogram of incoming-minus-outgoing
 * next-use gap at i-Filter -> i-cache insertion, media streaming).
 */

#include "bench_util.hh"
#include "common/logging.hh"

using namespace acic;
using namespace acic::bench;

int
main()
{
    const BenchMatrix m = runMatrix(
        parseSchemeList("lru,always_insert,access_count,opt"));

    TablePrinter fig3a("Fig. 3a: speedup over LRU+FDP baseline");
    fig3a.setHeader({"workload", "Always insert", "Access count",
                     "OPT replacement"});
    for (std::size_t w = 0; w < m.rows(); ++w)
        fig3a.addRow({m.name(w), TablePrinter::fmt(m.speedup(w, 1), 4),
                      TablePrinter::fmt(m.speedup(w, 2), 4),
                      TablePrinter::fmt(m.speedup(w, 3), 4)});
    fig3a.addRow({"gmean", TablePrinter::fmt(m.gmeanSpeedup(1), 4),
                  TablePrinter::fmt(m.gmeanSpeedup(2), 4),
                  TablePrinter::fmt(m.gmeanSpeedup(3), 4)});
    fig3a.addNote("paper: always-insert 1.0057, access-count 1.0102, "
                  "OPT 1.0398 geomean");
    fig3a.print();

    // Fig. 3b: gap buckets recorded by the always-insert run.
    std::size_t row = 0;
    while (row < m.rows() && m.name(row) != "media_streaming")
        ++row;
    if (row == m.rows())
        ACIC_FATAL("Fig. 3b needs the media_streaming workload");
    const SimResult &media = m.at(row, 1);
    static const char *kGapLabels[] = {
        "-InF..-10000", "-10000..-1000", "-1000..-100", "-100..-10",
        "-10..0",       "0..10",         "10..100",     "100..1000",
        "1000..10000",  "10000..InF"};
    std::uint64_t total = 0;
    std::uint64_t positive = 0;
    std::vector<std::uint64_t> counts;
    for (std::size_t b = 0; b < 10; ++b) {
        const std::uint64_t c = media.orgStats.get(
            "acic.gap_bucket_" + std::to_string(b));
        counts.push_back(c);
        total += c;
        if (b >= 5)
            positive += c;
    }
    TablePrinter fig3b(
        "Fig. 3b: (incoming - outgoing) next-use gap at insertion, "
        "media streaming, always-insert");
    fig3b.setHeader({"gap bucket", "percent"});
    for (std::size_t b = 0; b < 10; ++b)
        fig3b.addRow({kGapLabels[b],
                      TablePrinter::pct(total == 0
                                            ? 0.0
                                            : static_cast<double>(
                                                  counts[b]) /
                                                  static_cast<double>(
                                                      total))});
    fig3b.addRow({"> 0 (wrong insertions)",
                  TablePrinter::pct(total == 0
                                        ? 0.0
                                        : static_cast<double>(
                                              positive) /
                                              static_cast<double>(
                                                  total))});
    fig3b.addNote("paper: 38.38% of insertions bring in a block with "
                  "a larger reuse distance than the block evicted");
    fig3b.print();
    return 0;
}
