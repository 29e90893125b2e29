/**
 * @file
 * Shared plumbing for the figure/table regeneration binaries. Every
 * matrix bench names its schemes (column 0 is the baseline every
 * speedup and MPKI reduction divides by) and runs them over catalog
 * rows on the parallel experiment driver through runMatrix(): each
 * workload's trace and Belady oracle are built once, the cells fan
 * out across hardware threads, and a workload's image is released
 * after its row's last cell. A cell is bit-identical to a serial
 * SharedWorkload::run of the same (workload, scheme), so the tables
 * do not depend on the thread count. The table helpers at the end
 * print the shapes several figures share.
 */

#ifndef ACIC_BENCH_BENCH_UTIL_HH
#define ACIC_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "driver/experiment.hh"
#include "trace/catalog.hh"

namespace acic::bench {

/**
 * Catalog rows of @p group ("all-datacenter" or "all-spec"). Set
 * ACIC_BENCH_TRACE_DIR to overlay a directory of recorded or
 * imported `.acictrace` files onto the presets, so every bench can
 * rerun against real traces unchanged.
 */
inline std::vector<WorkloadEntry>
catalogEntries(const std::string &group)
{
    WorkloadCatalog catalog = WorkloadCatalog::builtin();
    if (const char *dir = std::getenv("ACIC_BENCH_TRACE_DIR"))
        catalog.addTraceDir(dir);
    return catalog.resolve(group);
}

/** Default per-workload trace length for bench sweeps. */
inline std::uint64_t
benchTraceLength()
{
    // Delegate ACIC_TRACE_LEN parsing to the one hardened parser.
    WorkloadParams params;
    params.instructions = 2'000'000;
    return withEnvOverrides(params).instructions;
}

inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

/** The finished cells of one bench matrix, rows x scheme columns. */
struct BenchMatrix
{
    ExperimentSpec spec;
    std::vector<CellResult> cells; ///< workload-major

    std::size_t rows() const { return spec.workloads.size(); }
    std::size_t columns() const { return spec.schemes.size(); }

    const std::string &name(std::size_t w) const
    {
        return spec.workloads[w].name();
    }

    const SimResult &at(std::size_t w, std::size_t s) const
    {
        return cells[w * columns() + s].result;
    }

    const SimResult &baseline(std::size_t w) const { return at(w, 0); }

    double speedup(std::size_t w, std::size_t s) const
    {
        return static_cast<double>(baseline(w).cycles) /
               static_cast<double>(at(w, s).cycles);
    }

    double mpkiReduction(std::size_t w, std::size_t s) const
    {
        const double base = baseline(w).mpki();
        return base == 0.0 ? 0.0 : (base - at(w, s).mpki()) / base;
    }

    /** Geomean over the rows of column @p s's speedup. */
    double gmeanSpeedup(std::size_t s) const
    {
        std::vector<double> values;
        for (std::size_t w = 0; w < rows(); ++w)
            values.push_back(speedup(w, s));
        return geomean(values);
    }

    /** Mean over the rows of column @p s's MPKI reduction. */
    double meanMpkiReduction(std::size_t s) const
    {
        std::vector<double> values;
        for (std::size_t w = 0; w < rows(); ++w)
            values.push_back(mpkiReduction(w, s));
        return mean(values);
    }
};

/**
 * Run @p schemes over @p rows at benchTraceLength() instructions on
 * the experiment driver.
 */
inline BenchMatrix
runMatrix(std::vector<SchemeSpec> schemes, const SimConfig &config = {},
          std::vector<WorkloadEntry> rows =
              catalogEntries("all-datacenter"))
{
    BenchMatrix matrix;
    matrix.spec.workloads = std::move(rows);
    matrix.spec.schemes = std::move(schemes);
    matrix.spec.config = config;
    matrix.spec.instructions = benchTraceLength();
    matrix.cells = ExperimentDriver(matrix.spec).run();
    return matrix;
}

/** What a matrixTable() cell reports against column 0. */
enum class Metric
{
    Speedup,       ///< 4 decimals, closed by a "gmean" row
    MpkiReduction, ///< percent, closed by an "Avg" row
};

/**
 * Workload x scheme table of @p metric for every column but the
 * baseline. @p baseline_mpki appends the baseline's MPKI as a last
 * column (Figs. 18/19, where it explains the little headroom).
 */
inline TablePrinter
matrixTable(const BenchMatrix &m, Metric metric, std::string title,
            bool baseline_mpki = false)
{
    const bool speedup = metric == Metric::Speedup;
    const auto cell = [&](double value) {
        return speedup ? TablePrinter::fmt(value, 4)
                       : TablePrinter::pct(value, 1);
    };
    TablePrinter table(std::move(title));
    std::vector<std::string> header{"workload"};
    for (std::size_t s = 1; s < m.columns(); ++s)
        header.push_back(schemeName(m.spec.schemes[s]));
    if (baseline_mpki)
        header.push_back("baseline MPKI");
    table.setHeader(header);
    for (std::size_t w = 0; w < m.rows(); ++w) {
        std::vector<std::string> row{m.name(w)};
        for (std::size_t s = 1; s < m.columns(); ++s)
            row.push_back(cell(speedup ? m.speedup(w, s)
                                       : m.mpkiReduction(w, s)));
        if (baseline_mpki)
            row.push_back(TablePrinter::fmt(m.baseline(w).mpki(), 2));
        table.addRow(row);
    }
    std::vector<std::string> summary{speedup ? "gmean" : "Avg"};
    for (std::size_t s = 1; s < m.columns(); ++s)
        summary.push_back(cell(speedup ? m.gmeanSpeedup(s)
                                       : m.meanMpkiReduction(s)));
    if (baseline_mpki)
        summary.push_back("");
    table.addRow(summary);
    return table;
}

/** A labelled ACIC variant: (figure label, registry spec). */
using Variant = std::pair<const char *, const char *>;

/**
 * Print one "label -> gmean speedup over LRU+FDP" row per variant
 * (Figs. 15 and 17).
 */
inline void
printVariantGmeans(const std::vector<Variant> &variants,
                   std::string title, const std::string &label_header,
                   std::string note)
{
    std::vector<SchemeSpec> schemes{parseScheme("lru")};
    for (const Variant &variant : variants)
        schemes.push_back(parseScheme(variant.second));
    const BenchMatrix m = runMatrix(std::move(schemes));

    TablePrinter table(std::move(title));
    table.setHeader({label_header, "gmean speedup"});
    for (std::size_t s = 1; s < m.columns(); ++s)
        table.addRow({variants[s - 1].first,
                      TablePrinter::fmt(m.gmeanSpeedup(s), 4)});
    table.addNote(std::move(note));
    table.print();
}

} // namespace acic::bench

#endif // ACIC_BENCH_BENCH_UTIL_HH
