/**
 * @file
 * Telemetry-file summarizer behind `acic_run report`: reads the
 * JSONL event stream a `--telemetry` run wrote (common/telemetry.hh
 * schema) and renders per-phase time breakdowns, a slowest-cells
 * table (per-cell simulation seconds, aggregated over interval
 * shards), heartbeat throughput/rolling-window aggregates, the engine
 * clock's cycles and stepped cycles per kilo-instruction, and pool
 * gauge ranges.
 */

#ifndef ACIC_DRIVER_REPORT_HH
#define ACIC_DRIVER_REPORT_HH

#include <cstddef>
#include <iosfwd>
#include <string>

namespace acic {

/** Tuning knobs of writeTelemetryReport(). */
struct ReportOptions
{
    /** Rows of the slowest-cells table. */
    std::size_t topCells = 10;
};

/**
 * Summarize the telemetry JSONL stream @p in into @p out.
 * Lines that do not parse are counted and reported, not fatal, so a
 * truncated file (e.g. a killed run) still yields a report.
 * @return false when @p in contains no telemetry event at all, with
 * the reason in @p error.
 */
bool writeTelemetryReport(std::istream &in, std::ostream &out,
                          const ReportOptions &options,
                          std::string &error);

} // namespace acic

#endif // ACIC_DRIVER_REPORT_HH
