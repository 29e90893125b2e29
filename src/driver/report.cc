#include "driver/report.hh"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <vector>

#include "common/json.hh"
#include "common/table.hh"

namespace acic {

namespace {

/** Aggregate of every span sharing one name. */
struct SpanStats
{
    std::uint64_t count = 0;
    std::uint64_t totalUs = 0;
    std::uint64_t maxUs = 0;
};

/** Aggregate of one (workload, scheme) cell's simulation spans. */
struct CellStats
{
    std::string workload;
    std::string scheme;
    std::uint64_t totalUs = 0;
    std::uint64_t spans = 0; ///< 1 monolithic, else shard count
};

/** Instructions, cycles and stepped cycles of one engine phase. */
struct ClockStats
{
    double insts = 0.0;
    double cycles = 0.0;
    double steps = 0.0;
};

/** Engine images saved or loaded, with their bytes and time. */
struct CheckpointStats
{
    std::uint64_t images = 0;
    double bytes = 0.0;
    std::uint64_t totalUs = 0;
};

/** Running min/mean/max of one gauge name. */
struct GaugeStats
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void add(double v)
    {
        if (count == 0) {
            min = max = v;
        } else {
            min = std::min(min, v);
            max = std::max(max, v);
        }
        sum += v;
        ++count;
    }
};

std::string
fmtSeconds(double us)
{
    return TablePrinter::fmt(us / 1e6, 3);
}

} // namespace

bool
writeTelemetryReport(std::istream &in, std::ostream &out,
                     const ReportOptions &options,
                     std::string &error)
{
    std::map<std::string, SpanStats> spans;
    std::map<std::pair<std::string, std::string>, CellStats> cells;
    std::map<std::string, GaugeStats> gauges;
    std::map<std::string, ClockStats> clocks;
    CheckpointStats saves, loads;

    // Heartbeat aggregates, instruction-weighted where a mean over
    // windows would over-count short ones.
    std::uint64_t heartbeats = 0;
    double hbInsts = 0.0;
    double hbWallSecs = 0.0; ///< re-derived: window_insts/minst_per_s
    double hbMpkiWeighted = 0.0;
    double hbIpcWeighted = 0.0;

    std::uint64_t events = 0;
    std::uint64_t badLines = 0;
    std::uint64_t minT = ~std::uint64_t{0};
    std::uint64_t maxT = 0;

    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        json::Value ev;
        if (!json::parse(line, ev) || !ev.isObject()) {
            ++badLines;
            continue;
        }
        const std::string kind = ev.text("ev");
        if (kind.empty()) {
            ++badLines;
            continue;
        }
        ++events;
        const auto tUs =
            static_cast<std::uint64_t>(ev.num("t_us", 0.0));
        const auto durUs =
            static_cast<std::uint64_t>(ev.num("dur_us", 0.0));
        minT = std::min(minT, tUs);
        maxT = std::max(maxT, tUs + durUs);

        if (kind == "span") {
            const std::string name = ev.text("name");
            SpanStats &s = spans[name];
            ++s.count;
            s.totalUs += durUs;
            s.maxUs = std::max(s.maxUs, durUs);
            if (name == "driver.cell" || name == "driver.shard") {
                const json::Value *attrs = ev.find("attrs");
                if (attrs) {
                    const std::string workload =
                        attrs->text("workload");
                    const std::string scheme = attrs->text("scheme");
                    CellStats &c = cells[{workload, scheme}];
                    c.workload = workload;
                    c.scheme = scheme;
                    c.totalUs += durUs;
                    ++c.spans;
                }
            }
            if (name == "engine.warmUp" || name == "engine.measure") {
                const json::Value *attrs = ev.find("attrs");
                if (attrs && attrs->find("steps")) {
                    ClockStats &c = clocks[name];
                    c.insts += attrs->num("target_insts");
                    c.cycles += attrs->num("cycles");
                    c.steps += attrs->num("steps");
                }
            }
            if (name == "engine.saveCheckpoint" ||
                name == "engine.loadCheckpoint") {
                const json::Value *attrs = ev.find("attrs");
                if (attrs && attrs->find("bytes")) {
                    CheckpointStats &c =
                        name == "engine.saveCheckpoint" ? saves : loads;
                    ++c.images;
                    c.bytes += attrs->num("bytes");
                    c.totalUs += durUs;
                }
            }
        } else if (kind == "count") {
            if (ev.text("name") == "engine.heartbeat") {
                const json::Value *attrs = ev.find("attrs");
                if (attrs) {
                    const double wInsts =
                        attrs->num("window_insts");
                    const double rate =
                        attrs->num("minst_per_s");
                    ++heartbeats;
                    hbInsts += wInsts;
                    if (rate > 0.0)
                        hbWallSecs += wInsts / 1e6 / rate;
                    hbMpkiWeighted +=
                        attrs->num("window_mpki") * wInsts;
                    hbIpcWeighted +=
                        attrs->num("window_ipc") * wInsts;
                }
            }
        } else if (kind == "gauge") {
            gauges[ev.text("name")].add(ev.num("value"));
        }
        // "meta" and unknown kinds only count toward `events`.
    }

    if (events == 0) {
        error = badLines > 0
                    ? "no parseable telemetry event (is this a "
                      "telemetry JSONL file?)"
                    : "empty telemetry file";
        return false;
    }

    const double wallUs =
        maxT >= minT ? static_cast<double>(maxT - minT) : 0.0;
    out << "telemetry: " << events << " events";
    if (badLines > 0)
        out << " (" << badLines << " unparseable lines skipped)";
    out << ", spanning " << TablePrinter::fmt(wallUs / 1e6, 3)
        << "s\n\n";

    if (!spans.empty()) {
        // Order phases by where the time went. Percentages are of
        // the observed wall span; nested spans overlap on purpose
        // (engine.* time is inside driver.* time), so columns do not
        // sum to 100%.
        std::vector<std::pair<std::string, SpanStats>> ordered(
            spans.begin(), spans.end());
        std::sort(ordered.begin(), ordered.end(),
                  [](const auto &a, const auto &b) {
                      return a.second.totalUs > b.second.totalUs;
                  });
        TablePrinter table("Phase time breakdown");
        table.setHeader({"span", "count", "total s", "mean ms",
                         "max ms", "% of wall"});
        for (const auto &[name, s] : ordered) {
            table.addRow(
                {name, std::to_string(s.count),
                 fmtSeconds(static_cast<double>(s.totalUs)),
                 TablePrinter::fmt(
                     static_cast<double>(s.totalUs) / 1e3 /
                         static_cast<double>(s.count),
                     2),
                 TablePrinter::fmt(
                     static_cast<double>(s.maxUs) / 1e3, 2),
                 wallUs > 0.0
                     ? TablePrinter::fmt(
                           100.0 * static_cast<double>(s.totalUs) /
                               wallUs,
                           1)
                     : "-"});
        }
        table.addNote("spans nest (engine phases run inside driver "
                      "cells), so percentages overlap");
        out << table.str() << "\n";
    }

    if (!cells.empty()) {
        std::vector<CellStats> slowest;
        slowest.reserve(cells.size());
        for (const auto &[key, c] : cells)
            slowest.push_back(c);
        std::sort(slowest.begin(), slowest.end(),
                  [](const CellStats &a, const CellStats &b) {
                      return a.totalUs > b.totalUs;
                  });
        if (slowest.size() > options.topCells)
            slowest.resize(options.topCells);
        TablePrinter table(
            "Slowest cells (summed simulation seconds)");
        table.setHeader({"workload", "scheme", "sim s", "spans"});
        for (const CellStats &c : slowest)
            table.addRow({c.workload, c.scheme,
                          fmtSeconds(static_cast<double>(c.totalUs)),
                          std::to_string(c.spans)});
        table.addNote("interval-sharded cells sum their shard spans "
                      "(work, not elapsed span)");
        out << table.str() << "\n";
    }

    if (heartbeats > 0) {
        TablePrinter table("Heartbeats (rolling-window snapshots)");
        table.setHeader({"heartbeats", "insts covered",
                         "aggregate Minst/s", "mean window MPKI",
                         "mean window IPC"});
        table.addRow(
            {std::to_string(heartbeats),
             TablePrinter::fmt(hbInsts / 1e6, 2) + "M",
             hbWallSecs > 0.0
                 ? TablePrinter::fmt(hbInsts / 1e6 / hbWallSecs, 2)
                 : "-",
             hbInsts > 0.0
                 ? TablePrinter::fmt(hbMpkiWeighted / hbInsts, 2)
                 : "-",
             hbInsts > 0.0
                 ? TablePrinter::fmt(hbIpcWeighted / hbInsts, 3)
                 : "-"});
        table.addNote("window means are instruction-weighted; "
                      "aggregate rate sums concurrent engines");
        out << table.str() << "\n";
    }

    if (!clocks.empty()) {
        // Deterministic work counters: the same at any thread count.
        TablePrinter table("Engine clock (cycles simulated vs stepped)");
        table.setHeader({"phase", "insts", "cycles/kinst",
                         "steps/kinst"});
        const auto perKinst = [](double n, double insts) {
            return insts > 0.0 ? TablePrinter::fmt(1000.0 * n / insts, 1)
                               : std::string("-");
        };
        for (const auto &[name, c] : clocks)
            table.addRow({name, TablePrinter::fmt(c.insts / 1e6, 2) + "M",
                          perKinst(c.cycles, c.insts),
                          perKinst(c.steps, c.insts)});
        table.addNote("a step is one simulated cycle; the clock jumps "
                      "over cycles in which no stage can act");
        out << table.str() << "\n";
    }

    if (saves.images + loads.images > 0) {
        TablePrinter table("Checkpoints (engine images)");
        table.setHeader({"op", "images", "MiB/image", "ms/image",
                         "MiB/s"});
        for (const auto &[op, c] : {std::pair{"save", saves},
                                    std::pair{"load", loads}}) {
            if (c.images == 0)
                continue;
            const double n = static_cast<double>(c.images);
            const double mib = c.bytes / (1024.0 * 1024.0);
            const double us = static_cast<double>(c.totalUs);
            table.addRow({op, std::to_string(c.images),
                          TablePrinter::fmt(mib / n, 2),
                          TablePrinter::fmt(us / 1e3 / n, 2),
                          us > 0.0 ? TablePrinter::fmt(mib / us * 1e6, 0)
                                   : "-"});
        }
        table.addNote("a save serializes, checksums and writes one "
                      "file; a load reads, checks and restores it");
        out << table.str() << "\n";
    }

    if (!gauges.empty()) {
        TablePrinter table("Gauges");
        table.setHeader({"gauge", "samples", "min", "mean", "max"});
        for (const auto &[name, g] : gauges)
            table.addRow({name, std::to_string(g.count),
                          TablePrinter::fmt(g.min, 2),
                          TablePrinter::fmt(
                              g.sum / static_cast<double>(g.count),
                              2),
                          TablePrinter::fmt(g.max, 2)});
        out << table.str() << "\n";
    }

    return true;
}

} // namespace acic
