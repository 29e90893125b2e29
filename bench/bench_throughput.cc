/**
 * @file
 * bench_throughput — host-side simulator throughput: simulated
 * instructions per host second, per scheme. This is the number the
 * stats hot path and any other per-fetch-bundle work is judged by;
 * sweep wall-clock is (cells x instructions) / this rate. Each
 * scheme is run several times and the best repetition is reported,
 * so the table is a noise-resistant before/after comparison for
 * performance PRs.
 *
 * The file-sourced and streamed lanes are timed *interleaved* — for
 * each scheme every repetition runs one file-backed pass immediately
 * followed by one streamed pass — so the streamed-vs-file ratio is
 * an A/B comparison under the same transient machine conditions,
 * not two tables measured minutes apart. Both lanes gate the
 * perf-trajectory check (ci/check_throughput.py).
 *
 * A serve-scaling lane times the full multi-scheme `acic_run serve`
 * round loop (resident engines, lockstep rounds) serial vs parallel
 * to show how N resident schemes scale with cores; its labels start
 * with "serve" and stay informational in the perf gate because the
 * speedup is a property of the runner's core count.
 *
 * With an interval count the bench also measures interval-parallel
 * throughput (a one-cell ExperimentDriver spec with intervals = K:
 * K concurrently simulated regions of the same trace, merged) and
 * reports the intra-workload scaling each scheme achieves over its
 * own serial pass.
 *
 * Results are also written to BENCH_throughput.json (driver emitter
 * format) so the performance trajectory is tracked across PRs.
 *
 * Usage: bench_throughput [scheme-list] [repetitions] [intervals]
 *   scheme-list   registry specs, default
 *                 "lru,srrip,acic,acic_instant,opt_bypass"
 *   repetitions   timed runs per scheme, default 3 (best is kept)
 *   intervals     interval-mode shard count, default 0 (off)
 * ACIC_TRACE_LEN overrides the 2M-instruction default trace length.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench_util.hh"
#include "common/telemetry.hh"
#include "driver/emitters.hh"
#include "driver/experiment.hh"
#include "driver/serve.hh"
#include "sim/engine.hh"
#include "sim/scheme.hh"
#include "trace/streaming.hh"
#include "trace/synthetic.hh"

using namespace acic;
using namespace acic::bench;

namespace {

/** Wall seconds of one call of @p fn. */
template <typename Fn>
double
timedSeconds(Fn &&fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Best-of-@p reps wall seconds of @p fn. */
template <typename Fn>
double
bestSeconds(int reps, Fn &&fn)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const double secs = timedSeconds(fn);
        if (best == 0.0 || secs < best)
            best = secs;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *list =
        argc > 1 ? argv[1] : "lru,srrip,acic,acic_instant,opt_bypass";
    const int reps = argc > 2 ? std::atoi(argv[2]) : 3;
    if (reps <= 0) {
        std::fprintf(stderr, "repetitions must be positive\n");
        return 2;
    }
    const int intervals = argc > 3 ? std::atoi(argv[3]) : 0;
    if (intervals < 0) {
        std::fprintf(stderr, "intervals must be non-negative\n");
        return 2;
    }
    const std::vector<SchemeSpec> schemes = parseSchemeList(list);

    // ACIC_BENCH_TELEMETRY=out.jsonl opens the telemetry sink so the
    // timed runs emit phase spans and heartbeats — the bench then
    // measures the *enabled*-mode overhead instead of the default
    // disabled path (one predictable branch, no measurable cost).
    if (const char *tel = std::getenv("ACIC_BENCH_TELEMETRY")) {
        if (!Telemetry::open(tel)) {
            std::fprintf(stderr, "failed opening %s\n", tel);
            return 1;
        }
        std::printf("telemetry enabled -> %s\n", tel);
    }

    // One representative datacenter workload, encoded the way the
    // experiment driver replays it: the trace image and oracle
    // are built once, outside the timed region, so the measurement
    // isolates the simulation loop itself (not synthetic generation).
    WorkloadParams params = Workloads::datacenter().front();
    params.instructions = benchTraceLength();
    params = withEnvOverrides(params);
    const SharedWorkload workload(params);
    const double minst =
        static_cast<double>(params.instructions) / 1e6;

    // The same workload framed once to a file (outside every timed
    // region) for the streamed lanes, consumed the way `acic_run
    // serve` consumes live traffic — decode thread, bounded ring,
    // zero-copy tee fan-out, no oracle.
    const std::string framed = "bench_stream.acis";
    {
        SyntheticWorkload synth(params);
        std::ofstream out(framed,
                          std::ios::binary | std::ios::trunc);
        StreamTraceWriter writer(out, params.name);
        TraceInst inst;
        while (synth.next(inst))
            writer.append(inst);
        writer.finish();
    }
    const SimConfig config;
    const std::uint64_t warm = static_cast<std::uint64_t>(
        static_cast<double>(params.instructions) *
        config.warmupFraction);
    const auto streamed_pass = [&](const SchemeSpec &scheme) {
        auto source = StreamingTraceSource::openPath(framed);
        StreamTee tee(*source, 1);
        auto org = makeScheme(scheme, config);
        SimEngine engine(config, tee.cursor(0), *org);
        engine.warmUp(warm);
        // Step-and-trim like the serve loop: the tee backlog (and
        // the cache footprint) stays bounded by one step, instead
        // of silently buffering the whole decoded stream.
        std::uint64_t target = warm;
        while (target < params.instructions) {
            const std::uint64_t step = std::min<std::uint64_t>(
                65'536, params.instructions - target);
            engine.measure(step);
            target += step;
            tee.trim();
        }
        (void)engine.finish();
    };

    std::vector<BenchRow> rows;

    TablePrinter table("Simulator throughput (" + params.name + ", " +
                       std::to_string(params.instructions) +
                       " instructions, best of " +
                       std::to_string(reps) + ")");
    table.setHeader({"scheme", "seconds", "Minst/s"});
    TablePrinter stable("Streamed-source throughput (framed "
                        "stream, ring " +
                        std::to_string(StreamingTraceSource::
                                           kDefaultRingRecords) +
                        ", A/B-interleaved with the file lane, "
                        "best of " +
                        std::to_string(reps) + ")");
    stable.setHeader(
        {"scheme", "seconds", "Minst/s", "vs file-sourced"});

    std::vector<double> serial_secs(schemes.size(), 0.0);
    std::vector<BenchRow> streamed_rows;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        const SchemeSpec &scheme = schemes[s];
        // Interleave the two lanes repetition by repetition: any
        // machine-speed transient hits both sides equally, so the
        // streamed/file ratio is trustworthy.
        double file_best = 0.0, stream_best = 0.0;
        for (int r = 0; r < reps; ++r) {
            const double fs =
                timedSeconds([&] { (void)workload.run(scheme); });
            if (file_best == 0.0 || fs < file_best)
                file_best = fs;
            const double ss =
                timedSeconds([&] { streamed_pass(scheme); });
            if (stream_best == 0.0 || ss < stream_best)
                stream_best = ss;
        }
        serial_secs[s] = file_best;
        if (file_best <= 0.0) {
            table.addRow({schemeName(scheme), "-", "-"});
        } else {
            table.addRow({schemeName(scheme),
                          TablePrinter::fmt(file_best, 3),
                          TablePrinter::fmt(minst / file_best, 2)});
            rows.push_back(
                {schemeName(scheme), file_best, minst / file_best});
        }
        if (stream_best <= 0.0) {
            stable.addRow({schemeName(scheme), "-", "-", "-"});
        } else {
            const std::string ratio =
                file_best > 0.0
                    ? TablePrinter::fmt(file_best / stream_best, 2) +
                          "x"
                    : "-";
            stable.addRow({schemeName(scheme),
                           TablePrinter::fmt(stream_best, 3),
                           TablePrinter::fmt(minst / stream_best, 2),
                           ratio});
            streamed_rows.push_back({schemeName(scheme) + "@streamed",
                                     stream_best,
                                     minst / stream_best});
        }
    }
    table.addNote("rate = trace instructions / host seconds of "
                  "SharedWorkload::run (org built inside the timer)");
    table.print();
    stable.addNote("decode thread + chunk ring + zero-copy tee, "
                   "oracle disabled; the file-sourced lane replays "
                   "a pre-materialized image");
    stable.print();
    for (BenchRow &row : streamed_rows)
        rows.push_back(std::move(row));

    unsigned serve_threads = 0;
    if (schemes.size() > 1) {
        // Serve scaling lane: all schemes resident over one stream,
        // stepped in lockstep rounds — exactly the `acic_run serve`
        // hot loop — serial vs one-engine-per-task parallel rounds.
        const auto serve_pass = [&](unsigned threads) {
            auto source = StreamingTraceSource::openPath(framed);
            StreamTee tee(*source,
                          static_cast<unsigned>(schemes.size()));
            std::vector<std::unique_ptr<IcacheOrg>> orgs;
            std::vector<std::unique_ptr<SimEngine>> engines;
            orgs.reserve(schemes.size());
            engines.reserve(schemes.size());
            for (std::size_t i = 0; i < schemes.size(); ++i) {
                orgs.push_back(makeScheme(schemes[i], config));
                engines.push_back(std::make_unique<SimEngine>(
                    config, tee.cursor(static_cast<unsigned>(i)),
                    *orgs[i], nullptr));
            }
            LockstepOptions lockstep;
            lockstep.warmup = warm;
            lockstep.threads = threads;
            (void)runLockstepRounds(tee, engines, config, lockstep,
                                    nullptr, nullptr, nullptr);
            for (auto &engine : engines)
                (void)engine->finish();
        };
        const unsigned hw = std::thread::hardware_concurrency();
        serve_threads = static_cast<unsigned>(
            std::min<std::size_t>(schemes.size(), hw == 0 ? 1 : hw));
        const std::string tag =
            "serve" + std::to_string(schemes.size());
        // Interleaved A/B again: serial round, then parallel round.
        double serial_best = 0.0, parallel_best = 0.0;
        for (int r = 0; r < reps; ++r) {
            const double ss = timedSeconds([&] { serve_pass(1); });
            if (serial_best == 0.0 || ss < serial_best)
                serial_best = ss;
            const double ps = timedSeconds([&] { serve_pass(0); });
            if (parallel_best == 0.0 || ps < parallel_best)
                parallel_best = ps;
        }
        const double agg =
            minst * static_cast<double>(schemes.size());
        TablePrinter vtable(
            "Multi-scheme serve scaling (" +
            std::to_string(schemes.size()) +
            " resident engines, lockstep rounds, best of " +
            std::to_string(reps) + ")");
        vtable.setHeader(
            {"rounds", "threads", "seconds", "Minst/s", "speedup"});
        if (serial_best > 0.0) {
            vtable.addRow({"serial", "1",
                           TablePrinter::fmt(serial_best, 3),
                           TablePrinter::fmt(agg / serial_best, 2),
                           "1.00x"});
            rows.push_back({tag + "-serial", serial_best,
                            agg / serial_best});
        }
        if (parallel_best > 0.0) {
            vtable.addRow(
                {"parallel", std::to_string(serve_threads),
                 TablePrinter::fmt(parallel_best, 3),
                 TablePrinter::fmt(agg / parallel_best, 2),
                 serial_best > 0.0
                     ? TablePrinter::fmt(
                           serial_best / parallel_best, 2) +
                           "x"
                     : "-"});
            rows.push_back({tag + "-parallel", parallel_best,
                            agg / parallel_best});
        }
        vtable.addNote("aggregate rate = engines x instructions / "
                       "wall; speedup is bounded by the runner's "
                       "core count");
        vtable.print();
    }
    std::remove(framed.c_str());

    if (intervals > 1) {
        // Interval mode: the same cell sharded into K concurrently
        // simulated regions (default driver warmup). The shards do
        // extra warmup work, so perfect scaling is K_effective =
        // measured / (measured/K + warmup) — report raw speedup and
        // let the table speak.
        TablePrinter itable(
            "Interval-parallel throughput (--intervals " +
            std::to_string(intervals) + ", best of " +
            std::to_string(reps) + ")");
        itable.setHeader(
            {"scheme", "seconds", "Minst/s", "speedup vs serial"});
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const SchemeSpec &scheme = schemes[s];
            ExperimentSpec spec;
            spec.workloads = {params};
            spec.schemes = {scheme};
            spec.intervals = static_cast<unsigned>(intervals);
            const double secs = bestSeconds(reps, [&] {
                (void)ExperimentDriver(spec).run();
            });
            if (secs <= 0.0 || serial_secs[s] <= 0.0) {
                itable.addRow({schemeName(scheme), "-", "-", "-"});
                continue;
            }
            itable.addRow(
                {schemeName(scheme), TablePrinter::fmt(secs, 3),
                 TablePrinter::fmt(minst / secs, 2),
                 TablePrinter::fmt(serial_secs[s] / secs, 2) + "x"});
            rows.push_back({schemeName(scheme) + "@intervals=" +
                                std::to_string(intervals),
                            secs, minst / secs});
        }
        itable.addNote("merged shard results; functional warming + " +
                       std::to_string(kDefaultIntervalWarmup) +
                       "-instruction timed warmup per shard; the "
                       "time includes the driver's trace "
                       "encoding");
        itable.print();
    }

    std::ofstream json("BENCH_throughput.json");
    writeBenchJson(
        json, "throughput",
        {{"workload", params.name},
         {"instructions", std::to_string(params.instructions)},
         {"repetitions", std::to_string(reps)},
         {"intervals", std::to_string(intervals)},
         {"serve_threads", std::to_string(serve_threads)}},
        rows);
    if (json)
        std::printf("wrote BENCH_throughput.json\n");
    else
        std::fprintf(stderr, "failed writing BENCH_throughput.json\n");
    Telemetry::close(); // no-op unless ACIC_BENCH_TELEMETRY opened it
    return 0;
}
