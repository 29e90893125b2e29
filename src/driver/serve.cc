#include "driver/serve.hh"

#include <csignal>

#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "driver/emitters.hh"
#include "driver/thread_pool.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "sim/scheme.hh"
#include "sim/sim_config.hh"
#include "trace/catalog.hh"
#include "trace/io.hh"
#include "trace/streaming.hh"
#include "trace/synthetic.hh"

namespace acic {

namespace {

/** Shutdown token of the active serve run. SIGTERM/SIGINT call its
 *  request() — an async-signal-safe flag store plus a self-pipe
 *  write that unblocks the reader's infinite poll; ring CV waiters
 *  are then woken by the reader relaying the stop (condition
 *  variables cannot be notified from a handler). */
StopSignal *gServeStop = nullptr;

extern "C" void
serveStopHandler(int)
{
    if (gServeStop != nullptr)
        gServeStop->request();
}

void
installServeSignals()
{
    std::signal(SIGTERM, serveStopHandler);
    std::signal(SIGINT, serveStopHandler);
    // A consumer of our stats output going away must not kill the
    // service mid-update; write errors surface through the streams.
    std::signal(SIGPIPE, SIG_IGN);
}

/** Escape for the JSON string fields of the stats lines. */
std::string
jsonStr(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += "\\u0020"; // control chars never appear in names
            continue;
        }
        out += c;
    }
    return out;
}

std::string
fmtFixed(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

/** Per-engine rolling-window bookkeeping: deltas between successive
 *  idempotent finish() snapshots. */
struct WindowTracker
{
    std::uint64_t seq = 0;
    std::uint64_t lastInsts = 0;
    std::uint64_t lastMisses = 0;
    std::uint64_t lastCycles = 0;
    std::chrono::steady_clock::time_point lastWall{};
};

void
emitWindowLine(std::ostream &out, const std::string &workload,
               const std::string &scheme, WindowTracker &track,
               const SimEngine &engine)
{
    const SimResult snap = engine.finish();
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t d_insts = snap.instructions - track.lastInsts;
    const std::uint64_t d_misses = snap.l1iMisses - track.lastMisses;
    const std::uint64_t d_cycles =
        static_cast<std::uint64_t>(snap.cycles) - track.lastCycles;
    const double wall =
        std::chrono::duration<double>(now - track.lastWall).count();
    const double w_mpki =
        d_insts ? 1000.0 * static_cast<double>(d_misses) /
                      static_cast<double>(d_insts)
                : 0.0;
    const double w_ipc =
        d_cycles ? static_cast<double>(d_insts) /
                       static_cast<double>(d_cycles)
                 : 0.0;
    const double rate =
        wall > 0.0
            ? static_cast<double>(d_insts) / 1e6 / wall
            : 0.0;
    out << "{\"ev\":\"serve.window\",\"workload\":\""
        << jsonStr(workload) << "\",\"scheme\":\""
        << jsonStr(scheme) << "\",\"seq\":" << track.seq
        << ",\"retired\":" << engine.retired()
        << ",\"cycle\":" << engine.cycles()
        << ",\"window_insts\":" << d_insts
        << ",\"window_mpki\":" << fmtFixed(w_mpki, 4)
        << ",\"window_ipc\":" << fmtFixed(w_ipc, 4)
        << ",\"minst_per_s\":" << fmtFixed(rate, 2) << "}\n";
    out.flush();
    ++track.seq;
    track.lastInsts = snap.instructions;
    track.lastMisses = snap.l1iMisses;
    track.lastCycles = static_cast<std::uint64_t>(snap.cycles);
    track.lastWall = now;
}

void
emitFinalLine(std::ostream &out, const SimResult &r)
{
    out << "{\"ev\":\"serve.final\",\"workload\":\""
        << jsonStr(r.workload) << "\",\"scheme\":\""
        << jsonStr(r.scheme)
        << "\",\"instructions\":" << r.instructions
        << ",\"cycles\":" << r.cycles
        << ",\"l1i_misses\":" << r.l1iMisses
        << ",\"mpki\":" << fmtFixed(r.mpki(), 4)
        << ",\"ipc\":" << fmtFixed(r.ipc(), 4) << "}\n";
    out.flush();
}

/**
 * Runs one callable per engine per round — serially inline, or one
 * task per engine on a ThreadPool with a barrier — and rethrows the
 * first per-engine exception after the barrier (never mid-round, so
 * the engines are always quiescent when an error propagates).
 */
class EngineCrew
{
  public:
    EngineCrew(std::size_t engines, unsigned threads)
        : errors_(engines)
    {
        unsigned want = threads;
        if (want == 0) {
            const unsigned hw = std::thread::hardware_concurrency();
            want = hw == 0 ? 1 : hw;
        }
        if (want > engines)
            want = static_cast<unsigned>(engines);
        if (want > 1)
            pool_ = std::make_unique<ThreadPool>(want);
    }

    unsigned threads() const
    {
        return pool_ ? pool_->threads() : 1;
    }

    /** Run fn(i) for every engine index; returns past the barrier. */
    template <typename Fn>
    void
    round(Fn &&fn)
    {
        const std::size_t n = errors_.size();
        if (!pool_) {
            for (std::size_t i = 0; i < n; ++i)
                fn(i);
            return;
        }
        for (auto &e : errors_)
            e = nullptr;
        for (std::size_t i = 0; i < n; ++i)
            pool_->submit([this, i, &fn] {
                try {
                    fn(i);
                } catch (...) {
                    errors_[i] = std::current_exception();
                }
            });
        pool_->wait();
        for (auto &e : errors_)
            if (e)
                std::rethrow_exception(e);
    }

  private:
    std::unique_ptr<ThreadPool> pool_;
    std::vector<std::exception_ptr> errors_;
};

} // namespace

LockstepResult
runLockstepRounds(StreamTee &tee,
                  std::vector<std::unique_ptr<SimEngine>> &engines,
                  const SimConfig &config,
                  const LockstepOptions &options,
                  const std::function<void(std::uint64_t)> &onWindow,
                  const std::atomic<bool> *stop,
                  StreamingTraceSource *ring_source)
{
    // Lookahead slack: the walker pulls ahead of retirement by at
    // most the FTQ + decode queue + one decode batch, so pre-buffer
    // that much beyond each round's retire target to keep every
    // engine's supply entirely within the tee buffer — which also
    // makes mid-round tee pulls (and their lock traffic) rare.
    const std::uint64_t slack =
        static_cast<std::uint64_t>(config.ftqEntries) *
            config.fetchWidth +
        config.decodeQueueEntries + InstBatch::kCapacity + 8;
    const std::uint64_t step = options.step == 0 ? 1 : options.step;

    EngineCrew crew(engines.size(), options.threads);
    const bool telemetry = Telemetry::enabled();
    std::vector<double> engine_us(engines.size(), 0.0);

    LockstepResult out;

    // Warmup: bounded by what the stream actually carries — the
    // engine must never be asked to retire records the stream cannot
    // supply (it would spin forever waiting for them).
    std::uint64_t avail = tee.ensureBuffered(options.warmup + slack);
    out.warm = options.warmup < avail ? options.warmup : avail;
    crew.round([&](std::size_t i) { engines[i]->warmUp(out.warm); });

    // Lockstep rounds: extend every engine's planned target by one
    // step, clipped to the records known to exist. Engines drift
    // apart by at most one round, so the tee backlog — and with the
    // bounded ring, total memory — stays O(step + slack) regardless
    // of stream length.
    std::uint64_t target = out.warm;
    std::uint64_t next_window =
        options.window == 0 ? ~std::uint64_t(0)
                            : out.warm + options.window;
    for (;;) {
        if (stop != nullptr &&
            stop->load(std::memory_order_relaxed)) {
            out.stopped = true;
            break;
        }
        const std::uint64_t goal = target + step;
        avail = tee.ensureBuffered(goal + slack);
        const std::uint64_t new_target = goal < avail ? goal : avail;
        if (new_target <= target) {
            if (tee.exhausted())
                break;
            continue;
        }
        const std::uint64_t delta = new_target - target;
        crew.round([&](std::size_t i) {
            if (telemetry) {
                const auto t0 = std::chrono::steady_clock::now();
                engines[i]->measure(delta);
                engine_us[i] =
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
            } else {
                engines[i]->measure(delta);
            }
        });
        target = new_target;
        if (telemetry) {
            if (ring_source != nullptr)
                Telemetry::gauge(
                    "serve.ring_occupancy",
                    static_cast<double>(
                        ring_source->ringOccupancy()));
            Telemetry::gauge(
                "serve.tee_backlog",
                static_cast<double>(tee.bufferedEnd() -
                                    tee.bufferedStart()));
            if (engines.size() > 1) {
                double lo = engine_us[0], hi = engine_us[0];
                for (const double us : engine_us) {
                    lo = us < lo ? us : lo;
                    hi = us > hi ? us : hi;
                }
                Telemetry::gauge("serve.round_lag_us", hi - lo);
            }
            for (std::size_t i = 0;
                 i < options.labels.size() && i < engine_us.size();
                 ++i)
                Telemetry::gauge(
                    ("serve.engine_us." + options.labels[i]).c_str(),
                    engine_us[i]);
        }
        while (target >= next_window) {
            if (onWindow)
                onWindow(next_window);
            next_window += options.window;
        }
        tee.trim();
        if (tee.exhausted() && target >= tee.bufferedEnd())
            break;
    }
    out.target = target;
    return out;
}

int
runServe(const ServeOptions &options)
{
    // Function-local so the pipe fds exist only for serve runs; the
    // handler reaches it through the pointer, and re-entry (tests
    // calling runServe twice in-process) just reuses the token.
    static StopSignal stop_signal;
    gServeStop = &stop_signal;
    stop_signal.flag.store(false, std::memory_order_relaxed);
    installServeSignals();

    const std::vector<SchemeSpec> schemes =
        parseSchemeList(options.schemes);
    const SimConfig config;

    // The stats sink: JSON lines to a file or stdout. Opened before
    // the stream attach (which can block on a FIFO) so a bad path
    // fails fast.
    std::ofstream stats_file;
    std::ostream *stats = &std::cout;
    if (!options.statsOut.empty()) {
        stats_file.open(options.statsOut,
                        std::ios::binary | std::ios::trunc);
        if (!stats_file) {
            const std::string msg =
                "serve: cannot open --stats-out " + options.statsOut;
            ACIC_FATAL(msg.c_str());
        }
        stats = &stats_file;
    }

    // Attach to the live stream (this blocks on a FIFO until the
    // producer connects, and reads the header synchronously) and fan
    // it out to one cursor per scheme.
    const std::string path =
        options.input.rfind("pipe:", 0) == 0
            ? options.input.substr(5)
            : options.input;
    auto source = StreamingTraceSource::openPath(
        path, static_cast<std::size_t>(options.ring), &stop_signal);
    StreamTee tee(*source,
                  static_cast<unsigned>(schemes.size()));

    // One resident engine per scheme, all oracle-less: Belady
    // annotations need the whole future of the trace, which a
    // single-pass stream cannot provide. `acic_run run --no-oracle`
    // is the matching batch configuration.
    std::vector<std::unique_ptr<IcacheOrg>> orgs;
    std::vector<std::unique_ptr<SimEngine>> engines;
    std::vector<WindowTracker> windows(schemes.size());
    orgs.reserve(schemes.size());
    engines.reserve(schemes.size());
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        orgs.push_back(makeScheme(schemes[i], config));
        engines.push_back(std::make_unique<SimEngine>(
            config, tee.cursor(static_cast<unsigned>(i)), *orgs[i],
            nullptr));
    }

    LockstepOptions lockstep;
    lockstep.warmup = options.warmup;
    lockstep.window = options.window == 0 ? 1 : options.window;
    lockstep.step = options.step;
    lockstep.threads = options.threads;
    if (Telemetry::enabled()) {
        lockstep.labels.reserve(schemes.size());
        for (const SchemeSpec &spec : schemes)
            lockstep.labels.push_back(spec.toString());
    }

    const auto measure_start = std::chrono::steady_clock::now();
    for (auto &track : windows)
        track.lastWall = measure_start;
    const auto on_window = [&](std::uint64_t) {
        for (std::size_t i = 0; i < schemes.size(); ++i)
            emitWindowLine(*stats, source->name(),
                           schemes[i].toString(), windows[i],
                           *engines[i]);
    };

    const LockstepResult run = runLockstepRounds(
        tee, engines, config, lockstep, on_window,
        &stop_signal.flag, source.get());

    // A signal that lands while the loop is blocked inside
    // ensureBuffered() surfaces as stream exhaustion (the reader
    // aborts and the ring drains); re-check so the shutdown is
    // attributed to the signal, not mistaken for end-of-data.
    const bool stopped = run.stopped || stop_signal.requested();

    // Final statistics: one serve.final line per scheme, the
    // golden-dump fixture format on request, and a human summary on
    // stderr (stdout may be carrying the stats stream).
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - measure_start)
            .count();
    std::vector<SimResult> results;
    results.reserve(engines.size());
    for (auto &engine : engines)
        results.push_back(engine->finish());
    for (const SimResult &r : results)
        emitFinalLine(*stats, r);
    if (options.dumpStats) {
        // Separator lines match `acic_run run --dump-stats` exactly
        // (canonical spec text, not the org display name), so the
        // two dumps diff byte-for-byte.
        for (std::size_t i = 0; i < results.size(); ++i) {
            std::cout << "# workload=" << results[i].workload
                      << " scheme=" << schemes[i].toString()
                      << '\n';
            writeGoldenDump(std::cout, results[i]);
        }
    }
    if (!options.quiet) {
        std::fprintf(stderr,
                     "serve: %s %s: %llu instructions (%llu warmup) "
                     "in %.2fs%s\n",
                     source->name().c_str(),
                     source->sawEndOfStream() ? "ended cleanly"
                     : stopped               ? "stopped by signal"
                                             : "ended",
                     static_cast<unsigned long long>(
                         source->delivered()),
                     static_cast<unsigned long long>(run.warm), wall,
                     stopped ? " (shutdown requested)" : "");
        for (const SimResult &r : results)
            std::fprintf(stderr,
                         "serve:   %-28s ipc %.3f  mpki %.2f\n",
                         r.scheme.c_str(), r.ipc(), r.mpki());
    }
    return 0;
}

int
runStreamGen(const StreamGenOptions &options)
{
    // The consumer disappearing mid-pipe (serve killed) must surface
    // as a stream-state error, not kill this process by signal.
    std::signal(SIGPIPE, SIG_IGN);
    // stdout may be a pipe into `serve -`; all status goes to
    // stderr.
    std::ofstream out_file;
    std::ostream *out = &std::cout;
    if (!options.out.empty()) {
        out_file.open(options.out,
                      std::ios::binary | std::ios::trunc);
        if (!out_file) {
            const std::string msg =
                "stream: cannot open --out " + options.out;
            ACIC_FATAL(msg.c_str());
        }
        out = &out_file;
    }

    std::unique_ptr<TraceSource> source;
    if (!options.trace.empty()) {
        source = std::make_unique<FileTraceSource>(options.trace);
    } else {
        const WorkloadCatalog catalog = WorkloadCatalog::builtin();
        const WorkloadEntry *entry = catalog.find(options.workload);
        if (!entry) {
            const std::string msg =
                "stream: unknown workload '" + options.workload +
                "'";
            ACIC_FATAL(msg.c_str());
        }
        WorkloadParams params = withEnvOverrides(entry->params);
        if (options.instructions > 0)
            params.instructions = options.instructions;
        source = std::make_unique<SyntheticWorkload>(params);
    }

    StreamTraceWriter writer(*out, source->name(),
                             options.frameRecords);
    std::uint64_t n = 0;
    while (const TraceInst *run =
               source->acquireRun(~std::uint64_t{0}, n)) {
        for (std::uint64_t i = 0; i < n; ++i)
            writer.append(run[i]);
        if (!out->good())
            break; // consumer went away (EPIPE); not an error here
    }
    if (out->good())
        writer.finish();
    if (!out->good() && !options.out.empty()) {
        const std::string msg =
            "stream: error writing " + options.out;
        ACIC_FATAL(msg.c_str());
    }
    std::fprintf(stderr, "stream: %s: %llu instructions framed\n",
                 source->name().c_str(),
                 static_cast<unsigned long long>(writer.written()));
    return 0;
}

} // namespace acic
