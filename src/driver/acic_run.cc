/**
 * @file
 * acic_run — experiment-driver CLI.
 *
 *   acic_run list    [--trace-dir D]
 *   acic_run record  --workloads W [--out-dir D] [--instructions N]
 *   acic_run run     --workloads W --schemes S [--threads N]
 *                    [--instructions N] [--intervals K] [--warmup W]
 *                    [--warm-horizon H] [--trace-dir D]
 *                    [--baseline SCHEME] [--csv FILE] [--json FILE]
 *                    [--dump-stats] [--quiet] [--progress]
 *                    [--telemetry FILE] [--heartbeat N]
 *                    [--shard I/N] [--checkpoint-dir D]
 *                    [--checkpoint-every N]
 *   acic_run sweep   --grid G --workloads W [same options as run]
 *   acic_run serve   <input> --schemes S [--warmup N] [--window N]
 *                    [--step N] [--ring N] [--stats-out FILE]
 *                    [--dump-stats] [--quiet] [--telemetry FILE]
 *                    [--heartbeat N]
 *   acic_run stream  --workloads W [--instructions N] |
 *                    --trace FILE  [--out PATH] [--frame-records N]
 *   acic_run merge   <shard.json>... [--csv FILE] [--json FILE]
 *   acic_run import  <input> <output> [--format F] [--name N]
 *   acic_run stat    <trace>
 *   acic_run report  <telemetry.jsonl>... [--top N]
 *   acic_run help    [command]
 *
 * Workload lists are resolved against the WorkloadCatalog: synthetic
 * presets plus, when --trace-dir is given, the `.acictrace` files
 * under that directory. Scheme lists are registry spec strings
 * (DESIGN.md section 6): preset names — Table IV display names with
 * "-"/"_" standing in for spaces, case-insensitive — optionally
 * parameterized, e.g. "acic(filter=32,update=instant)", or "all".
 * `sweep` additionally expands {a,b,c} value sets into a cartesian
 * grid. Every subcommand answers --help; exit codes are 0 (success),
 * 1 (runtime error), 2 (usage error).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "common/telemetry.hh"
#include "driver/emitters.hh"
#include "driver/experiment.hh"
#include "driver/merge.hh"
#include "driver/report.hh"
#include "driver/serve.hh"
#include "trace/catalog.hh"
#include "trace/import/importer.hh"
#include "trace/io.hh"
#include "trace/stats.hh"
#include "trace/synthetic.hh"

using namespace acic;

namespace {

/** Exit status of a malformed command line. */
constexpr int kUsageError = 2;

const char *const kMainHelp =
    "usage: acic_run <command> [options]\n"
    "\n"
    "commands:\n"
    "  list      show the workload catalog and scheme registry\n"
    "  record    capture synthetic workloads to .acictrace files\n"
    "  run       execute a workloads x schemes experiment matrix\n"
    "  sweep     expand a {a,b,c} parameter grid and run the matrix\n"
    "  serve     simulate a live framed instruction stream (stdin /\n"
    "            FIFO) with resident per-scheme engines and rolling\n"
    "            window stats\n"
    "  stream    frame a workload or .acictrace file as a live\n"
    "            stream (the producer side of serve)\n"
    "  merge     reassemble one sweep from per-shard JSON outputs\n"
    "  import    convert an external instruction trace to "
    ".acictrace\n"
    "  stat      print trace-intrinsic statistics of a .acictrace "
    "file\n"
    "  report    summarize a --telemetry JSONL file (phase times,\n"
    "            slowest cells, heartbeats)\n"
    "  help      show help for a command\n"
    "\n"
    "Run 'acic_run help <command>' or 'acic_run <command> --help'\n"
    "for details. Exit codes: 0 success, 1 runtime error, 2 usage\n"
    "error.\n";

const char *const kListHelp =
    "usage: acic_run list [--trace-dir D]\n"
    "\n"
    "Show every catalog workload and every registered scheme with\n"
    "its accepted parameters (key=default [range] description).\n"
    "Workloads name their suite (datacenter/spec/imported) and\n"
    "source (synthetic generator or on-disk trace file).\n"
    "\n"
    "options:\n"
    "  --trace-dir D   overlay the .acictrace files under D onto\n"
    "                  the synthetic presets (same-named files\n"
    "                  replace a preset; new names join the\n"
    "                  'imported' suite)\n"
    "\n"
    "exit codes: 0 success, 1 runtime error, 2 usage error\n";

const char *const kRecordHelp =
    "usage: acic_run record --workloads W [--out-dir D]\n"
    "                       [--instructions N]\n"
    "\n"
    "Generate synthetic workloads and capture them to\n"
    "<out-dir>/<name>.acictrace (DESIGN.md section 2 format).\n"
    "\n"
    "options:\n"
    "  --workloads W      comma-separated preset names, or one of\n"
    "                     all | all-datacenter | all-spec\n"
    "  --out-dir D        output directory (default '.')\n"
    "  --instructions N   per-workload trace-length override\n"
    "\n"
    "Trace-length precedence: --instructions beats the\n"
    "ACIC_TRACE_LEN environment variable, which beats the preset\n"
    "length.\n"
    "\n"
    "exit codes: 0 success, 1 runtime error, 2 usage error\n";

const char *const kRunHelp =
    "usage: acic_run run --workloads W --schemes S [--threads N]\n"
    "                    [--instructions N] [--intervals K]\n"
    "                    [--warmup W] [--warm-horizon H]\n"
    "                    [--trace-dir D] [--baseline SCHEME]\n"
    "                    [--csv FILE] [--json FILE] [--quiet]\n"
    "                    [--progress] [--telemetry FILE]\n"
    "                    [--heartbeat N] [--shard I/N]\n"
    "                    [--checkpoint-dir D]\n"
    "                    [--checkpoint-every N]\n"
    "\n"
    "Execute the workloads x schemes matrix on a thread pool and\n"
    "print paper-shaped IPC/MPKI/speedup tables.\n"
    "\n"
    "options:\n"
    "  --workloads W      comma-separated catalog names, or one of\n"
    "                     all | all-datacenter | all-spec |\n"
    "                     all-imported\n"
    "  --schemes S        comma-separated registry specs — preset\n"
    "                     names or parameterized forms like\n"
    "                     acic(filter=32,update=instant) — or all\n"
    "  --threads N        worker threads (default: hardware\n"
    "                     concurrency)\n"
    "  --instructions N   trace-length override for synthetic\n"
    "                     workloads (trace files always replay in\n"
    "                     full)\n"
    "  --intervals K      shard each cell's trace into K regions\n"
    "                     simulated concurrently (sampled interval\n"
    "                     simulation; merged MPKI/IPC recompute\n"
    "                     from the summed shards). Default 1: one\n"
    "                     monolithic pass, bit-identical to the\n"
    "                     serial path\n"
    "  --warmup W         timed-warmup instructions before each\n"
    "                     measured interval (default 100000; only\n"
    "                     used with --intervals > 1)\n"
    "  --warm-horizon H   bound the per-shard functional warming to\n"
    "                     the last H instructions before the timed\n"
    "                     warmup (default 0 = warm from the trace\n"
    "                     start, most accurate; bound it on very\n"
    "                     long traces to keep shard cost flat)\n"
    "  --trace-dir D      overlay the .acictrace files under D onto\n"
    "                     the catalog before resolving --workloads\n"
    "  --baseline SCHEME  speedup denominator (default: first\n"
    "                     scheme; must be in --schemes)\n"
    "  --csv FILE         write per-cell results as CSV\n"
    "  --json FILE        write per-cell results (including every\n"
    "                     org-stats counter) as JSON\n"
    "  --dump-stats       after the tables, print every cell's\n"
    "                     complete statistics dump (headline\n"
    "                     counters + sorted org counters) — the\n"
    "                     golden-corpus fixture format; cells are\n"
    "                     separated by '# workload=... scheme=...'\n"
    "                     comment lines (strip with grep -v '^#')\n"
    "  --no-oracle        skip building the Belady next-use oracle.\n"
    "                     OPT-style schemes then see 'never reused'\n"
    "                     for every block, and the advisory accuracy\n"
    "                     counters (match_opt, acic.*) are computed\n"
    "                     from sentinel next-use values and are not\n"
    "                     meaningful — the same statistics a\n"
    "                     single-pass live stream ('acic_run serve')\n"
    "                     computes, so serve output diffs\n"
    "                     byte-identically against this mode\n"
    "  --quiet            suppress per-cell progress on stderr\n"
    "  --progress         one live progress line on stderr (cells\n"
    "                     done/total, percent, aggregate Minst/s,\n"
    "                     ETA) instead of per-cell lines\n"
    "  --telemetry FILE   append-free JSONL telemetry event stream\n"
    "                     (phase spans, engine heartbeats, pool\n"
    "                     gauges; DESIGN.md section 9). Off by\n"
    "                     default with zero overhead; summarize the\n"
    "                     file with 'acic_run report'\n"
    "  --heartbeat N      instructions between engine heartbeat\n"
    "                     snapshots (default 1000000; only\n"
    "                     meaningful with --telemetry)\n"
    "  --shard I/N        run only this process's cells of the\n"
    "                     matrix (cell k belongs to shard k mod N;\n"
    "                     0 <= I < N). All N shards must name the\n"
    "                     identical matrix. Tables and --dump-stats\n"
    "                     are suppressed; write --json per shard and\n"
    "                     reassemble with 'acic_run merge'\n"
    "  --checkpoint-dir D persist completed cells (and periodic\n"
    "                     in-flight engine snapshots) under D; a\n"
    "                     restart with the same spec skips finished\n"
    "                     cells and resumes interrupted ones from\n"
    "                     the last snapshot, bit-identically.\n"
    "                     Shards may share one directory\n"
    "  --checkpoint-every N\n"
    "                     instructions between in-flight engine\n"
    "                     snapshots of a monolithic cell (default\n"
    "                     5000000; 0 keeps only completed-cell\n"
    "                     checkpoints; ignored with --intervals>1)\n"
    "\n"
    "Trace-length precedence: --instructions beats the\n"
    "ACIC_TRACE_LEN environment variable, which beats the preset\n"
    "length; both are ignored by trace-file workloads.\n"
    "\n"
    "exit codes: 0 success, 1 runtime error, 2 usage error\n";

const char *const kSweepHelp =
    "usage: acic_run sweep --grid G --workloads W [--threads N]\n"
    "                      [--instructions N] [--intervals K]\n"
    "                      [--warmup W] [--warm-horizon H]\n"
    "                      [--trace-dir D] [--baseline SPEC]\n"
    "                      [--csv FILE] [--json FILE] [--quiet]\n"
    "                      [--progress] [--telemetry FILE]\n"
    "                      [--heartbeat N] [--shard I/N]\n"
    "                      [--checkpoint-dir D]\n"
    "                      [--checkpoint-every N]\n"
    "\n"
    "Expand a parameter grid into concrete schemes and run the\n"
    "workloads x schemes matrix on the thread pool (identical\n"
    "execution and output to 'acic_run run'; only the scheme list\n"
    "construction differs).\n"
    "\n"
    "The grid is a comma-separated list of registry specs whose\n"
    "parameter values may be {a,b,c} sets; every set is expanded\n"
    "cartesianly, leftmost set varying slowest. Example:\n"
    "\n"
    "  --grid 'acic(filter={8,16,32},cshr={64,256}),lru(ways={8,9})'\n"
    "\n"
    "yields 3x2 ACIC variants plus 2 LRU variants = 8 schemes.\n"
    "Quote the grid: braces and parens are shell metacharacters.\n"
    "\n"
    "options:\n"
    "  --grid G           the sweep grid (see above)\n"
    "  --workloads W      comma-separated catalog names, or one of\n"
    "                     all | all-datacenter | all-spec |\n"
    "                     all-imported\n"
    "  --threads N        worker threads (default: hardware\n"
    "                     concurrency)\n"
    "  --instructions N   trace-length override for synthetic\n"
    "                     workloads\n"
    "  --intervals K      shard each cell into K concurrently\n"
    "                     simulated regions (see 'acic_run help\n"
    "                     run'; default 1)\n"
    "  --warmup W         timed-warmup instructions per interval\n"
    "                     (default 100000)\n"
    "  --warm-horizon H   bound per-shard functional warming to the\n"
    "                     last H instructions (default 0 = from the\n"
    "                     trace start; see 'acic_run help run')\n"
    "  --trace-dir D      overlay the .acictrace files under D onto\n"
    "                     the catalog before resolving --workloads\n"
    "  --baseline SPEC    speedup denominator (default: first\n"
    "                     expanded scheme; must be in the grid)\n"
    "  --csv FILE         write per-cell results as CSV\n"
    "  --json FILE        write per-cell results as JSON\n"
    "  --dump-stats       print every cell's complete statistics\n"
    "                     dump (see 'acic_run help run')\n"
    "  --no-oracle        skip the Belady oracle (see 'acic_run\n"
    "                     help run')\n"
    "  --quiet            suppress per-cell progress on stderr\n"
    "  --progress         one live progress line on stderr instead\n"
    "                     of per-cell lines (see 'acic_run help "
    "run')\n"
    "  --telemetry FILE   write a JSONL telemetry event stream (see\n"
    "                     'acic_run help run')\n"
    "  --heartbeat N      instructions between engine heartbeat\n"
    "                     snapshots (default 1000000)\n"
    "  --shard I/N        run only this process's cells; merge the\n"
    "                     per-shard --json outputs with 'acic_run\n"
    "                     merge' (see 'acic_run help run')\n"
    "  --checkpoint-dir D persist completed cells and in-flight\n"
    "                     engine snapshots for crash-safe restarts\n"
    "                     (see 'acic_run help run')\n"
    "  --checkpoint-every N\n"
    "                     instructions between in-flight snapshots\n"
    "                     (default 5000000; 0 disables)\n"
    "\n"
    "exit codes: 0 success, 1 runtime error, 2 usage error\n";

const char *const kServeHelp =
    "usage: acic_run serve <input> --schemes S [--warmup N]\n"
    "                      [--window N] [--step N] [--ring N]\n"
    "                      [--threads N] [--stats-out FILE]\n"
    "                      [--dump-stats] [--quiet]\n"
    "                      [--telemetry FILE] [--heartbeat N]\n"
    "\n"
    "Simulate a live framed instruction stream (the 'acic_run\n"
    "stream' format, DESIGN.md section 12) with one resident engine\n"
    "per scheme. The stream is single-pass: a bounded ingest ring\n"
    "plus a lockstep fan-out buffer keep peak memory independent of\n"
    "stream length (the producer blocks in write(2) when the\n"
    "service falls behind — pipe backpressure is the flow control).\n"
    "Rolling-window statistics are emitted as JSON lines while the\n"
    "stream runs; on end-of-stream the final per-scheme statistics\n"
    "match 'acic_run run --no-oracle' over the equivalent\n"
    "materialized trace byte-for-byte (a single-pass stream cannot\n"
    "build the Belady oracle).\n"
    "\n"
    "  <input>   '-' for stdin, 'pipe:PATH' or PATH for a FIFO or\n"
    "            file carrying the framed stream\n"
    "\n"
    "examples:\n"
    "  acic_run stream --workloads web_search |\n"
    "      acic_run serve - --schemes acic,lru\n"
    "  mkfifo /tmp/insts && acic_run serve pipe:/tmp/insts \\\n"
    "      --schemes acic &\n"
    "  acic_run stream --workloads web_search --out /tmp/insts\n"
    "\n"
    "options:\n"
    "  --schemes S       comma-separated registry specs (required)\n"
    "  --warmup N        warmup instructions before measurement\n"
    "                    (default 0; a live stream has no known\n"
    "                    length to take a fraction of)\n"
    "  --window N        rolling-window width in instructions\n"
    "                    (default 1000000); each window emits one\n"
    "                    serve.window JSON line per scheme\n"
    "  --step N          lockstep round granularity in instructions\n"
    "                    (default 65536); bounds how far engines\n"
    "                    drift apart and thus the fan-out backlog\n"
    "  --ring N          ingest ring capacity in records (default\n"
    "                    65536); bounds decoded-but-unconsumed\n"
    "                    buffering and thus peak memory\n"
    "  --threads N       engine-round worker threads (default 0 =\n"
    "                    one per scheme up to the hardware\n"
    "                    concurrency; 1 = serial rounds). Output is\n"
    "                    identical for every value — threads trade\n"
    "                    wall time only\n"
    "  --stats-out FILE  write the JSON stats lines to FILE instead\n"
    "                    of stdout\n"
    "  --dump-stats      after the final stats, print the\n"
    "                    golden-corpus statistics dump per scheme\n"
    "                    ('# workload=... scheme=...' separators),\n"
    "                    exactly as 'acic_run run --dump-stats'\n"
    "  --quiet           suppress the human summary on stderr\n"
    "  --telemetry FILE  JSONL telemetry event stream (engine\n"
    "                    heartbeats; see 'acic_run help run')\n"
    "  --heartbeat N     instructions between heartbeats (default\n"
    "                    1000000; only with --telemetry)\n"
    "\n"
    "Shutdown: a clean end-of-stream frame, SIGTERM, or SIGINT end\n"
    "the service with exit 0 (final stats are still emitted); a\n"
    "malformed or truncated stream — e.g. the producer died\n"
    "mid-frame — exits 1 with the byte offset of the damage.\n"
    "\n"
    "exit codes: 0 clean end-of-stream or signal shutdown, 1\n"
    "runtime/stream error, 2 usage error\n";

const char *const kStreamHelp =
    "usage: acic_run stream --workloads W [--instructions N]\n"
    "                       [--out PATH] [--frame-records N]\n"
    "       acic_run stream --trace FILE [--out PATH]\n"
    "                       [--frame-records N]\n"
    "\n"
    "Produce a framed live instruction stream (DESIGN.md section\n"
    "12) on stdout — the producer side of 'acic_run serve'. Unlike\n"
    "the on-disk .acictrace container (whose header count is\n"
    "patched on close and therefore needs a seekable file), the\n"
    "framed stream works through pipes and FIFOs: each frame\n"
    "carries its own length and decoder seed, and the total record\n"
    "count rides in the trailing end-of-stream frame.\n"
    "\n"
    "options:\n"
    "  --workloads W      synthetic catalog workload to generate\n"
    "                     (exactly one name)\n"
    "  --instructions N   trace-length override for the synthetic\n"
    "                     workload\n"
    "  --trace FILE       frame an existing .acictrace file instead\n"
    "                     of generating\n"
    "  --out PATH         write to PATH (e.g. a FIFO) instead of\n"
    "                     stdout\n"
    "  --frame-records N  records per frame (default 4096)\n"
    "\n"
    "exit codes: 0 success, 1 runtime error, 2 usage error\n";

const char *const kMergeHelp =
    "usage: acic_run merge <shard.json>... [--csv FILE] "
    "[--json FILE]\n"
    "\n"
    "Reassemble a sweep from per-shard JSON results written by\n"
    "'acic_run run/sweep --shard i/N --json'. Every shard must\n"
    "describe the identical workloads x schemes matrix; duplicate\n"
    "cells, cells outside the matrix, and missing cells are errors\n"
    "— a partial or double-counted sweep is never emitted. The\n"
    "merged CSV/JSON is byte-identical to what a monolithic\n"
    "(unsharded) run of the same matrix writes.\n"
    "\n"
    "options:\n"
    "  --csv FILE    write the reassembled matrix as CSV\n"
    "  --json FILE   write the reassembled matrix as JSON\n"
    "\n"
    "With neither flag, the merged CSV is written to stdout.\n"
    "\n"
    "exit codes: 0 success, 1 runtime error (unreadable, malformed,\n"
    "mismatched, duplicate, or incomplete shard outputs), 2 usage\n"
    "error\n";

const char *const kImportHelp =
    "usage: acic_run import <input> <output> [--format F] "
    "[--name N]\n"
    "\n"
    "Convert an external instruction trace into the .acictrace v1\n"
    "container (DESIGN.md section 5). Gzip-compressed input is\n"
    "detected by magic and inflated transparently. The converted\n"
    "file replays through 'acic_run run --trace-dir' exactly like a\n"
    "recorded synthetic trace.\n"
    "\n"
    "options:\n"
    "  --format F   auto | acictrace | champsim | qemu\n"
    "               (default auto: probe the input head)\n"
    "  --name N     workload name stored in the output header\n"
    "               (default: the input's own stored name if any,\n"
    "               else the output file name)\n"
    "\n"
    "formats:\n"
    "  champsim    64-byte binary records (ip, is_branch,\n"
    "              branch_taken, register lists)\n"
    "  qemu        text logs: execlog-plugin lines\n"
    "              (cpu, 0xPC, 0xOP, \"disasm\") or -d exec lines\n"
    "              (Trace N: ... [.../PC/...])\n"
    "  acictrace   native re-encode (decompress / re-frame)\n"
    "\n"
    "exit codes: 0 success, 1 runtime or malformed-input error,\n"
    "2 usage error\n";

const char *const kStatHelp =
    "usage: acic_run stat <trace>\n"
    "\n"
    "Print trace-intrinsic statistics of a .acictrace file:\n"
    "instruction count, branch mix and density, code footprint, and\n"
    "the block-reuse-distance histogram over the paper's buckets\n"
    "{0, [1,16], (16,512], (512,1024], (1024,10000], >10000}.\n"
    "These are the statistics the synthetic generator is calibrated\n"
    "to (DESIGN.md section 1.1), so imported traces can be\n"
    "sanity-checked against the presets; the output contains no\n"
    "file paths, so two identical streams print identically.\n"
    "\n"
    "exit codes: 0 success, 1 runtime error, 2 usage error\n";

const char *const kReportHelp =
    "usage: acic_run report <telemetry.jsonl>... [--top N]\n"
    "\n"
    "Summarize one or more telemetry files written by 'run'/'sweep'\n"
    "--telemetry. Multiple files — e.g. one per shard of a\n"
    "distributed sweep — are concatenated into one event stream and\n"
    "summarized together.\n"
    "\n"
    "Reports per-phase time breakdowns (span totals, means,\n"
    "maxima, share of wall), the slowest (workload, scheme) cells\n"
    "by summed simulation seconds, heartbeat rolling-window\n"
    "aggregates (instruction-weighted window MPKI/IPC, aggregate\n"
    "Minst/s), the engine clock, engine checkpoint saves and loads\n"
    "(MiB and ms per image, MiB/s), and pool-gauge ranges. Lines\n"
    "that do not parse — e.g. the truncated tail of a killed run —\n"
    "are skipped and counted, not fatal.\n"
    "\n"
    "options:\n"
    "  --top N   rows of the slowest-cells table (default 10)\n"
    "\n"
    "exit codes: 0 success, 1 runtime error (unreadable file or no\n"
    "telemetry events), 2 usage error\n";

int
usage(const char *text, bool requested)
{
    std::fputs(text, requested ? stdout : stderr);
    return requested ? 0 : kUsageError;
}

/** Pull "--flag value" style options out of argv. */
class OptionParser
{
  public:
    OptionParser(int argc, char **argv) : argc_(argc), argv_(argv) {}

    const char *value(const char *flag) const
    {
        for (int i = 2; i + 1 < argc_; ++i)
            if (std::strcmp(argv_[i], flag) == 0)
                return argv_[i + 1];
        return nullptr;
    }

    bool present(const char *flag) const
    {
        for (int i = 2; i < argc_; ++i)
            if (std::strcmp(argv_[i], flag) == 0)
                return true;
        return false;
    }

    /**
     * The @p n-th (0-based) positional argument — one that neither
     * starts with "--" nor is the value of a preceding flag.
     */
    const char *positional(std::size_t n) const
    {
        std::size_t seen = 0;
        for (int i = 2; i < argc_; ++i) {
            if (std::strncmp(argv_[i], "--", 2) == 0) {
                ++i; // skip the flag's value slot
                continue;
            }
            if (seen++ == n)
                return argv_[i];
        }
        return nullptr;
    }

  private:
    int argc_;
    char **argv_;
};

std::uint64_t
parseCount(const char *text, const char *what,
           bool allow_zero = false)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < 0 ||
        (v == 0 && !allow_zero)) {
        std::fprintf(stderr, "%s must be a %s integer\n", what,
                     allow_zero ? "non-negative" : "positive");
        std::exit(kUsageError);
    }
    return static_cast<std::uint64_t>(v);
}

/** parseCount for flags stored in 32-bit fields: a value that a
 *  static_cast<unsigned> would silently wrap is a usage error, not
 *  a different (smaller) run. */
unsigned
parseCount32(const char *text, const char *what)
{
    const std::uint64_t v = parseCount(text, what);
    if (v > 0xffffffffu) {
        std::fprintf(stderr, "%s is out of range\n", what);
        std::exit(kUsageError);
    }
    return static_cast<unsigned>(v);
}

/** Builtin catalog, with --trace-dir overlaid when present. */
WorkloadCatalog
buildCatalog(const OptionParser &opts)
{
    WorkloadCatalog catalog = WorkloadCatalog::builtin();
    if (const char *dir = opts.value("--trace-dir"))
        catalog.addTraceDir(dir);
    return catalog;
}

int
cmdList(const OptionParser &opts)
{
    if (opts.present("--help"))
        return usage(kListHelp, true);
    const WorkloadCatalog catalog = buildCatalog(opts);

    TablePrinter workloads("Workload catalog");
    workloads.setHeader({"name", "suite", "source", "instructions",
                         "paper MPKI"});
    for (const auto &entry : catalog.entries()) {
        const bool synthetic =
            entry.source == WorkloadSource::Synthetic;
        workloads.addRow(
            {entry.name(), entry.suite,
             synthetic ? "synthetic" : "trace file",
             std::to_string(entry.params.instructions),
             synthetic && entry.params.paperMpki > 0.0
                 ? TablePrinter::fmt(entry.params.paperMpki, 1)
                 : "-"});
    }
    workloads.print();

    TablePrinter schemes("Scheme registry");
    schemes.setHeader({"name", "spec", "description"});
    for (const auto &entry : SchemeRegistry::instance().entries())
        schemes.addRow({entry.display, entry.key, entry.summary});
    schemes.print();

    // Parameter docs, one line per (scheme, parameter): the sweep
    // grammar's vocabulary. Spec strings accept any subset, e.g.
    // acic(filter=32,update=instant).
    std::printf("Scheme parameters (key=default [range]):\n");
    for (const auto &entry : SchemeRegistry::instance().entries()) {
        if (entry.params.empty())
            continue;
        std::printf("  %s:\n", entry.key.c_str());
        for (const auto &param : entry.params)
            std::printf("    %s=%s  %s  %s\n", param.key.c_str(),
                        param.defaultText.c_str(),
                        param.rangeText().c_str(),
                        param.summary.c_str());
    }
    std::printf("\nSpec grammar: name | name(key=value,...); names "
                "match case-insensitively\nwith '-'/'_'/' ' "
                "interchangeable. 'acic_run sweep' expands "
                "{a,b,c}\nvalue sets cartesianly.\n");
    return 0;
}

int
cmdRecord(const OptionParser &opts)
{
    if (opts.present("--help"))
        return usage(kRecordHelp, true);
    const char *list = opts.value("--workloads");
    if (!list) {
        std::fprintf(stderr, "record: --workloads is required\n");
        return usage(kRecordHelp, false);
    }
    const std::string out_dir =
        opts.value("--out-dir") ? opts.value("--out-dir") : ".";
    const WorkloadCatalog catalog = WorkloadCatalog::builtin();
    for (const auto &entry : catalog.resolve(list)) {
        // Precedence: explicit flag > ACIC_TRACE_LEN > preset.
        WorkloadParams params = withEnvOverrides(entry.params);
        if (const char *n = opts.value("--instructions"))
            params.instructions = parseCount(n, "--instructions");
        const std::string path =
            out_dir + "/" + params.name + TraceFormat::suffix();
        SyntheticWorkload trace(params);
        const std::uint64_t written = recordTrace(trace, path);
        std::printf("recorded %s: %llu instructions\n", path.c_str(),
                    static_cast<unsigned long long>(written));
    }
    return 0;
}

int
cmdImport(const OptionParser &opts)
{
    if (opts.present("--help"))
        return usage(kImportHelp, true);
    const char *in_path = opts.positional(0);
    const char *out_path = opts.positional(1);
    if (!in_path || !out_path) {
        std::fprintf(stderr,
                     "import: <input> and <output> are required\n");
        return usage(kImportHelp, false);
    }

    ImportOptions options;
    if (const char *format = opts.value("--format"))
        options.format = format;
    if (const char *name = opts.value("--name"))
        options.name = name;
    if (options.format != "auto" &&
        !importerByFormat(options.format)) {
        std::fprintf(stderr, "import: unknown --format '%s'\n",
                     options.format.c_str());
        return usage(kImportHelp, false);
    }

    const ImportSummary summary =
        importTraceFile(in_path, out_path, options);
    std::printf("imported %s -> %s: %llu instructions "
                "(format %s%s, workload '%s')\n",
                in_path, out_path,
                static_cast<unsigned long long>(
                    summary.instructions),
                summary.format.c_str(),
                summary.compressed ? ", gzip" : "",
                summary.name.c_str());
    return 0;
}

int
cmdStat(const OptionParser &opts)
{
    if (opts.present("--help"))
        return usage(kStatHelp, true);
    const char *path = opts.positional(0);
    if (!path) {
        std::fprintf(stderr, "stat: <trace> is required\n");
        return usage(kStatHelp, false);
    }
    FileTraceSource trace(path);
    if (trace.length() == 0) {
        // Percentages and per-instruction densities are meaningless
        // at n = 0; an empty trace is an ingestion failure the user
        // should hear about, not a page of zero rows.
        std::fprintf(stderr,
                     "stat: %s is an empty trace (0 instructions); "
                     "nothing to report\n",
                     path);
        return 1;
    }
    printTraceStats(std::cout, computeTraceStats(trace));
    return 0;
}

/**
 * Execute a workloads x schemes matrix and print/emit results — the
 * shared back half of `run` (schemes from --schemes) and `sweep`
 * (schemes from an expanded --grid).
 */
int
runMatrix(const OptionParser &opts, const char *workload_list,
          std::vector<SchemeSpec> schemes)
{
    ExperimentSpec spec;
    spec.workloads = buildCatalog(opts).resolve(workload_list);
    spec.schemes = std::move(schemes);
    // The overlay tolerates missing files (so matrices can mix
    // sources on purpose), but falling back to synthesis must be
    // loud: results would otherwise be mistaken for trace replays.
    if (opts.value("--trace-dir")) {
        for (const auto &entry : spec.workloads)
            if (entry.source == WorkloadSource::Synthetic)
                warn("workload '%s' has no trace in --trace-dir; "
                     "simulating the synthetic preset instead",
                     entry.name().c_str());
    }
    if (const char *t = opts.value("--threads"))
        spec.threads = parseCount32(t, "--threads");
    if (const char *n = opts.value("--instructions"))
        spec.instructions = parseCount(n, "--instructions");
    if (const char *k = opts.value("--intervals"))
        spec.intervals = parseCount32(k, "--intervals");
    if (const char *w = opts.value("--warmup"))
        spec.intervalWarmup = parseCount(w, "--warmup", true);
    if (const char *h = opts.value("--warm-horizon"))
        spec.warmHorizon = parseCount(h, "--warm-horizon", true);
    if (const char *sh = opts.value("--shard")) {
        unsigned index = 0, count = 0;
        char extra = 0;
        if (std::sscanf(sh, "%u/%u%c", &index, &count, &extra) !=
                2 ||
            count == 0 || index >= count) {
            std::fprintf(stderr,
                         "--shard must be I/N with 0 <= I < N "
                         "(got '%s')\n",
                         sh);
            return kUsageError;
        }
        spec.shardIndex = index;
        spec.shardCount = count;
    }
    if (const char *d = opts.value("--checkpoint-dir"))
        spec.checkpointDir = d;
    if (const char *n = opts.value("--checkpoint-every"))
        spec.checkpointEvery =
            parseCount(n, "--checkpoint-every", true);
    if (opts.present("--no-oracle"))
        spec.useOracle = false;

    SchemeSpec baseline = spec.schemes.front();
    if (const char *b = opts.value("--baseline")) {
        baseline = parseScheme(b);
        bool in_matrix = false;
        for (const SchemeSpec &s : spec.schemes)
            in_matrix = in_matrix || s == baseline;
        if (!in_matrix) {
            std::fprintf(stderr,
                         "--baseline %s is not in the scheme list; "
                         "add it\n",
                         b);
            return kUsageError;
        }
    }

    const bool quiet = opts.present("--quiet");
    const bool progress = opts.present("--progress");
    const bool sharded = spec.shardCount > 1;
    std::size_t total = spec.cellCount();
    if (sharded) {
        // The progress denominator is this shard's share only.
        total = 0;
        for (std::size_t w = 0; w < spec.workloads.size(); ++w)
            for (std::size_t s = 0; s < spec.schemes.size(); ++s)
                if (spec.ownsCell(w, s))
                    ++total;
    }
    std::size_t done = 0;
    std::uint64_t insts_done = 0;

    if (const char *hb = opts.value("--heartbeat"))
        Telemetry::setHeartbeatInterval(
            parseCount(hb, "--heartbeat"));
    const char *telemetry_path = opts.value("--telemetry");
    if (telemetry_path && !Telemetry::open(telemetry_path)) {
        std::fprintf(stderr, "failed opening --telemetry %s\n",
                     telemetry_path);
        return 1;
    }

    ExperimentDriver driver(spec);
    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<CellResult> cells;
    {
        // The matrix-wide span must end before Telemetry::close();
        // its scope is the whole driver run, workers included (the
        // pool joins inside driver.run()).
        TelemetryScope run_span("driver.run");
        if (run_span.live()) {
            run_span.attr(
                "workloads",
                static_cast<std::uint64_t>(spec.workloads.size()));
            run_span.attr(
                "schemes",
                static_cast<std::uint64_t>(spec.schemes.size()));
            run_span.attr("cells",
                          static_cast<std::uint64_t>(total));
            run_span.attr("threads",
                          static_cast<std::uint64_t>(spec.threads));
            run_span.attr(
                "intervals",
                static_cast<std::uint64_t>(spec.intervals));
        }
        // The observer runs under the driver's observer mutex, so
        // the done/insts_done updates need no extra synchronization.
        cells = driver.run([&](const CellResult &cell) {
            ++done;
            insts_done += cell.result.instructions;
            if (progress) {
                const double elapsed =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() -
                        wall_start)
                        .count();
                const double rate =
                    elapsed > 0.0
                        ? static_cast<double>(insts_done) / 1e6 /
                              elapsed
                        : 0.0;
                const double eta =
                    static_cast<double>(total - done) * elapsed /
                    static_cast<double>(done);
                std::fprintf(stderr,
                             "\r[%zu/%zu] %3.0f%% | %.1f Minst/s | "
                             "ETA %.0fs   ",
                             done, total,
                             100.0 * static_cast<double>(done) /
                                 static_cast<double>(total),
                             rate, eta);
                std::fflush(stderr);
                return;
            }
            if (quiet)
                return;
            std::fprintf(
                stderr,
                "[%zu/%zu] %s / %s: ipc %.3f, mpki %.2f (%.2fs)\n",
                done, total,
                driver.spec()
                    .workloads[cell.workloadIndex]
                    .name()
                    .c_str(),
                schemeName(driver.spec().schemes[cell.schemeIndex])
                    .c_str(),
                cell.result.ipc(), cell.result.mpki(),
                cell.hostSeconds);
        });
    }
    if (progress)
        std::fputc('\n', stderr);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            wall_start)
                            .count();

    if (sharded) {
        // A shard holds a partial matrix: cross-scheme tables and
        // the golden dump would show zero-filled cells, so they are
        // suppressed; the per-shard CSV/JSON carries the owned
        // cells for 'acic_run merge'.
        double cell_seconds = 0.0;
        for (const auto &cell : cells)
            cell_seconds += cell.hostSeconds;
        std::printf("\nshard %u/%u: %zu of %zu cells in %.2fs wall "
                    "(%.2fs of simulation); tables suppressed — "
                    "reassemble the per-shard --json outputs with "
                    "'acic_run merge'\n",
                    spec.shardIndex, spec.shardCount, total,
                    spec.cellCount(), wall, cell_seconds);
    } else {
        // Per-workload baseline cycles for the speedup table.
        const std::size_t n_schemes = spec.schemes.size();
        std::map<std::size_t, double> baseline_cycles;
        for (const auto &cell : cells)
            if (spec.schemes[cell.schemeIndex] == baseline)
                baseline_cycles[cell.workloadIndex] =
                    static_cast<double>(cell.result.cycles);

        TablePrinter ipc_table("IPC");
        TablePrinter mpki_table("L1i MPKI");
        TablePrinter speedup_table("Speedup over " +
                                   schemeName(baseline));
        std::vector<std::string> header{"workload"};
        for (const SchemeSpec &s : spec.schemes)
            header.push_back(schemeName(s));
        ipc_table.setHeader(header);
        mpki_table.setHeader(header);
        speedup_table.setHeader(header);
        const bool have_baseline =
            baseline_cycles.size() == spec.workloads.size();

        for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
            std::vector<std::string> ipc_row{
                spec.workloads[w].name()};
            std::vector<std::string> mpki_row{
                spec.workloads[w].name()};
            std::vector<std::string> speedup_row{
                spec.workloads[w].name()};
            for (std::size_t s = 0; s < n_schemes; ++s) {
                const SimResult &r =
                    cells[w * n_schemes + s].result;
                ipc_row.push_back(TablePrinter::fmt(r.ipc(), 3));
                mpki_row.push_back(TablePrinter::fmt(r.mpki(), 2));
                if (have_baseline)
                    speedup_row.push_back(TablePrinter::fmt(
                        baseline_cycles[w] /
                            static_cast<double>(r.cycles),
                        4));
            }
            ipc_table.addRow(ipc_row);
            mpki_table.addRow(mpki_row);
            if (have_baseline)
                speedup_table.addRow(speedup_row);
        }
        ipc_table.print();
        mpki_table.print();
        if (have_baseline)
            speedup_table.print();

        double cell_seconds = 0.0;
        for (const auto &cell : cells)
            cell_seconds += cell.hostSeconds;
        const unsigned hw = std::thread::hardware_concurrency();
        std::printf("\n%zu cells in %.2fs wall (%.2fs of "
                    "simulation; parallel speedup %.2fx on %u "
                    "threads)\n",
                    total, wall, cell_seconds,
                    wall > 0.0 ? cell_seconds / wall : 0.0,
                    spec.threads ? spec.threads : (hw ? hw : 1));

        if (opts.present("--dump-stats")) {
            // Workload-major, matching the result ordering above;
            // the per-cell body is exactly the golden-fixture
            // format (tests/golden/, DESIGN.md section 7).
            for (const CellResult &cell : cells) {
                std::cout
                    << "# workload="
                    << spec.workloads[cell.workloadIndex].name()
                    << " scheme="
                    << spec.schemes[cell.schemeIndex].toString()
                    << '\n';
                writeGoldenDump(std::cout, cell.result);
            }
        }
    }
    if (const char *path = opts.value("--csv")) {
        std::ofstream out(path);
        writeResultsCsv(out, driver.spec(), cells);
        if (!out)
            std::fprintf(stderr, "failed writing %s\n", path);
        else
            std::printf("wrote %s\n", path);
    }
    if (const char *path = opts.value("--json")) {
        std::ofstream out(path);
        writeResultsJson(out, driver.spec(), cells);
        if (!out)
            std::fprintf(stderr, "failed writing %s\n", path);
        else
            std::printf("wrote %s\n", path);
    }
    if (telemetry_path) {
        // All emitters are quiescent: the pool joined inside
        // driver.run() and this thread's spans have closed.
        Telemetry::close();
        std::printf("wrote %s\n", telemetry_path);
    }
    return 0;
}

int
cmdRun(const OptionParser &opts)
{
    if (opts.present("--help"))
        return usage(kRunHelp, true);
    const char *workload_list = opts.value("--workloads");
    const char *scheme_list = opts.value("--schemes");
    if (!workload_list || !scheme_list) {
        std::fprintf(stderr,
                     "run: --workloads and --schemes are required\n");
        return usage(kRunHelp, false);
    }
    return runMatrix(opts, workload_list,
                     parseSchemeList(scheme_list));
}

int
cmdSweep(const OptionParser &opts)
{
    if (opts.present("--help"))
        return usage(kSweepHelp, true);
    const char *workload_list = opts.value("--workloads");
    const char *grid = opts.value("--grid");
    if (!workload_list || !grid) {
        std::fprintf(stderr,
                     "sweep: --grid and --workloads are required\n");
        return usage(kSweepHelp, false);
    }
    std::vector<SchemeSpec> schemes = expandSchemeGrid(grid);
    std::fprintf(stderr, "sweep: grid expands to %zu schemes\n",
                 schemes.size());
    return runMatrix(opts, workload_list, std::move(schemes));
}

int
cmdServe(const OptionParser &opts)
{
    if (opts.present("--help"))
        return usage(kServeHelp, true);
    const char *input = opts.positional(0);
    const char *schemes = opts.value("--schemes");
    if (!input || !schemes) {
        std::fprintf(stderr,
                     "serve: <input> and --schemes are required\n");
        return usage(kServeHelp, false);
    }

    ServeOptions options;
    options.input = input;
    options.schemes = schemes;
    if (const char *w = opts.value("--warmup"))
        options.warmup = parseCount(w, "--warmup", true);
    if (const char *w = opts.value("--window"))
        options.window = parseCount(w, "--window");
    if (const char *s = opts.value("--step"))
        options.step = parseCount(s, "--step");
    if (const char *r = opts.value("--ring"))
        options.ring = parseCount(r, "--ring");
    if (const char *t = opts.value("--threads"))
        options.threads = parseCount32(t, "--threads");
    if (const char *p = opts.value("--stats-out"))
        options.statsOut = p;
    options.dumpStats = opts.present("--dump-stats");
    options.quiet = opts.present("--quiet");

    // Telemetry must be live before runServe constructs its engines
    // — SimEngine latches the heartbeat interval at construction.
    if (const char *hb = opts.value("--heartbeat"))
        Telemetry::setHeartbeatInterval(
            parseCount(hb, "--heartbeat"));
    const char *telemetry_path = opts.value("--telemetry");
    if (telemetry_path && !Telemetry::open(telemetry_path)) {
        std::fprintf(stderr, "failed opening --telemetry %s\n",
                     telemetry_path);
        return 1;
    }
    const int rc = runServe(options);
    if (telemetry_path) {
        Telemetry::close();
        std::fprintf(stderr, "wrote %s\n", telemetry_path);
    }
    return rc;
}

int
cmdStream(const OptionParser &opts)
{
    if (opts.present("--help"))
        return usage(kStreamHelp, true);
    const char *workload = opts.value("--workloads");
    const char *trace = opts.value("--trace");
    if (!workload == !trace) {
        std::fprintf(stderr,
                     "stream: exactly one of --workloads or "
                     "--trace is required\n");
        return usage(kStreamHelp, false);
    }

    StreamGenOptions options;
    if (workload)
        options.workload = workload;
    if (trace)
        options.trace = trace;
    if (const char *n = opts.value("--instructions"))
        options.instructions = parseCount(n, "--instructions");
    if (const char *o = opts.value("--out"))
        options.out = o;
    if (const char *f = opts.value("--frame-records"))
        options.frameRecords = parseCount32(f, "--frame-records");
    return runStreamGen(options);
}

int
cmdMerge(const OptionParser &opts)
{
    if (opts.present("--help"))
        return usage(kMergeHelp, true);
    std::vector<std::string> paths;
    for (std::size_t n = 0; const char *p = opts.positional(n); ++n)
        paths.push_back(p);
    if (paths.empty()) {
        std::fprintf(stderr,
                     "merge: at least one <shard.json> is "
                     "required\n");
        return usage(kMergeHelp, false);
    }

    const MergedSweep merged = mergeShardOutputs(paths);
    std::fprintf(stderr,
                 "merge: %zu shard file(s), %zu workloads x %zu "
                 "schemes = %zu cells\n",
                 paths.size(), merged.workloads.size(),
                 merged.schemes.size(), merged.rows.size());

    const char *csv_path = opts.value("--csv");
    const char *json_path = opts.value("--json");
    bool ok = true;
    if (csv_path) {
        std::ofstream out(csv_path);
        writeCsvRows(out, merged.rows);
        if (!out) {
            std::fprintf(stderr, "failed writing %s\n", csv_path);
            ok = false;
        } else {
            std::printf("wrote %s\n", csv_path);
        }
    }
    if (json_path) {
        std::ofstream out(json_path);
        writeJsonRows(out, merged.workloads, merged.schemes,
                      merged.rows);
        if (!out) {
            std::fprintf(stderr, "failed writing %s\n", json_path);
            ok = false;
        } else {
            std::printf("wrote %s\n", json_path);
        }
    }
    if (!csv_path && !json_path)
        writeCsvRows(std::cout, merged.rows);
    return ok ? 0 : 1;
}

int
cmdReport(const OptionParser &opts)
{
    if (opts.present("--help"))
        return usage(kReportHelp, true);
    std::vector<std::string> paths;
    for (std::size_t n = 0; const char *p = opts.positional(n); ++n)
        paths.push_back(p);
    if (paths.empty()) {
        std::fprintf(stderr,
                     "report: <telemetry.jsonl> is required\n");
        return usage(kReportHelp, false);
    }
    ReportOptions options;
    if (const char *n = opts.value("--top"))
        options.topCells =
            static_cast<std::size_t>(parseCount(n, "--top"));
    // Concatenate the given files — typically one per shard of a
    // distributed sweep — into one event stream; the report layer
    // treats the events uniformly regardless of emitting process.
    std::stringstream events;
    for (const std::string &path : paths) {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "report: cannot open %s\n",
                         path.c_str());
            return 1;
        }
        events << in.rdbuf();
        // Guard against a final line missing its newline (e.g. the
        // torn tail of a killed shard) splicing into the next
        // file's first event.
        events << '\n';
    }
    std::string error;
    if (!writeTelemetryReport(events, std::cout, options, error)) {
        std::fprintf(stderr, "report: %s: %s\n",
                     paths.front().c_str(), error.c_str());
        return 1;
    }
    return 0;
}

int
cmdHelp(int argc, char **argv)
{
    if (argc < 3)
        return usage(kMainHelp, true);
    const std::string topic = argv[2];
    if (topic == "list")
        return usage(kListHelp, true);
    if (topic == "record")
        return usage(kRecordHelp, true);
    if (topic == "run")
        return usage(kRunHelp, true);
    if (topic == "sweep")
        return usage(kSweepHelp, true);
    if (topic == "serve")
        return usage(kServeHelp, true);
    if (topic == "stream")
        return usage(kStreamHelp, true);
    if (topic == "merge")
        return usage(kMergeHelp, true);
    if (topic == "import")
        return usage(kImportHelp, true);
    if (topic == "stat")
        return usage(kStatHelp, true);
    if (topic == "report")
        return usage(kReportHelp, true);
    std::fprintf(stderr, "unknown command '%s'\n", topic.c_str());
    return usage(kMainHelp, false);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(kMainHelp, false);
    const OptionParser opts(argc, argv);
    const std::string command = argv[1];
    try {
        if (command == "list")
            return cmdList(opts);
        if (command == "record")
            return cmdRecord(opts);
        if (command == "run")
            return cmdRun(opts);
        if (command == "sweep")
            return cmdSweep(opts);
        if (command == "serve")
            return cmdServe(opts);
        if (command == "stream")
            return cmdStream(opts);
        if (command == "merge")
            return cmdMerge(opts);
        if (command == "import")
            return cmdImport(opts);
        if (command == "stat")
            return cmdStat(opts);
        if (command == "report")
            return cmdReport(opts);
        if (command == "help" || command == "--help" ||
            command == "-h")
            return cmdHelp(argc, argv);
    } catch (const SpecError &e) {
        // Bad spec strings (unknown scheme with did-you-mean
        // suggestions, out-of-range parameters, grid grammar).
        std::fprintf(stderr, "%s: %s\n", command.c_str(), e.what());
        return kUsageError;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", command.c_str(), e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage(kMainHelp, false);
}
