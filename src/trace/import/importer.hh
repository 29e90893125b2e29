/**
 * @file
 * Pluggable trace ingestion: a TraceImporter converts one external
 * instruction-trace format into the native `.acictrace` container
 * (DESIGN.md section 2), after which everything downstream — oracle,
 * schemes, experiment driver — works unchanged.
 *
 * Three importers are registered (DESIGN.md section 5):
 *
 *   champsim   64-byte binary records (ip, is_branch, branch_taken,
 *              register lists, memory operands);
 *   qemu       text logs, both the execlog-plugin per-instruction
 *              form and the `-d exec` translation-block form;
 *   acictrace  native re-encode, so `acic_run import` can also
 *              re-frame (e.g. decompress) an existing trace.
 *
 * Input may be gzip-compressed (detected by magic, see framing.hh).
 * Format auto-detection probes the decompressed stream head against
 * each importer in registration order.
 */

#ifndef ACIC_TRACE_IMPORT_IMPORTER_HH
#define ACIC_TRACE_IMPORT_IMPORTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/import/framing.hh"
#include "trace/io.hh"

namespace acic {

/** Interface every ingestion format implements. */
class TraceImporter
{
  public:
    virtual ~TraceImporter() = default;

    /** Registry key and `--format` spelling, e.g. "champsim". */
    virtual const char *format() const = 0;

    /**
     * Sniff the (decompressed) stream head: may this importer parse
     * it? Probes must be cheap and side-effect free; the first
     * registered importer whose probe accepts wins auto-detection.
     * @param complete true when @p head is the entire input (EOF
     *        fell inside the probe window), so a final unterminated
     *        line is actually complete.
     */
    virtual bool probe(const std::uint8_t *head, std::size_t n,
                       bool complete) const = 0;

    /**
     * Read every instruction from @p in and append it to @p out.
     * Rejects malformed input, naming the offending position.
     * @return instructions converted.
     */
    virtual std::uint64_t convert(InputStream &in,
                                  TraceWriter &out) const = 0;

    /**
     * Workload name recoverable from the input itself (the native
     * importer preserves the stored header name). Empty when the
     * format carries none; @p in is only peeked, never consumed.
     */
    virtual std::string sniffName(InputStream &in) const
    {
        (void)in;
        return "";
    }
};

/** Options of one importTraceFile() call. */
struct ImportOptions
{
    /** "auto", or an importer format() name. */
    std::string format = "auto";

    /**
     * Workload name stored in the output header. Empty picks the
     * input's own name (native re-encode) or, failing that, the
     * output file name minus directories and extensions.
     */
    std::string name;
};

/** What one importTraceFile() call did. */
struct ImportSummary
{
    /** Importer that ran (resolved from --format or detection). */
    std::string format;
    /** Workload name written to the output header. */
    std::string name;
    /** Instructions converted. */
    std::uint64_t instructions = 0;
    /** Decompressed input bytes consumed. */
    std::uint64_t inputBytes = 0;
    /** True when the input was gzip-compressed. */
    bool compressed = false;
};

/** All registered importers, in auto-detection probe order. */
const std::vector<const TraceImporter *> &traceImporters();

/** Look up an importer by format() name; nullptr when unknown. */
const TraceImporter *importerByFormat(const std::string &format);

/**
 * Auto-detect the format of @p in by probing its head.
 * @return the first accepting importer; ACIC_FATALs when no importer
 *         recognizes the input.
 */
const TraceImporter *detectImporter(InputStream &in);

/** "dir/web_search.champsim.gz" -> "web_search". */
std::string workloadNameForPath(const std::string &path);

/**
 * Convert @p in_path (any supported format, optionally gzipped) into
 * the `.acictrace` file @p out_path. The implementation of
 * `acic_run import`; ACIC_FATALs on unknown formats and rejects
 * malformed input as convert() does, leaving no output file behind.
 */
ImportSummary importTraceFile(const std::string &in_path,
                              const std::string &out_path,
                              const ImportOptions &options = {});

} // namespace acic

#endif // ACIC_TRACE_IMPORT_IMPORTER_HH
