#include "trace/import/importer.hh"

#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "trace/errors.hh"
#include "trace/import/champsim.hh"
#include "trace/import/qemu.hh"

namespace acic {

namespace {

/** Bytes of stream head offered to probes. */
constexpr std::size_t kProbeBytes = 4096;

/**
 * Native `.acictrace` re-encoder: reads an existing container
 * (possibly gzip-compressed) into an image and appends its records.
 * Gives `acic_run import` an identity path — re-framing,
 * decompressing, or upgrading traces — and preserves the stored
 * workload name. The input gets the header and footer checks of
 * loadTrace() and its records decode through the shared codec.
 */
class NativeImporter : public TraceImporter
{
  public:
    const char *format() const override { return "acictrace"; }

    bool probe(const std::uint8_t *head, std::size_t n,
               bool complete) const override
    {
        (void)complete;
        return n >= 4 &&
               loadLE<std::uint32_t>(head) == TraceFormat::kMagic;
    }

    std::string sniffName(InputStream &in) const override
    {
        const std::uint8_t *head = nullptr;
        const std::size_t n = in.peek(head, kProbeBytes);
        std::istringstream bytes(
            std::string(reinterpret_cast<const char *>(head), n));
        try {
            return decodeTraceHeader(readFrom(bytes), in.path()).name;
        } catch (const TraceFormatError &) {
            return "";
        }
    }

    std::uint64_t convert(InputStream &in,
                          TraceWriter &out) const override
    {
        const ByteRead read = [&in](void *dst, std::size_t n) {
            return in.read(dst, n);
        };
        MemoryTraceSource records(readTrace(read, in.path()));
        std::uint64_t n = 0;
        while (const TraceInst *run =
                   records.acquireRun(~std::uint64_t{0}, n))
            out.append(run, static_cast<std::size_t>(n));
        return out.written();
    }
};

} // namespace

const std::vector<const TraceImporter *> &
traceImporters()
{
    // Probe order matters: the native magic is unambiguous, the QEMU
    // probe claims parseable text, and ChampSim is the binary
    // fallback.
    static const NativeImporter native;
    static const QemuImporter qemu;
    static const ChampSimImporter champsim;
    static const std::vector<const TraceImporter *> registry{
        &native, &qemu, &champsim};
    return registry;
}

const TraceImporter *
importerByFormat(const std::string &format)
{
    for (const TraceImporter *importer : traceImporters())
        if (format == importer->format())
            return importer;
    return nullptr;
}

const TraceImporter *
detectImporter(InputStream &in)
{
    const std::uint8_t *head = nullptr;
    const std::size_t n = in.peek(head, kProbeBytes);
    // A short peek means EOF fell inside the window: the head IS
    // the whole input.
    const bool complete = n < kProbeBytes;
    for (const TraceImporter *importer : traceImporters())
        if (importer->probe(head, n, complete))
            return importer;
    ACIC_FATAL("cannot auto-detect trace format (not acictrace, "
               "qemu, or champsim); pass --format explicitly");
}

std::string
workloadNameForPath(const std::string &path)
{
    const std::size_t slash = path.find_last_of("/\\");
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = base.find('.');
    if (dot != std::string::npos && dot > 0)
        base = base.substr(0, dot);
    return base.empty() ? "imported" : base;
}

ImportSummary
importTraceFile(const std::string &in_path,
                const std::string &out_path,
                const ImportOptions &options)
{
    InputStream in(in_path);
    const TraceImporter *importer =
        options.format == "auto" ? detectImporter(in)
                                 : importerByFormat(options.format);
    if (!importer) {
        std::string msg = "unknown import format '" +
                          options.format +
                          "' (expected auto, acictrace, qemu, or "
                          "champsim)";
        ACIC_FATAL(msg.c_str());
    }

    std::string name = options.name;
    if (name.empty())
        name = importer->sniffName(in);
    if (name.empty())
        name = workloadNameForPath(out_path);

    // Convert into a temp file and rename on success, so a fatal on
    // malformed input never leaves a partial (count = 0) trace
    // behind under the real name for catalog scans to pick up.
    const std::string tmp_path = out_path + ".tmp";
    TraceWriter writer(tmp_path, name);
    try {
        importer->convert(in, writer);
    } catch (...) {
        writer.close();
        std::remove(tmp_path.c_str());
        throw;
    }
    writer.close();
    if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0)
        ACIC_FATAL("cannot move finished trace into place");

    ImportSummary summary;
    summary.format = importer->format();
    summary.name = name;
    summary.instructions = writer.written();
    summary.inputBytes = in.consumed();
    summary.compressed = in.compressed();
    return summary;
}

} // namespace acic
