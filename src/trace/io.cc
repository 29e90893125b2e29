#include "trace/io.hh"

#include <cerrno>

#include "common/logging.hh"
#include "trace/errors.hh"

namespace acic {

namespace {

/** Writer flush threshold and reader chunk size (1 MiB). */
constexpr std::size_t kBufBytes = 1u << 20;

void
writeBytes(std::ofstream &out, const std::vector<std::uint8_t> &bytes)
{
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * Split the index footer off the end of @p image's payload (which
 * holds everything after the header) into its checkpoints.
 */
void
takeIndexFooter(TraceImage &image)
{
    std::vector<std::uint8_t> &bytes = image.payload;
    const std::uint64_t file_bytes = image.payloadOffset + bytes.size();
    if (bytes.size() < TraceFormat::kTrailerBytes)
        throw TraceTruncatedError(
            image.label + ": index footer announced but missing",
            file_bytes, TraceFormat::kTrailerBytes, bytes.size());
    const std::size_t trailer_at =
        bytes.size() - TraceFormat::kTrailerBytes;
    const std::uint8_t *trailer = bytes.data() + trailer_at;
    const auto interval = loadLE<std::uint64_t>(trailer);
    const auto n_checkpoints = loadLE<std::uint32_t>(trailer + 8);
    const std::uint64_t index_bytes =
        std::uint64_t{n_checkpoints} * TraceFormat::kCheckpointBytes;
    if (loadLE<std::uint32_t>(trailer + 12) !=
            TraceFormat::kIndexMagic ||
        interval == 0 || trailer_at < index_bytes)
        throw TraceFormatError(
            image.label + ": corrupt trace index footer (interval " +
                std::to_string(interval) + ", " +
                std::to_string(n_checkpoints) + " checkpoints)",
            image.payloadOffset + trailer_at);
    const std::size_t payload_end =
        trailer_at - static_cast<std::size_t>(index_bytes);
    image.checkpoints.resize(n_checkpoints);
    for (std::size_t j = 0; j < n_checkpoints; ++j) {
        const std::uint8_t *entry =
            bytes.data() + payload_end + j * TraceFormat::kCheckpointBytes;
        TraceCheckpoint &cp = image.checkpoints[j];
        cp = {loadLE<std::uint64_t>(entry),
              loadLE<std::uint64_t>(entry + 8)};
        // Cursors restart decoding at cp.offset in memory, so an
        // offset past the payload is corruption, not a lazy error.
        if (cp.offset > payload_end)
            throw TraceFormatError(
                image.label + ": corrupt trace index footer "
                              "(checkpoint " +
                    std::to_string(j + 1) +
                    " lies past the record payload)",
                image.payloadOffset + payload_end +
                    j * TraceFormat::kCheckpointBytes);
    }
    bytes.resize(payload_end);
    image.indexInterval = interval;
}

} // namespace

// ------------------------------------------------------------ TraceWriter

TraceWriter::TraceWriter(const std::string &path,
                         const std::string &name,
                         std::uint64_t index_interval)
    : out_(path, std::ios::binary | std::ios::trunc),
      encoder_(name, index_interval)
{
    if (!out_)
        ACIC_FATAL("cannot open trace file for writing");
    // close() patches the instruction count back into the header, so
    // a non-seekable target (pipe, FIFO, character device) would end
    // up with a corrupt count-0 header. Detect it now and fail with
    // a clear error instead.
    if (out_.tellp() == std::ofstream::pos_type(-1))
        ACIC_FATAL("trace output is not seekable (the instruction "
                   "count is patched into the header on close); "
                   "write to a regular file");
    std::vector<std::uint8_t> header;
    encodeTraceHeader(name, header);
    writeBytes(out_, header);
    open_ = true;
}

TraceWriter::~TraceWriter()
{
    if (open_)
        close();
}

void
TraceWriter::flush()
{
    writeBytes(out_, encoder_.image().payload);
    encoder_.drain();
}

void
TraceWriter::append(const TraceInst *run, std::size_t n)
{
    ACIC_ASSERT(open_, "append() on a closed TraceWriter");
    encoder_.append(run, n);
    if (encoder_.image().payload.size() >= kBufBytes)
        flush();
}

void
TraceWriter::close()
{
    if (!open_)
        return;
    flush();
    const TraceImage &image = encoder_.image();
    std::uint16_t flags = 0;
    if (image.indexInterval > 0) {
        // Index footer: checkpoints, then the fixed trailer readers
        // locate from the end of the file.
        std::vector<std::uint8_t> footer;
        for (const TraceCheckpoint &cp : image.checkpoints) {
            putLE<std::uint64_t>(footer, cp.offset);
            putLE<std::uint64_t>(footer, cp.prevNext);
        }
        putLE<std::uint64_t>(footer, image.indexInterval);
        putLE<std::uint32_t>(footer, image.checkpoints.size());
        putLE<std::uint32_t>(footer, TraceFormat::kIndexMagic);
        writeBytes(out_, footer);
        flags |= TraceFormat::kFlagHasIndex;
    }
    // Patch the flags and the instruction count into the header.
    out_.seekp(6);
    std::vector<std::uint8_t> patch;
    putLE<std::uint16_t>(patch, flags);
    putLE<std::uint64_t>(patch, image.instructions);
    writeBytes(out_, patch);
    out_.close();
    if (!out_)
        ACIC_FATAL("error finalizing trace file");
    open_ = false;
}

// ------------------------------------------------------------- free funcs

std::shared_ptr<const TraceImage>
readTrace(const ByteRead &read, const std::string &label)
{
    const TraceHeader header = decodeTraceHeader(read, label);
    TraceImage image;
    image.name = header.name;
    image.instructions = header.instructions;
    image.version = header.version;
    image.label = label;
    image.payloadOffset = header.bytes();
    // Everything after the header: the payload, then any footer.
    std::vector<std::uint8_t> &bytes = image.payload;
    for (std::size_t got = kBufBytes; got == kBufBytes;) {
        const std::size_t old = bytes.size();
        bytes.resize(old + kBufBytes);
        got = read(bytes.data() + old, kBufBytes);
        bytes.resize(old + got);
    }
    if (header.version >= 2 &&
        (header.flags & TraceFormat::kFlagHasIndex))
        takeIndexFooter(image);
    return std::make_shared<const TraceImage>(std::move(image));
}

std::shared_ptr<const TraceImage>
loadTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw TraceOpenError(path, errno);
    return readTrace(readFrom(in), path);
}

bool
readTraceHeader(const std::string &path, TraceHeader &out)
{
    std::ifstream in(path, std::ios::binary);
    try {
        out = decodeTraceHeader(readFrom(in), path);
        return true;
    } catch (const TraceFormatError &) {
        return false; // also an unopenable file: it reads as empty
    }
}

std::uint64_t
recordTrace(TraceSource &src, const std::string &path)
{
    TraceWriter writer(path, src.name());
    src.reset();
    std::uint64_t n = 0;
    while (const TraceInst *run = src.acquireRun(~std::uint64_t{0}, n))
        writer.append(run, static_cast<std::size_t>(n));
    writer.close();
    src.reset();
    return writer.written();
}

} // namespace acic
