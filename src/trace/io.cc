#include "trace/io.hh"

#include "common/logging.hh"
#include "trace/errors.hh"

namespace acic {

namespace {

/** Writer buffer size (1 MiB). */
constexpr std::size_t kBufBytes = 1u << 20;

/** The header of trace file @p in, opened from @p path. */
TraceHeader
openedHeader(std::ifstream &in, const std::string &path)
{
    if (!in)
        ACIC_FATAL("cannot open trace file for reading");
    return decodeTraceHeader(readFrom(in), path);
}

} // namespace

// ------------------------------------------------------------ TraceWriter

TraceWriter::TraceWriter(const std::string &path,
                         const std::string &name,
                         std::uint64_t index_interval)
    : out_(path, std::ios::binary | std::ios::trunc),
      indexInterval_(index_interval)
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
    buf_.reserve(kBufBytes + TraceFormat::kMaxRecordBytes);
    encodeTraceHeader(name, buf_);
    headerBytes_ = buf_.size();
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
    if (buf_.empty())
        return;
    out_.write(reinterpret_cast<const char *>(buf_.data()),
               static_cast<std::streamsize>(buf_.size()));
    flushedBytes_ += buf_.size();
    buf_.clear();
}

void
TraceWriter::append(const TraceInst &inst)
{
    ACIC_ASSERT(open_, "append() on a closed TraceWriter");
    // This record starts instruction `count_`; when that lands on an
    // index-checkpoint boundary, capture where it begins and the
    // varint-chain state needed to decode it.
    if (indexInterval_ > 0 && count_ > 0 &&
        count_ % indexInterval_ == 0) {
        checkpoints_.push_back(
            {flushedBytes_ + buf_.size() - headerBytes_,
             codec_.prevNext()});
    }
    codec_.encode(inst, buf_);
    ++count_;
    if (buf_.size() >= kBufBytes)
        flush();
}

void
TraceWriter::close()
{
    if (!open_)
        return;
    flush();
    std::uint16_t flags = 0;
    if (indexInterval_ > 0) {
        // Index footer: checkpoints, then the fixed trailer readers
        // locate from the end of the file.
        for (const TraceCheckpoint &cp : checkpoints_) {
            putLE<std::uint64_t>(buf_, cp.offset);
            putLE<std::uint64_t>(buf_, cp.prevNext);
        }
        putLE<std::uint64_t>(buf_, indexInterval_);
        putLE<std::uint32_t>(buf_, checkpoints_.size());
        putLE<std::uint32_t>(buf_, TraceFormat::kIndexMagic);
        flush();
        flags |= TraceFormat::kFlagHasIndex;
    }
    // Patch the flags and the instruction count into the header.
    out_.seekp(6);
    std::vector<std::uint8_t> patch;
    putLE<std::uint16_t>(patch, flags);
    putLE<std::uint64_t>(patch, count_);
    out_.write(reinterpret_cast<const char *>(patch.data()),
               static_cast<std::streamsize>(patch.size()));
    out_.close();
    if (!out_)
        ACIC_FATAL("error finalizing trace file");
    open_ = false;
}

// -------------------------------------------------------- FileTraceSource

FileTraceSource::FileTraceSource(const std::string &path)
    : in_(path, std::ios::binary), path_(path),
      header_(openedHeader(in_, path)),
      reader_(readFrom(in_), path, header_.bytes(),
              header_.instructions)
{
    if (header_.version >= 2 &&
        (header_.flags & TraceFormat::kFlagHasIndex))
        loadIndexFooter();
    reset();
}

void
FileTraceSource::loadIndexFooter()
{
    // The trailer is the last 16 bytes; the checkpoints precede it.
    in_.clear();
    in_.seekg(0, std::ios::end);
    const auto file_bytes = static_cast<std::uint64_t>(in_.tellg());
    const std::uint64_t payload = header_.bytes();
    std::uint8_t trailer[TraceFormat::kTrailerBytes];
    if (file_bytes < payload + sizeof(trailer))
        throw TraceTruncatedError(
            path_ + ": index footer announced but missing", file_bytes,
            sizeof(trailer), file_bytes - payload);
    const std::uint64_t trailer_off = file_bytes - sizeof(trailer);
    const ByteRead read = readFrom(in_);
    in_.seekg(static_cast<std::streamoff>(trailer_off));
    read(trailer, sizeof(trailer));
    const auto interval = loadLE<std::uint64_t>(trailer);
    const auto n_checkpoints = loadLE<std::uint32_t>(trailer + 8);
    const std::uint64_t index_bytes =
        std::uint64_t{n_checkpoints} * TraceFormat::kCheckpointBytes;
    if (loadLE<std::uint32_t>(trailer + 12) !=
            TraceFormat::kIndexMagic ||
        interval == 0 || trailer_off - payload < index_bytes)
        throw TraceFormatError(
            path_ + ": corrupt trace index footer (interval " +
                std::to_string(interval) + ", " +
                std::to_string(n_checkpoints) + " checkpoints)",
            trailer_off);
    in_.seekg(static_cast<std::streamoff>(trailer_off - index_bytes));
    checkpoints_.resize(n_checkpoints);
    for (TraceCheckpoint &cp : checkpoints_) {
        std::uint8_t entry[TraceFormat::kCheckpointBytes];
        read(entry, sizeof(entry));
        cp = {loadLE<std::uint64_t>(entry),
              loadLE<std::uint64_t>(entry + 8)};
    }
    indexInterval_ = interval;
}

bool
FileTraceSource::seekTo(std::uint64_t index)
{
    if (index > header_.instructions)
        return false;
    // Nearest preceding checkpoint (checkpoint j sits at instruction
    // j * interval; the payload start is the implicit checkpoint 0).
    std::uint64_t cp_idx =
        indexInterval_ > 0 ? index / indexInterval_ : 0;
    if (cp_idx > checkpoints_.size())
        cp_idx = checkpoints_.size();
    const TraceCheckpoint cp =
        cp_idx == 0 ? TraceCheckpoint{} : checkpoints_[cp_idx - 1];
    const std::uint64_t offset = header_.bytes() + cp.offset;
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(offset));
    reader_.restart(offset, cp.prevNext, cp_idx * indexInterval_);
    for (std::uint64_t left = index - cp_idx * indexInterval_;
         left > 0;) {
        std::uint64_t n = 0;
        reader_.acquire(left, n);
        left -= n;
    }
    return true;
}

// ------------------------------------------------------------- free funcs

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
    TraceInst inst;
    while (src.next(inst))
        writer.append(inst);
    writer.close();
    src.reset();
    return writer.written();
}

TraceImage
materializeTrace(TraceSource &src)
{
    auto image = std::make_shared<std::vector<TraceInst>>();
    image->reserve(src.length());
    src.reset();
    std::uint64_t n = 0;
    while (const TraceInst *run = src.acquireRun(~std::uint64_t{0}, n))
        image->insert(image->end(), run, run + n);
    TraceInst inst;
    while (src.next(inst))
        image->push_back(inst);
    src.reset();
    return image;
}

} // namespace acic
