/**
 * @file
 * On-disk trace container (.acictrace): the versioned header and
 * record payload that trace/codec.hh defines, followed by the index
 * footer. TraceWriter streams a TraceEncoder (trace/memory.hh) to a
 * file and loadTrace() reads a file back into a TraceImage, so a
 * file and an in-memory image hold the same bytes. Captured
 * synthetic workloads replay bit-exactly from disk, and the same
 * container is the landing pad for imported QEMU/ChampSim-style
 * instruction traces.
 *
 * Version 2 appends an optional *index footer* after the records so
 * readers can seek to an instruction without decoding everything
 * before it (interval-parallel simulation, DESIGN.md section 8).
 * The varint chain makes a record undecodable without the previous
 * record's nextPc, so each checkpoint stores that decoder state:
 *
 *   checkpoint[j] (j = 1..M, at instruction j*N):
 *     u64  byte offset of the record, relative to payload start
 *     u64  prevNext decoder state at that record
 *   trailer (last 16 bytes of the file):
 *     u64  index interval N (instructions per checkpoint)
 *     u32  checkpoint count M
 *     u32  index magic "INDX"
 *
 * The footer is announced by the kFlagHasIndex header flag and is
 * strictly additive: version-1 files (no footer) still load, and
 * seeks on them fall back to linear decode. Readers locate the
 * footer from the end of the file, so the record payload needs no
 * length prefix.
 */

#ifndef ACIC_TRACE_IO_HH
#define ACIC_TRACE_IO_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "trace/codec.hh"
#include "trace/memory.hh"

namespace acic {

/**
 * Streaming trace writer: a TraceEncoder whose pending bytes are
 * flushed to a file. append() never seeks, the instruction count is
 * patched into the header by close() — which requires a seekable
 * output, so the constructor rejects pipes, FIFOs, and other
 * non-seekable targets up front instead of leaving a corrupt
 * (count = 0) header behind.
 */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing and emit the header.
     * ACIC_FATALs when @p path cannot be opened or is not seekable.
     * @param name workload name stored in the file.
     * @param index_interval instructions per index checkpoint
     *        (close() appends the footer); 0 writes a footerless
     *        file, which readers treat like version 1.
     */
    TraceWriter(const std::string &path, const std::string &name,
                std::uint64_t index_interval =
                    TraceFormat::kIndexInterval);

    /** close()s if still open. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Encode and buffer the run @p run[0, @p n). */
    void append(const TraceInst *run, std::size_t n);

    /** Encode and buffer one instruction. */
    void append(const TraceInst &inst) { append(&inst, 1); }

    /** Records appended so far. */
    std::uint64_t written() const
    {
        return encoder_.image().instructions;
    }

    /** Flush, patch the header count, and close the file. */
    void close();

  private:
    void flush();

    std::ofstream out_;
    TraceEncoder encoder_;
    bool open_ = false;
};

/**
 * Read the trace file @p path into an image, checking its header and
 * index footer (records are checked as cursors decode them).
 *
 * Failure contract (trace/errors.hh): TraceOpenError when the file
 * cannot be opened; TraceFormatError on a bad magic, version, name
 * length or index footer and TraceTruncatedError on a header or
 * footer cut short. Every message carries the path, and the format
 * errors the absolute byte offset.
 */
std::shared_ptr<const TraceImage> loadTrace(const std::string &path);

/** loadTrace() over the bytes @p read supplies (a whole file,
 *  possibly decompressed); @p label (a path) names it in errors. */
std::shared_ptr<const TraceImage> readTrace(const ByteRead &read,
                                            const std::string &label);

/**
 * A cursor over loadTrace(@p path): the MemoryTraceSource every
 * trace file is read through, plus the file's format accessors.
 */
class FileTraceSource : public MemoryTraceSource
{
  public:
    explicit FileTraceSource(const std::string &path)
        : MemoryTraceSource(loadTrace(path))
    {
    }

    /** File-format version of the opened trace. */
    std::uint16_t version() const { return image()->version; }

    /** True when the file carries an index footer (a short indexed
     *  file may hold zero checkpoints — the payload start is the
     *  implicit checkpoint 0). */
    bool hasIndex() const { return image()->indexInterval != 0; }

    /** Instructions per checkpoint (0 when footerless). */
    std::uint64_t indexInterval() const
    {
        return image()->indexInterval;
    }
};

/**
 * Record @p src to @p path (the capture path of `acic_run record`).
 * @p src is reset before and after.
 * @return instructions written.
 */
std::uint64_t recordTrace(TraceSource &src, const std::string &path);

/**
 * Read just the header of @p path into @p out.
 * @return false (leaving @p out untouched) when the file cannot be
 *         opened, is not a valid `.acictrace` header, or is an
 *         unsupported format version, so directory scans can skip
 *         foreign files.
 */
bool readTraceHeader(const std::string &path, TraceHeader &out);

} // namespace acic

#endif // ACIC_TRACE_IO_HH
