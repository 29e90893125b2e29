/**
 * @file
 * On-disk trace container (.acictrace): a buffered writer and a
 * re-iterable reader of the versioned header + record payload that
 * trace/codec.hh defines. Captured synthetic workloads replay
 * bit-exactly from disk, and the same container is the landing pad
 * for imported QEMU/ChampSim-style instruction traces.
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
 * seekTo() on them falls back to linear decode. Readers locate the
 * footer from the end of the file, so the record payload needs no
 * length prefix.
 */

#ifndef ACIC_TRACE_IO_HH
#define ACIC_TRACE_IO_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/codec.hh"
#include "trace/memory.hh"

namespace acic {

/** One index-footer entry: decoder state at instruction j*N. */
struct TraceCheckpoint
{
    /** Byte offset of the record, relative to the payload start. */
    std::uint64_t offset = 0;
    /** nextPc of the preceding record (the varint-chain state). */
    std::uint64_t prevNext = 0;
};

/**
 * Streaming trace writer. Buffered; append() never seeks, the
 * instruction count is patched into the header by close() — which
 * requires a seekable output, so the constructor rejects pipes,
 * FIFOs, and other non-seekable targets up front instead of leaving
 * a corrupt (count = 0) header behind.
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

    /** Encode and buffer one instruction. */
    void append(const TraceInst &inst);

    /** Records appended so far. */
    std::uint64_t written() const { return count_; }

    /** Flush, patch the header count, and close the file. */
    void close();

  private:
    void flush();

    std::ofstream out_;
    std::vector<std::uint8_t> buf_;
    RecordCodec codec_;
    std::uint64_t count_ = 0;
    bool open_ = false;

    std::uint64_t indexInterval_ = 0;
    std::uint64_t headerBytes_ = 0;
    /** Bytes written to out_ so far (header + records). */
    std::uint64_t flushedBytes_ = 0;
    std::vector<TraceCheckpoint> checkpoints_;
};

/**
 * Reader over a .acictrace file, exposing the TraceSource
 * re-iterability contract: reset() seeks back to the first record and
 * the identical stream replays. A RecordReader decodes the payload a
 * block of records at a time, and acquireRun() serves that block
 * (the default next() and decodeBatch() copy from acquireRun()).
 *
 * Failure contract (trace/errors.hh): the constructor throws
 * TraceFormatError on a bad magic, version, name length or index
 * footer and TraceTruncatedError on a header or footer cut short;
 * reads throw TraceTruncatedError when the file ends before the
 * header's record count and TraceFormatError on a corrupt record.
 * Every message carries the path and the absolute byte offset.
 */
class FileTraceSource : public TraceSource
{
  public:
    /** Open and validate @p path; ACIC_FATALs when it cannot be
     *  opened. */
    explicit FileTraceSource(const std::string &path);

    /** Not copyable or movable: the reader holds a reference to in_. */
    FileTraceSource(const FileTraceSource &) = delete;
    FileTraceSource &operator=(const FileTraceSource &) = delete;

    void reset() override { seekTo(0); }

    /** A run out of the decoded block; valid until the next call
     *  that consumes records. */
    const TraceInst *
    acquireRun(std::uint64_t max, std::uint64_t &n) override
    {
        return reader_.acquire(max, n);
    }

    std::uint64_t length() const override
    {
        return header_.instructions;
    }
    const std::string &name() const override { return header_.name; }

    /**
     * Position the cursor at instruction @p index: jump to the
     * nearest preceding index-footer checkpoint (the decoder state
     * stored every 64K instructions) and decode forward from there.
     * On a footerless (version 1) file this degrades to a linear
     * decode from the start.
     */
    bool seekTo(std::uint64_t index) override;

    /** File-format version of the opened trace. */
    std::uint16_t version() const { return header_.version; }

    /** True when the file carries an index footer (a short indexed
     *  file may hold zero checkpoints — the payload start is the
     *  implicit checkpoint 0). */
    bool hasIndex() const { return indexInterval_ != 0; }

    /** Instructions per checkpoint (0 when footerless). */
    std::uint64_t indexInterval() const { return indexInterval_; }

  private:
    void loadIndexFooter();

    std::ifstream in_;
    std::string path_;
    TraceHeader header_;
    RecordReader reader_;

    std::uint64_t indexInterval_ = 0;
    std::vector<TraceCheckpoint> checkpoints_;
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
