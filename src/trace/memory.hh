/**
 * @file
 * The encoded trace image and its cursor. A TraceImage holds a trace
 * the way a `.acictrace` file does: the v2 record payload
 * (trace/codec.hh, ~1.2 B/instruction) plus its index checkpoints.
 * It is immutable, shared by any number of threads, and built only
 * by TraceEncoder (which TraceWriter streams to a file) or by
 * loadTrace() (trace/io.hh). MemoryTraceSource is the one cursor: a
 * private [begin, end) region that decodes blocks of records from
 * the shared bytes and seeks through the nearest checkpoint.
 */

#ifndef ACIC_TRACE_MEMORY_HH
#define ACIC_TRACE_MEMORY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/codec.hh"
#include "trace/trace.hh"

namespace acic {

/** One index checkpoint: decoder state at instruction j*N. */
struct TraceCheckpoint
{
    /** Byte offset of the record, relative to the payload start. */
    std::uint64_t offset = 0;
    /** nextPc of the preceding record (the varint-chain state). */
    std::uint64_t prevNext = 0;
};

/** See file comment. */
struct TraceImage
{
    std::string name;
    /** Instructions the header announces; a loaded payload that ends
     *  early raises TraceTruncatedError when a cursor reaches it. */
    std::uint64_t instructions = 0;
    /** Format version the records came from (1 or 2). */
    std::uint16_t version = TraceFormat::kVersion;
    std::vector<std::uint8_t> payload;
    /** Instructions per checkpoint; 0 without an index (v1 or
     *  footerless files), so seeks decode from the start. */
    std::uint64_t indexInterval = 0;
    /** checkpoints[j - 1] is the decoder state at instruction
     *  j * indexInterval (the payload start is checkpoint 0). */
    std::vector<TraceCheckpoint> checkpoints;
    /** Decode errors name this (a loaded file's path) and count
     *  file offsets from this (its header size). */
    std::string label;
    std::uint64_t payloadOffset = 0;
};

/**
 * Builds a TraceImage. append() is the only code that produces record
 * bytes for images and files, and the only code that captures index
 * checkpoints. A TraceWriter writes the payload out and drain()s it
 * as it goes; an image is everything appended to an encoder that was
 * never drained.
 */
class TraceEncoder
{
  public:
    /** @param index_interval instructions per checkpoint; 0 encodes
     *  without an index. */
    explicit TraceEncoder(std::string name,
                          std::uint64_t index_interval =
                              TraceFormat::kIndexInterval);

    /** Encode the run @p run[0, @p n). */
    void append(const TraceInst *run, std::size_t n);

    /** The image so far; its payload holds the bytes appended since
     *  the last drain(). */
    const TraceImage &image() const { return image_; }

    /** Forget the payload once the caller has written it out; later
     *  checkpoint offsets still count the drained bytes. */
    void drain();

    /** The finished image of an encoder that was never drained. */
    std::shared_ptr<const TraceImage> finish();

  private:
    TraceImage image_;
    RecordCodec codec_;
    /** Payload bytes drained so far. */
    std::uint64_t drained_ = 0;
    /** Index of the instruction the next checkpoint sits at. */
    std::uint64_t nextCheckpoint_;
};

/** Encode all of @p src (reset before and after) into a new image. */
std::shared_ptr<const TraceImage> encodeTrace(TraceSource &src);

/**
 * See file comment. Copyable; copies share the image. reset() rewinds
 * to the region begin and length() is the region length, so a region
 * behaves like a complete TraceSource (oracle builds, BundleWalker,
 * SimEngine).
 *
 * Decode errors of a loaded image follow trace/errors.hh:
 * TraceFormatError on a corrupt record and TraceTruncatedError when
 * the payload ends before the header's count, both carrying the
 * path and the absolute file offset.
 */
class MemoryTraceSource : public TraceSource
{
  public:
    /** Cursor over instructions [@p begin, @p end) of @p image, both
     *  clamped to its instruction count. */
    explicit MemoryTraceSource(std::shared_ptr<const TraceImage> image,
                               std::uint64_t begin = 0,
                               std::uint64_t end = ~std::uint64_t{0});

    void reset() override { seekTo(0); }

    /** A run out of the decoded block; valid until the next call
     *  that consumes records. */
    const TraceInst *
    acquireRun(std::uint64_t max, std::uint64_t &n) override
    {
        n = 0;
        if (max == 0 || (blockPos_ == blockEnd_ && !decodeBlock()))
            return nullptr;
        const std::size_t avail = blockEnd_ - blockPos_;
        n = max < avail ? max : avail;
        const TraceInst *run = block_.data() + blockPos_;
        blockPos_ += static_cast<std::size_t>(n);
        return run;
    }

    std::uint64_t length() const override { return end_ - begin_; }
    const std::string &name() const override { return image_->name; }

    /**
     * Position the cursor at region-relative instruction @p index:
     * restart the decoder at the nearest preceding index checkpoint
     * and decode forward from there (from the payload start when the
     * image has no index).
     */
    bool seekTo(std::uint64_t index) override;

    /** A cursor over [@p begin, @p end) of the same image, indexed
     *  relative to this cursor's own region start. */
    MemoryTraceSource region(std::uint64_t begin,
                             std::uint64_t end) const
    {
        const std::uint64_t cap = end < length() ? end : length();
        return MemoryTraceSource(image_, begin_ + begin, begin_ + cap);
    }

    /** The shared image, for further cursors over the same trace. */
    const std::shared_ptr<const TraceImage> &image() const
    {
        return image_;
    }

  private:
    /** Decode the next block of at most @p max records; false once
     *  the region is decoded. */
    bool decodeBlock(std::uint64_t max = ~std::uint64_t{0});

    std::shared_ptr<const TraceImage> image_;
    std::uint64_t begin_ = 0;
    std::uint64_t end_ = 0;
    RecordCodec codec_;
    /** Next undecoded payload byte and its instruction index. */
    std::size_t pos_ = 0;
    std::uint64_t decoded_ = 0;
    std::vector<TraceInst> block_;
    std::size_t blockPos_ = 0;
    std::size_t blockEnd_ = 0;
};

} // namespace acic

#endif // ACIC_TRACE_MEMORY_HH
