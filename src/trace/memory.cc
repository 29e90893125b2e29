#include "trace/memory.hh"

#include <utility>

#include "common/logging.hh"
#include "trace/errors.hh"

namespace acic {

namespace {

/** Records a cursor decodes per block (a multiple of
 *  InstBatch::kCapacity; 24 KiB of TraceInst). */
constexpr std::size_t kBlockRecords = 1024;

} // namespace

// ------------------------------------------------------- TraceEncoder

TraceEncoder::TraceEncoder(std::string name,
                           std::uint64_t index_interval)
{
    image_.name = std::move(name);
    image_.indexInterval = index_interval;
    nextCheckpoint_ =
        index_interval > 0 ? index_interval : ~std::uint64_t{0};
}

void
TraceEncoder::append(const TraceInst *run, std::size_t n)
{
    while (n > 0) {
        // Ahead of the record that starts each index interval,
        // capture where it begins and the varint-chain state needed
        // to decode it.
        if (image_.instructions == nextCheckpoint_) {
            image_.checkpoints.push_back(
                {drained_ + image_.payload.size(), codec_.prevNext()});
            nextCheckpoint_ += image_.indexInterval;
        }
        const std::uint64_t room = nextCheckpoint_ - image_.instructions;
        const std::size_t take =
            room < n ? static_cast<std::size_t>(room) : n;
        codec_.encode(run, take, image_.payload);
        image_.instructions += take;
        run += take;
        n -= take;
    }
}

void
TraceEncoder::drain()
{
    drained_ += image_.payload.size();
    image_.payload.clear();
}

std::shared_ptr<const TraceImage>
TraceEncoder::finish()
{
    ACIC_ASSERT(drained_ == 0, "finish() on a drained TraceEncoder");
    return std::make_shared<const TraceImage>(std::move(image_));
}

std::shared_ptr<const TraceImage>
encodeTrace(TraceSource &src)
{
    TraceEncoder encoder(src.name());
    src.reset();
    std::uint64_t n = 0;
    while (const TraceInst *run = src.acquireRun(~std::uint64_t{0}, n))
        encoder.append(run, static_cast<std::size_t>(n));
    src.reset();
    return encoder.finish();
}

// -------------------------------------------------- MemoryTraceSource

MemoryTraceSource::MemoryTraceSource(
    std::shared_ptr<const TraceImage> image, std::uint64_t begin,
    std::uint64_t end)
    : image_(std::move(image)), block_(kBlockRecords)
{
    const std::uint64_t size = image_->instructions;
    begin_ = begin < size ? begin : size;
    end_ = end < size ? end : size;
    if (end_ < begin_)
        end_ = begin_;
    reset();
}

bool
MemoryTraceSource::seekTo(std::uint64_t index)
{
    if (index > length())
        return false;
    const TraceImage &image = *image_;
    const std::uint64_t target = begin_ + index;
    // Nearest preceding checkpoint (checkpoint j sits at instruction
    // j * interval; the payload start is the implicit checkpoint 0).
    std::uint64_t j =
        image.indexInterval > 0 ? target / image.indexInterval : 0;
    if (j > image.checkpoints.size())
        j = image.checkpoints.size();
    const TraceCheckpoint cp =
        j == 0 ? TraceCheckpoint{} : image.checkpoints[j - 1];
    codec_ = RecordCodec(cp.prevNext, image.label);
    pos_ = static_cast<std::size_t>(cp.offset);
    decoded_ = j * image.indexInterval;
    // Decode up to the target and drop it, so the next block starts
    // there.
    while (decoded_ < target)
        decodeBlock(target - decoded_);
    blockPos_ = blockEnd_ = 0;
    return true;
}

bool
MemoryTraceSource::decodeBlock(std::uint64_t max)
{
    blockPos_ = blockEnd_ = 0;
    std::uint64_t left = end_ - decoded_;
    if (left > max)
        left = max;
    if (left == 0)
        return false;
    const TraceImage &image = *image_;
    const std::uint8_t *const base = image.payload.data();
    const std::uint8_t *p = base + pos_;
    blockEnd_ = codec_.decode(
        p, base + image.payload.size(), image.payloadOffset + pos_,
        block_.data(),
        left < block_.size() ? static_cast<std::size_t>(left)
                             : block_.size());
    pos_ = static_cast<std::size_t>(p - base);
    // A short block is served first; the call after it, which can
    // decode nothing, reports the truncation.
    if (blockEnd_ == 0)
        throw TraceTruncatedError(
            (image.label.empty() ? "" : image.label + ": ") +
                "trace ends inside or before record " +
                std::to_string(decoded_) + " of " +
                std::to_string(image.instructions),
            image.payloadOffset + image.payload.size(), 1, 0);
    decoded_ += blockEnd_;
    return true;
}

} // namespace acic
