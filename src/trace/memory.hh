/**
 * @file
 * In-memory trace source. Materializes any TraceSource into an
 * immutable, shareable instruction vector; each MemoryTraceSource is
 * then a private cursor over that shared vector. This is the
 * thread-safe sharing primitive of the experiment driver: one
 * materialized trace per workload, one cursor per worker.
 */

#ifndef ACIC_TRACE_MEMORY_HH
#define ACIC_TRACE_MEMORY_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.hh"

namespace acic {

/** Shared immutable instruction storage. */
using TraceImage = std::shared_ptr<const std::vector<TraceInst>>;

/**
 * Drain @p src (reset before and after) into a shared image.
 * One instruction is 18 bytes, so a 5M-instruction workload costs
 * ~90 MB — materialize once per workload, never per run.
 */
TraceImage materializeTrace(TraceSource &src);

/**
 * See file comment. Copyable; copies share the image. A cursor may
 * view a [begin, end) *region* of the image — the interval-parallel
 * driver hands each worker a region cursor over one interval (plus
 * its warmup prefix) of the same shared image.
 */
class MemoryTraceSource : public TraceSource
{
  public:
    MemoryTraceSource(TraceImage image, std::string name)
        : MemoryTraceSource(std::move(image), std::move(name), 0,
                            ~std::uint64_t{0})
    {
    }

    /**
     * Cursor over instructions [@p begin, @p end) of @p image, both
     * clamped to the image size. reset() rewinds to @p begin and
     * length() is the region length, so the region behaves like a
     * complete TraceSource (oracle builds, BundleWalker, SimEngine).
     */
    MemoryTraceSource(TraceImage image, std::string name,
                      std::uint64_t begin, std::uint64_t end)
        : image_(std::move(image)), name_(std::move(name))
    {
        const std::uint64_t size = image_->size();
        begin_ = begin < size ? begin : size;
        end_ = end < size ? end : size;
        if (end_ < begin_)
            end_ = begin_;
        pos_ = begin_;
    }

    /** Materialize @p src and wrap the result. */
    static MemoryTraceSource capture(TraceSource &src)
    {
        return MemoryTraceSource(materializeTrace(src), src.name());
    }

    void reset() override { pos_ = begin_; }

    /** Zero-copy run straight out of the shared image: the hottest
     *  consumer (BundleWalker) reads instructions in place, paying
     *  one virtual call per region instead of per 64 records. */
    const TraceInst *
    acquireRun(std::uint64_t max, std::uint64_t &n) override
    {
        const std::uint64_t avail = end_ - pos_;
        n = avail < max ? avail : max;
        if (n == 0)
            return nullptr;
        const TraceInst *run = image_->data() + pos_;
        pos_ += n;
        return run;
    }

    std::uint64_t length() const override { return end_ - begin_; }
    const std::string &name() const override { return name_; }

    /** O(1) random-access override of the generic replay seek;
     *  @p index is region-relative. */
    bool seekTo(std::uint64_t index) override
    {
        if (index > length())
            return false;
        pos_ = begin_ + index;
        return true;
    }

    /** A cursor over [@p begin, @p end) of the same image, indexed
     *  relative to this cursor's own region start. */
    MemoryTraceSource region(std::uint64_t begin,
                             std::uint64_t end) const
    {
        const std::uint64_t cap = end < length() ? end : length();
        return MemoryTraceSource(image_, name_, begin_ + begin,
                                 begin_ + cap);
    }

    /** The shared storage, for further cursors over the same trace. */
    const TraceImage &image() const { return image_; }

  private:
    TraceImage image_;
    std::string name_;
    std::uint64_t begin_ = 0;
    std::uint64_t end_ = 0;
    std::size_t pos_ = 0;
};

} // namespace acic

#endif // ACIC_TRACE_MEMORY_HH
