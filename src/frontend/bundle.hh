/**
 * @file
 * Fetch-bundle formation. The 6-wide fetch unit (Table II) pulls
 * maximal runs of sequential instructions from one block per cycle; a
 * bundle ends at a taken control transfer, a block boundary, or the
 * fetch width. One bundle corresponds to one L1i demand access, so the
 * bundle sequence *is* the demand block-access sequence -- the oracle
 * pass and the timing simulator must agree on it exactly, which is why
 * both use this walker.
 */

#ifndef ACIC_FRONTEND_BUNDLE_HH
#define ACIC_FRONTEND_BUNDLE_HH

#include <cstdint>

#include "common/types.hh"
#include "trace/trace.hh"

namespace acic {

class Serializer;
class Deserializer;

/** One fetch group: up to kMaxInsts instructions from one block. */
struct Bundle
{
    static constexpr unsigned kMaxInsts = 6;

    /** Block all instructions live in. */
    BlockAddr blk = 0;
    /** PC of the first instruction. */
    Addr pc = 0;
    /** Instruction count. */
    std::uint8_t count = 0;
    /** The member instructions (branch metadata for the BP unit). */
    TraceInst insts[kMaxInsts];
};

/** Streams bundles off a TraceSource; deterministic and re-usable. */
class BundleWalker
{
  public:
    /**
     * @param source trace to walk; not owned; must outlive the walker.
     * @param width fetch width (bundle size cap).
     */
    explicit BundleWalker(TraceSource &source,
                          unsigned width = Bundle::kMaxInsts);

    /** Rewind the underlying trace and restart. */
    void reset();

    /** @return false when the trace is exhausted. */
    bool next(Bundle &out);

    /** Bundles produced so far. */
    std::uint64_t bundlesEmitted() const { return emitted_; }

    /**
     * Checkpoint the walker. save() records the number of
     * instructions consumed from the source plus the lookahead
     * state; load() seeks the (fresh) source to that instruction via
     * TraceSource::seekTo() and restores the lookahead, after which
     * next() resumes the identical bundle sequence.
     */
    void save(Serializer &s) const;
    void load(Deserializer &d);

  private:
    /** Hand out the next instruction from the current run, pulling
     *  a new one (TraceSource::acquireRun) when it is drained. The
     *  run is pure read-ahead: consumed_ counts only what the walker
     *  has handed out, so the checkpoint format (and load()'s
     *  seekTo) are untouched — reset()/load() simply drop it. */
    bool pullInst(TraceInst &out);

    TraceSource &source_;
    unsigned width_;
    TraceInst pending_{};
    bool havePending_ = false;
    bool exhausted_ = false;
    std::uint64_t emitted_ = 0;
    /** Instructions handed out (read-ahead not included). */
    std::uint64_t consumed_ = 0;
    /** Read-ahead run out of source_ (not checkpointed). */
    const TraceInst *run_ = nullptr;
    std::uint64_t runLen_ = 0;
    std::uint64_t runPos_ = 0;
};

} // namespace acic

#endif // ACIC_FRONTEND_BUNDLE_HH
