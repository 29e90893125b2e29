#include "frontend/bundle.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace acic {

namespace {

void
saveInst(Serializer &s, const TraceInst &inst)
{
    s.u64(inst.pc);
    s.u64(inst.nextPc);
    s.u8(static_cast<std::uint8_t>(inst.kind));
    s.b(inst.taken);
}

void
loadInst(Deserializer &d, TraceInst &inst)
{
    inst.pc = d.u64();
    inst.nextPc = d.u64();
    const std::uint8_t kind = d.u8();
    if (kind > static_cast<std::uint8_t>(BranchKind::Return))
        throw SerializeError("checkpoint branch kind out of range "
                             "(corrupt payload)");
    inst.kind = static_cast<BranchKind>(kind);
    inst.taken = d.b();
}

} // namespace

BundleWalker::BundleWalker(TraceSource &source, unsigned width)
    : source_(source), width_(width)
{
    ACIC_ASSERT(width_ >= 1 && width_ <= Bundle::kMaxInsts,
                "bundle width out of range");
}

void
BundleWalker::reset()
{
    source_.reset();
    havePending_ = false;
    exhausted_ = false;
    emitted_ = 0;
    consumed_ = 0;
    run_ = nullptr;
    runLen_ = 0;
    runPos_ = 0;
}

bool
BundleWalker::pullInst(TraceInst &out)
{
    if (runPos_ == runLen_) {
        // One run over as much of the source's remainder as it
        // hands out; none means the trace is exhausted.
        runPos_ = 0;
        run_ = source_.acquireRun(~std::uint64_t{0}, runLen_);
        if (run_ == nullptr || runLen_ == 0) {
            runLen_ = 0;
            return false;
        }
    }
    out = run_[runPos_++];
    return true;
}

void
BundleWalker::save(Serializer &s) const
{
    s.u64(consumed_);
    saveInst(s, pending_);
    s.b(havePending_);
    s.b(exhausted_);
    s.u64(emitted_);
}

void
BundleWalker::load(Deserializer &d)
{
    const std::uint64_t consumed = d.u64();
    if (!source_.seekTo(consumed))
        throw SerializeError(
            "checkpoint trace cursor position " +
            std::to_string(consumed) +
            " lies beyond the trace (length " +
            std::to_string(source_.length()) + ")");
    consumed_ = consumed;
    loadInst(d, pending_);
    havePending_ = d.b();
    exhausted_ = d.b();
    emitted_ = d.u64();
    // The read-ahead run is walker-internal and not checkpointed;
    // the freshly sought source refills it on the next pull.
    run_ = nullptr;
    runLen_ = 0;
    runPos_ = 0;
}

bool
BundleWalker::next(Bundle &out)
{
    if (!havePending_) {
        if (exhausted_ || !pullInst(pending_)) {
            exhausted_ = true;
            return false;
        }
        ++consumed_;
        havePending_ = true;
    }

    out.blk = blockOf(pending_.pc);
    out.pc = pending_.pc;
    out.count = 0;

    for (;;) {
        out.insts[out.count++] = pending_;
        const TraceInst current = pending_;
        havePending_ = pullInst(pending_);
        if (havePending_)
            ++consumed_;
        if (!havePending_) {
            exhausted_ = true;
            break;
        }
        // A redirect (taken control transfer) ends the fetch group.
        if (current.redirects())
            break;
        // Sequential flow: stop at block boundary or width.
        if (blockOf(current.nextPc) != out.blk ||
            out.count >= width_) {
            break;
        }
    }
    ++emitted_;
    return true;
}

} // namespace acic
