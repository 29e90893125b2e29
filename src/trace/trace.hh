/**
 * @file
 * Instruction-trace abstraction. The paper drives its simulator with
 * QEMU full-system traces; this repo drives it with deterministic
 * synthetic traces exposing the same record content: instruction PC,
 * control-flow kind, direction, and the PC that follows.
 */

#ifndef ACIC_TRACE_TRACE_HH
#define ACIC_TRACE_TRACE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace acic {

/** Control-flow class of a traced instruction. */
enum class BranchKind : std::uint8_t
{
    None,     ///< ordinary sequential instruction
    Cond,     ///< conditional direct branch
    Direct,   ///< unconditional direct jump
    Call,     ///< direct call
    Return,   ///< function return
};

/** One dynamic instruction. All instructions are 4 bytes. */
struct TraceInst
{
    /** Byte address of the instruction. */
    Addr pc = 0;
    /** PC of the *next* dynamic instruction (fallthrough or target). */
    Addr nextPc = 0;
    /** Control-flow kind. */
    BranchKind kind = BranchKind::None;
    /** Whether a Cond branch was taken (true for other taken kinds). */
    bool taken = false;

    /** Bytes of one instruction; the generator emits fixed 4 B. */
    static constexpr unsigned kInstBytes = 4;

    /** True for any control-flow instruction. */
    bool isBranch() const { return kind != BranchKind::None; }
    /** True when the next PC is not pc + 4. */
    bool redirects() const { return nextPc != pc + kInstBytes; }
};

/**
 * A fixed-capacity struct-of-arrays instruction buffer, filled 64
 * records at a time by TraceSource::decodeBatch(), one virtual call
 * per 64 instructions.
 */
struct InstBatch
{
    static constexpr unsigned kCapacity = 64;

    Addr pc[kCapacity];
    Addr nextPc[kCapacity];
    BranchKind kind[kCapacity];
    bool taken[kCapacity];
    /** Valid records (prefix of the arrays). */
    unsigned count = 0;

    void set(unsigned i, const TraceInst &inst)
    {
        pc[i] = inst.pc;
        nextPc[i] = inst.nextPc;
        kind[i] = inst.kind;
        taken[i] = inst.taken;
    }

    TraceInst get(unsigned i) const
    {
        TraceInst inst;
        inst.pc = pc[i];
        inst.nextPc = nextPc[i];
        inst.kind = kind[i];
        inst.taken = taken[i];
        return inst;
    }
};

/**
 * A re-iterable stream of dynamic instructions.
 *
 * Oracle passes (Belady OPT, reuse profiling) replay the stream, so
 * implementations must return the identical sequence after reset().
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Rewind to the first instruction. */
    virtual void reset() = 0;

    /**
     * Pull: return a pointer to the next contiguous run of up to
     * @p max instructions, set @p n to its length, and consume those
     * instructions from the stream (a later next() or decodeBatch()
     * continues after the run). Returns nullptr with n = 0 once the
     * stream is exhausted. The pointer stays valid at least until
     * the next call that consumes records. Every source implements
     * it; it is the one pull the simulator's consumers use.
     */
    virtual const TraceInst *acquireRun(std::uint64_t max,
                                        std::uint64_t &n) = 0;

    /**
     * Produce the next instruction. The default copies a one-record
     * acquireRun().
     * @return false when the trace is exhausted.
     */
    virtual bool
    next(TraceInst &out)
    {
        std::uint64_t n = 0;
        const TraceInst *run = acquireRun(1, n);
        if (run == nullptr)
            return false;
        out = *run;
        return true;
    }

    /**
     * Fill @p out with the next up-to-64 instructions; the batched
     * equivalent of next(), consuming the identical stream (a
     * decodeBatch after N next() calls continues at instruction N,
     * and vice versa). The default copies from acquireRun().
     * @return out.count (0 when the trace is exhausted).
     */
    virtual unsigned
    decodeBatch(InstBatch &out)
    {
        out.count = 0;
        while (out.count < InstBatch::kCapacity) {
            std::uint64_t n = 0;
            const TraceInst *run =
                acquireRun(InstBatch::kCapacity - out.count, n);
            if (run == nullptr)
                break;
            for (std::uint64_t i = 0; i < n; ++i)
                out.set(out.count++, run[i]);
        }
        return out.count;
    }

    /** Total dynamic instructions the source will emit. */
    virtual std::uint64_t length() const = 0;

    /** Workload name, e.g. "web_search". */
    virtual const std::string &name() const = 0;

    /**
     * Position the stream so the following next() emits instruction
     * @p index (0-based within this source's region). Checkpoint
     * resume uses this to re-align a fresh cursor with a serialized
     * BundleWalker. The default implementation replays from reset()
     * — always correct, O(index); MemoryTraceSource overrides it
     * with an O(64K) seek through the image's index checkpoints.
     * @return true when the stream now holds exactly
     *         length() - index remaining instructions; false when
     *         @p index lies past the end (index == length() is a
     *         valid position: the exhausted stream).
     */
    virtual bool
    seekTo(std::uint64_t index)
    {
        reset();
        TraceInst scratch;
        for (std::uint64_t i = 0; i < index; ++i)
            if (!next(scratch))
                return false;
        return true;
    }
};

} // namespace acic

#endif // ACIC_TRACE_TRACE_HH
