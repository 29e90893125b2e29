#include "trace/codec.hh"

#include "trace/errors.hh"

namespace acic {

namespace {

/** Write @p v as a varint at @p p; returns the byte after it. */
inline std::uint8_t *
putVarint(std::uint8_t *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
}

std::string
labeled(const std::string &label, const std::string &msg)
{
    return label.empty() ? msg : label + ": " + msg;
}

/** Where one decode call started: error offsets count from here. */
struct Span
{
    const std::uint8_t *begin;
    std::uint64_t offset;
    const std::string &label;
};

[[noreturn, gnu::cold]] void
corrupt(const Span &span, const std::uint8_t *at, const std::string &what)
{
    throw TraceFormatError(
        labeled(span.label, "corrupt trace record (" + what + ")"),
        span.offset + static_cast<std::uint64_t>(at - span.begin));
}

/** Take one varint; false when the span ends inside it. Unchecked
 *  (@p kChecked false) the caller guarantees a worst-case record
 *  fits, and the runaway check alone bounds the bytes read. */
template <bool kChecked>
inline bool
takeVarint(const std::uint8_t *&p, const std::uint8_t *end,
           std::uint64_t &v, const Span &span)
{
    v = 0;
    for (unsigned shift = 0;; shift += 7) {
        if (shift > 63)
            corrupt(span, p, "runaway varint continuation");
        if (kChecked && p == end)
            return false;
        const std::uint8_t b = *p++;
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return true;
    }
}

/** Decode one record after chain state @p prev into @p out; false,
 *  leaving @p prev alone, when the span ends inside it. */
template <bool kChecked>
inline bool
decodeRecord(const std::uint8_t *&p, const std::uint8_t *end,
             Addr &prev, TraceInst &out, const Span &span)
{
    const std::uint8_t tag = *p++;
    const unsigned kind = tag & TraceFormat::kKindMask;
    if (kind > static_cast<unsigned>(BranchKind::Return))
        corrupt(span, p - 1, "bad branch kind " + std::to_string(kind));
    std::uint64_t delta = 0;
    Addr pc = prev;
    if (!(tag & TraceFormat::kLinkedBit)) {
        if (!takeVarint<kChecked>(p, end, delta, span))
            return false;
        pc += static_cast<Addr>(zigzagDecode(delta));
    }
    Addr next_pc = pc + TraceInst::kInstBytes;
    if (!(tag & TraceFormat::kSequentialBit)) {
        if (!takeVarint<kChecked>(p, end, delta, span))
            return false;
        next_pc += static_cast<Addr>(zigzagDecode(delta));
    }
    out.kind = static_cast<BranchKind>(kind);
    out.taken = (tag & TraceFormat::kTakenBit) != 0;
    out.pc = pc;
    out.nextPc = next_pc;
    prev = next_pc;
    return true;
}

} // namespace

// ------------------------------------------------------------- header

ByteRead
readFrom(std::istream &in)
{
    return [&in](void *dst, std::size_t n) {
        in.clear();
        in.read(static_cast<char *>(dst),
                static_cast<std::streamsize>(n));
        return static_cast<std::size_t>(in.gcount());
    };
}

void
encodeTraceHeader(const std::string &name,
                  std::vector<std::uint8_t> &out)
{
    putLE<std::uint32_t>(out, TraceFormat::kMagic);
    putLE<std::uint16_t>(out, TraceFormat::kVersion);
    putLE<std::uint16_t>(out, 0); // flags, patched on close
    putLE<std::uint64_t>(out, 0); // count, patched on close
    putLE<std::uint32_t>(out, name.size());
    out.insert(out.end(), name.begin(), name.end());
}

TraceHeader
decodeTraceHeader(const ByteRead &read, const std::string &label)
{
    std::uint8_t fixed[TraceFormat::kHeaderBytes];
    const std::size_t got = read(fixed, sizeof(fixed));
    if (got >= 4 &&
        loadLE<std::uint32_t>(fixed) != TraceFormat::kMagic)
        throw TraceFormatError(
            labeled(label, "not an ACIC trace (bad magic)"), 0);
    if (got < sizeof(fixed))
        throw TraceTruncatedError(
            labeled(label, "trace header truncated"), got,
            sizeof(fixed), got);
    TraceHeader h;
    h.version = loadLE<std::uint16_t>(fixed + 4);
    if (h.version < TraceFormat::kMinVersion ||
        h.version > TraceFormat::kVersion)
        throw TraceFormatError(
            labeled(label, "unsupported trace-format version " +
                               std::to_string(h.version)),
            4);
    h.flags = loadLE<std::uint16_t>(fixed + 6);
    h.instructions = loadLE<std::uint64_t>(fixed + 8);
    const auto name_len = loadLE<std::uint32_t>(fixed + 16);
    if (name_len > (1u << 20))
        throw TraceFormatError(
            labeled(label, "corrupt trace header (name length " +
                               std::to_string(name_len) + ")"),
            16);
    h.name.resize(name_len);
    const std::size_t name_got = read(h.name.data(), name_len);
    if (name_got < name_len)
        throw TraceTruncatedError(
            labeled(label, "trace header truncated inside the "
                           "workload name"),
            sizeof(fixed) + name_got, name_len, name_got);
    return h;
}

// -------------------------------------------------------- RecordCodec

void
RecordCodec::encode(const TraceInst *insts, std::size_t n,
                    std::vector<std::uint8_t> &out)
{
    // Records go through a raw pointer into a stack buffer (byte
    // stores through the vector would alias every field and reload
    // them per byte) and are appended a buffer at a time.
    constexpr std::size_t kChunk = 128;
    std::uint8_t buf[kChunk * TraceFormat::kMaxRecordBytes];
    Addr prev = prevNext_;
    while (n > 0) {
        const std::size_t take = n < kChunk ? n : kChunk;
        std::uint8_t *p = buf;
        for (std::size_t i = 0; i < take; ++i) {
            const TraceInst &inst = insts[i];
            const bool linked = inst.pc == prev;
            const Addr seq_next = inst.pc + TraceInst::kInstBytes;
            const bool sequential = inst.nextPc == seq_next;

            std::uint8_t tag = static_cast<std::uint8_t>(inst.kind) &
                               TraceFormat::kKindMask;
            if (inst.taken)
                tag |= TraceFormat::kTakenBit;
            if (linked)
                tag |= TraceFormat::kLinkedBit;
            if (sequential)
                tag |= TraceFormat::kSequentialBit;
            *p++ = tag;

            if (!linked)
                p = putVarint(p, zigzagEncode(static_cast<std::int64_t>(
                                     inst.pc - prev)));
            if (!sequential)
                p = putVarint(p, zigzagEncode(static_cast<std::int64_t>(
                                     inst.nextPc - seq_next)));
            prev = inst.nextPc;
        }
        out.insert(out.end(), buf, p);
        insts += take;
        n -= take;
    }
    prevNext_ = prev;
}

std::size_t
RecordCodec::decode(const std::uint8_t *&pos, const std::uint8_t *end,
                    std::uint64_t offset, TraceInst *out, std::size_t n)
{
    const Span span{pos, offset, label_};
    const std::uint8_t *p = pos;
    Addr prev = prevNext_;
    std::size_t i = 0;
    // Fast path: while a worst-case record fits, decode with no
    // per-byte bounds checks — the bulk of every buffer and frame,
    // since typical records are 1-3 bytes.
    while (i < n && static_cast<std::size_t>(end - p) >=
                        TraceFormat::kMaxRecordBytes)
        decodeRecord<false>(p, end, prev, out[i++], span);
    // Bounds-checked tail: the last few records of the span. A
    // record the span cuts short is left for the caller.
    for (; i < n && p < end; ++i) {
        const std::uint8_t *const rec = p;
        if (!decodeRecord<true>(p, end, prev, out[i], span)) {
            p = rec;
            break;
        }
    }
    pos = p;
    prevNext_ = prev;
    return i;
}

} // namespace acic
