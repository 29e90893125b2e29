#include "trace/import/champsim.hh"

#include <cstring>

#include "common/logging.hh"

namespace acic {

namespace {

/** Decoded 64-byte record (only the fields the importer consumes). */
struct Record
{
    std::uint64_t ip = 0;
    bool isBranch = false;
    bool taken = false;
    std::uint8_t dst[2] = {};
    std::uint8_t src[4] = {};
};

Record
decode(const std::uint8_t *raw)
{
    Record r;
    r.ip = loadLE<std::uint64_t>(raw);
    r.isBranch = raw[8] != 0;
    r.taken = raw[9] != 0;
    std::memcpy(r.dst, raw + 10, sizeof(r.dst));
    std::memcpy(r.src, raw + 12, sizeof(r.src));
    return r;
}

bool
contains(const std::uint8_t *regs, std::size_t n, std::uint8_t reg)
{
    for (std::size_t i = 0; i < n; ++i)
        if (regs[i] == reg)
            return true;
    return false;
}

/**
 * ChampSim's branch taxonomy, folded onto BranchKind: direct and
 * indirect jumps both become Direct, direct and indirect calls both
 * become Call; a branch matching no rule (unusual register mixes)
 * falls back to Direct so it still redirects.
 */
BranchKind
classify(const Record &r)
{
    if (!r.isBranch)
        return BranchKind::None;
    const bool reads_sp = contains(r.src, 4,
                                   ChampSimImporter::kRegStackPointer);
    const bool reads_ip =
        contains(r.src, 4, ChampSimImporter::kRegInstructionPointer);
    const bool reads_flags =
        contains(r.src, 4, ChampSimImporter::kRegFlags);
    const bool writes_ip =
        contains(r.dst, 2, ChampSimImporter::kRegInstructionPointer);
    const bool writes_sp =
        contains(r.dst, 2, ChampSimImporter::kRegStackPointer);

    if (reads_sp && !reads_ip && writes_ip)
        return BranchKind::Return;
    if (reads_sp && reads_ip && writes_ip && writes_sp)
        return BranchKind::Call;
    if (reads_flags && writes_ip)
        return BranchKind::Cond;
    (void)writes_ip;
    return BranchKind::Direct;
}

TraceInst
toInst(const Record &r, Addr next_pc)
{
    TraceInst inst;
    inst.pc = r.ip;
    inst.nextPc = next_pc;
    inst.kind = classify(r);
    inst.taken = r.isBranch && r.taken;
    return inst;
}

/** Printable-ASCII share used to reject text input. */
bool
looksLikeText(const std::uint8_t *head, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t c = head[i];
        if (c != '\t' && c != '\n' && c != '\r' &&
            (c < 0x20 || c > 0x7e))
            return false;
    }
    return n > 0;
}

} // namespace

bool
ChampSimImporter::probe(const std::uint8_t *head, std::size_t n,
                        bool complete) const
{
    (void)complete;
    // Binary fallback: at least one whole record and not plain text.
    return n >= kRecordBytes && !looksLikeText(head, n);
}

std::uint64_t
ChampSimImporter::convert(InputStream &in, TraceWriter &out) const
{
    std::uint8_t raw[kRecordBytes];
    Record prev;
    bool have_prev = false;
    for (;;) {
        const std::size_t got = in.read(raw, kRecordBytes);
        if (got == 0)
            break;
        if (got != kRecordBytes)
            ACIC_FATAL("truncated ChampSim trace (file size is not "
                       "a whole number of 64-byte records)");
        const Record cur = decode(raw);
        if (have_prev)
            out.append(toInst(prev, cur.ip));
        prev = cur;
        have_prev = true;
    }
    if (have_prev)
        out.append(
            toInst(prev, prev.ip + TraceInst::kInstBytes));
    return out.written();
}

} // namespace acic
