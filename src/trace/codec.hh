/**
 * @file
 * The one record codec. Every trace byte in the repo — the
 * `.acictrace` payload on disk (trace/io.hh) and in memory
 * (trace/memory.hh), the framed `.acis` stream
 * payload (trace/streaming.hh), and the native re-import path
 * (trace/import/) — is encoded and decoded here, so the Belady
 * oracle pass and the timing pass can never see different demand
 * streams because two decoders drifted apart.
 *
 * Record encoding. Each record starts with a tag byte:
 *
 *   bits 0-2  BranchKind
 *   bit  3    taken
 *   bit  4    pc-linked: pc equals the previous record's nextPc
 *   bit  5    sequential: nextPc equals pc + 4
 *
 * followed by up to two zigzag-varint deltas: the pc delta from the
 * previous record's nextPc (absent when pc-linked) and the nextPc
 * delta from pc + 4 (absent when sequential). The previous nextPc is
 * the *chain state*: a record cannot be decoded without it, which is
 * why index checkpoints and stream frames both carry a seed. A record
 * is 1 to kMaxRecordBytes (21) bytes; synthetic streams are connected
 * chains of mostly sequential instructions, so the common record is
 * the tag byte alone.
 *
 * `.acictrace` header (little-endian):
 *
 *   offset  size  field
 *   0       4     magic "ACIC"
 *   4       2     version (kMinVersion..kVersion, currently 2)
 *   6       2     flags (kFlagHasIndex)
 *   8       8     instruction count (patched on close)
 *   16      4     workload-name length N
 *   20      N     workload name (no terminator)
 *   20+N    ...   records
 *
 * Decode failures follow the trace/errors.hh contract: a corrupt
 * record or header raises TraceFormatError, input that ends early
 * raises TraceTruncatedError, both carrying the byte offset.
 */

#ifndef ACIC_TRACE_CODEC_HH
#define ACIC_TRACE_CODEC_HH

#include <cstdint>
#include <functional>
#include <istream>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hh"
#include "trace/trace.hh"

namespace acic {

/** Format constants shared by the codec, the file reader and writer,
 *  and tests. */
struct TraceFormat
{
    static constexpr std::uint32_t kMagic = 0x43494341; // "ACIC"
    /** Version written by TraceWriter (record payload + index
     *  footer). */
    static constexpr std::uint16_t kVersion = 2;
    /** Oldest version readers still accept (footerless payload). */
    static constexpr std::uint16_t kMinVersion = 1;
    /** Bytes of the header before the workload name. */
    static constexpr std::size_t kHeaderBytes = 20;

    static constexpr std::uint8_t kKindMask = 0x07;
    static constexpr std::uint8_t kTakenBit = 0x08;
    static constexpr std::uint8_t kLinkedBit = 0x10;
    static constexpr std::uint8_t kSequentialBit = 0x20;
    /** Worst-case record: tag byte + two 10-byte varints. */
    static constexpr std::size_t kMaxRecordBytes = 21;

    /** Header flag: an index footer follows the records. */
    static constexpr std::uint16_t kFlagHasIndex = 0x0001;
    /** Trailer magic "INDX" closing the index footer. */
    static constexpr std::uint32_t kIndexMagic = 0x58444e49;
    /** Instructions per index checkpoint (writer default). */
    static constexpr std::uint64_t kIndexInterval = 1u << 16;
    /** Bytes of one checkpoint entry / of the footer trailer. */
    static constexpr std::size_t kCheckpointBytes = 16;
    static constexpr std::size_t kTrailerBytes = 16;

    /** Canonical file suffix. */
    static const char *suffix() { return ".acictrace"; }
};

/** Zigzag encode a signed delta into an unsigned varint payload. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/**
 * A byte supplier: copy up to n bytes into dst and return how many
 * were copied, short only at the end of the input.
 */
using ByteRead = std::function<std::size_t(void *dst, std::size_t n)>;

/** A ByteRead over @p in, which must outlive it. It clears a latched
 *  eofbit first, so a read after a seek is not refused. */
ByteRead readFrom(std::istream &in);

/** The decoded `.acictrace` header. */
struct TraceHeader
{
    std::uint16_t version = 0;
    std::uint16_t flags = 0;
    std::uint64_t instructions = 0;
    std::string name;

    /** Header bytes, i.e. the file offset of the first record. */
    std::uint64_t bytes() const
    {
        return TraceFormat::kHeaderBytes + name.size();
    }
};

/** Append a current-version header for @p name with flags and count
 *  zero (TraceWriter patches both on close). */
void encodeTraceHeader(const std::string &name,
                       std::vector<std::uint8_t> &out);

/**
 * Read and validate a header through @p read, starting at offset 0.
 * Throws TraceFormatError on a bad magic, an unsupported version or
 * an implausible name length, and TraceTruncatedError when the input
 * ends inside the header; @p label (a path) prefixes the message.
 */
TraceHeader decodeTraceHeader(const ByteRead &read,
                              const std::string &label);

/**
 * Record encoder/decoder over one varint chain. The chain state is
 * the previous record's nextPc: 0 at a payload start, the seed at a
 * frame start, the stored value at an index checkpoint.
 */
class RecordCodec
{
  public:
    /** @p label prefixes decode error messages (e.g. a path). */
    explicit RecordCodec(Addr prev_next = 0, std::string label = "")
        : prevNext_(prev_next), label_(std::move(label))
    {
    }

    Addr prevNext() const { return prevNext_; }

    /** Append the encodings of @p insts[0, @p n) to @p out. */
    void encode(const TraceInst *insts, std::size_t n,
                std::vector<std::uint8_t> &out);

    /** Append the encoding of @p inst to @p out. */
    void encode(const TraceInst &inst, std::vector<std::uint8_t> &out)
    {
        encode(&inst, 1, out);
    }

    /**
     * Decode up to @p n records from [@p p, @p end) into @p out,
     * advancing @p p past them. Records decode with no per-byte
     * bounds checks while a worst-case record fits, then through one
     * bounds-checked tail. Stops early, consuming nothing of it, at a
     * record that does not fit in the span — the caller decides
     * whether more bytes can follow or the input is truncated.
     * @param offset the stream offset of *p, for error messages.
     * @return records decoded.
     * @throws TraceFormatError on an invalid branch kind or a varint
     *         longer than 10 bytes.
     */
    std::size_t decode(const std::uint8_t *&p, const std::uint8_t *end,
                       std::uint64_t offset, TraceInst *out,
                       std::size_t n);

  private:
    Addr prevNext_;
    std::string label_;
};

} // namespace acic

#endif // ACIC_TRACE_CODEC_HH
