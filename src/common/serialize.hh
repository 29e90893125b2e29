/**
 * @file
 * Versioned binary serialization for checkpoint/resume: a
 * little-endian field-by-field byte stream (never struct memcpy —
 * padding bytes are nondeterministic) with a CRC-32-guarded container
 * format ("ACKP" magic, format version, 4-char payload tag). Every
 * stateful simulator component exposes save(Serializer&) /
 * load(Deserializer&) built on these primitives; SimEngine composes
 * them into a whole-machine snapshot (sim/engine.hh) and the driver
 * persists completed cells and in-flight engines through
 * CheckpointWriter's temp-file+rename atomic publish. The
 * little-endian load/store helpers are also the trace formats'
 * (trace/codec.hh).
 *
 * Failure policy: a checkpoint is either provably intact or rejected
 * loudly. readCheckpointFile() distinguishes truncation, magic,
 * version, tag, and CRC mismatches in its SerializeError message, and
 * Deserializer bounds-checks every read, so a corrupted snapshot can
 * never silently resume into wrong statistics.
 */

#ifndef ACIC_COMMON_SERIALIZE_HH
#define ACIC_COMMON_SERIALIZE_HH

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/sat_counter.hh"

namespace acic {

/** Thrown on any malformed, corrupt, or incompatible checkpoint. */
class SerializeError : public std::runtime_error
{
  public:
    explicit SerializeError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * CRC-32 (IEEE 802.3, reflected) over @p size bytes at @p data. Pass
 * the CRC of the bytes before them as @p crc to continue it, so
 * crc32(b, nb, crc32(a, na)) is the CRC of a followed by b.
 */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t crc = 0);

/** Store @p v at @p p as sizeof(T) little-endian bytes. */
template <typename T>
inline void
storeLE(std::uint8_t *p, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Load a sizeof(T)-byte little-endian integer from @p p. */
template <typename T>
inline T
loadLE(const std::uint8_t *p)
{
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v = static_cast<T>(v | static_cast<T>(p[i]) << (8 * i));
    return v;
}

/** Append @p v to @p buf as sizeof(T) little-endian bytes (the
 *  trace formats' fixed-width header, frame and footer fields). */
template <typename T>
inline void
putLE(std::vector<std::uint8_t> &buf, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/**
 * Little-endian append-only byte sink. Each field claims its bytes
 * with one capacity check and stores them directly; a vector field
 * claims all its elements at once.
 *
 * A serializer built over a Sink streams instead: once a chunk of
 * kChunkBytes has built up, the sink takes it and the buffer starts
 * over, so an image of any size costs one chunk of memory, and the
 * sink reads each chunk while it is still in cache. flush() hands
 * over the rest. bytes() is for buffering serializers.
 */
class Serializer
{
  public:
    /** Receives each chunk of a streaming serializer, in order. */
    using Sink = std::function<void(const std::uint8_t *, std::size_t)>;
    static constexpr std::size_t kChunkBytes = 256 * 1024;

    Serializer() = default;
    explicit Serializer(Sink sink) : sink_(std::move(sink)) {}

    void u8(std::uint8_t v) { *grow(1) = v; }
    void u16(std::uint16_t v) { storeLE(grow(2), v); }
    void u32(std::uint32_t v) { storeLE(grow(4), v); }
    void u64(std::uint64_t v) { storeLE(grow(8), v); }
    void b(bool v) { u8(v ? 1 : 0); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }

    /** Element-count-prefixed vector of unsigned scalars. */
    template <typename T, typename Writer>
    void
    vec(const std::vector<T> &v, Writer &&write_one)
    {
        u64(v.size());
        for (const T &e : v)
            write_one(e);
    }

    void
    vecU8(const std::vector<std::uint8_t> &v)
    {
        u64(v.size());
        raw(v.data(), v.size());
    }

    void
    vecU32(const std::vector<std::uint32_t> &v)
    {
        putAll<std::uint32_t>(v, [](std::uint32_t e) { return e; });
    }

    void
    vecU64(const std::vector<std::uint64_t> &v)
    {
        putAll<std::uint64_t>(v, [](std::uint64_t e) { return e; });
    }

    /**
     * Saturating-counter vector: widths come from construction and
     * are geometry, so only the values travel.
     */
    void
    vecSat(const std::vector<SatCounter> &v)
    {
        putAll<std::uint32_t>(
            v, [](const SatCounter &c) { return c.value(); });
    }

    /** Append @p n bytes as they are (no length prefix). */
    void
    raw(const void *data, std::size_t n)
    {
        if (n > 0)
            std::memcpy(grow(n), data, n);
    }

    /** Bytes written so far, streamed ones included. */
    std::size_t size() const { return flushed_ + len_; }

    /** Hand the buffered bytes of a streaming serializer to its sink. */
    void flush();

    /** The written bytes (trims the writable region to them). */
    const std::vector<std::uint8_t> &
    bytes()
    {
        buf_.resize(len_);
        return buf_;
    }

  private:
    /** Claim the next @p n bytes (one check on the fast path). */
    std::uint8_t *
    grow(std::size_t n)
    {
        if (buf_.size() - len_ < n)
            extend(n);
        std::uint8_t *p = buf_.data() + len_;
        len_ += n;
        return p;
    }

    /** Make the writable region hold @p n more bytes. */
    void extend(std::size_t n);

    /**
     * Count-prefixed @p v, each element stored as the W @p word(e):
     * one capacity check for the whole vector.
     */
    template <typename W, typename T, typename Word>
    void
    putAll(const std::vector<T> &v, Word word)
    {
        u64(v.size());
        if (v.empty())
            return;
        std::uint8_t *p = grow(v.size() * sizeof(W));
        for (const T &e : v) {
            storeLE<W>(p, word(e));
            p += sizeof(W);
        }
    }

    /** buf_.size() is the writable region; len_ bytes are written. */
    std::vector<std::uint8_t> buf_;
    std::size_t len_ = 0;
    Sink sink_;
    std::size_t flushed_ = 0; ///< bytes already handed to sink_
};

/** Bounds-checked little-endian reader over a byte buffer. */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Deserializer(const std::vector<std::uint8_t> &buf)
        : Deserializer(buf.data(), buf.size())
    {
    }

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw SerializeError("checkpoint bool field out of "
                                 "range (corrupt payload)");
        return v != 0;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    /** Read an element count, sanity-bounded by remaining bytes. */
    std::size_t
    count(std::size_t min_bytes_per_element = 1)
    {
        const std::uint64_t n = u64();
        if (min_bytes_per_element > 0 &&
            n > remaining() / min_bytes_per_element)
            throw SerializeError(
                "checkpoint element count exceeds payload size "
                "(truncated or corrupt)");
        return static_cast<std::size_t>(n);
    }

    std::vector<std::uint8_t>
    vecU8()
    {
        const std::size_t n = count(1);
        std::vector<std::uint8_t> v(n);
        need(n);
        std::memcpy(v.data(), data_ + pos_, n);
        pos_ += n;
        return v;
    }

    std::vector<std::uint32_t>
    vecU32()
    {
        std::vector<std::uint32_t> v(count(4));
        getAll<std::uint32_t>(v, [](auto &e, auto w) { e = w; });
        return v;
    }

    std::vector<std::uint64_t>
    vecU64()
    {
        std::vector<std::uint64_t> v(count(8));
        getAll<std::uint64_t>(v, [](auto &e, auto w) { e = w; });
        return v;
    }

    /**
     * Restore counter values into an already-constructed vector
     * (widths are geometry); the length must match.
     */
    void
    vecSat(std::vector<SatCounter> &v)
    {
        const std::size_t n = count(4);
        if (n != v.size())
            throw SerializeError(
                "checkpoint counter-table size mismatch (geometry "
                "differs from the running configuration)");
        getAll<std::uint32_t>(
            v, [](SatCounter &c, std::uint32_t w) { c.set(w); });
    }

    /**
     * Assert a geometry field matches the running construction —
     * checkpoints restore state into identically-built objects, never
     * reshape them.
     */
    void
    expectGeometry(const char *what, std::uint64_t expected)
    {
        const std::uint64_t got = u64();
        if (got != expected)
            throw SerializeError(
                std::string("checkpoint geometry mismatch for ") +
                what + ": snapshot has " + std::to_string(got) +
                ", running configuration has " +
                std::to_string(expected));
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

    /** Require the stream to be fully consumed. */
    void
    finish()
    {
        if (!done())
            throw SerializeError(
                "checkpoint payload has " +
                std::to_string(remaining()) +
                " unread trailing bytes (format mismatch)");
    }

  private:
    /** One bounds check, then the field's little-endian bytes. */
    template <typename T>
    T
    get()
    {
        need(sizeof(T));
        const T v = loadLE<T>(data_ + pos_);
        pos_ += sizeof(T);
        return v;
    }

    /**
     * Hand each element of @p v, with the next little-endian word of
     * type W, to @p set: one bounds check covers the whole vector.
     * The caller checked v.size() against count(sizeof(W)), so the
     * product cannot overflow.
     */
    template <typename W, typename T, typename Set>
    void
    getAll(std::vector<T> &v, Set set)
    {
        need(v.size() * sizeof(W));
        for (T &e : v) {
            set(e, loadLE<W>(data_ + pos_));
            pos_ += sizeof(W);
        }
    }

    void
    need(std::uint64_t n)
    {
        if (n > size_ - pos_)
            throw SerializeError(
                "checkpoint payload truncated: wanted " +
                std::to_string(n) + " bytes, " +
                std::to_string(size_ - pos_) + " remain");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Container framing shared by every on-disk checkpoint file. */
struct CheckpointFormat
{
    /** File magic ("ACKP"). */
    static constexpr char kMagic[4] = {'A', 'C', 'K', 'P'};
    /** Container format version; bump on any layout change. */
    static constexpr std::uint16_t kVersion = 1;
    /** Header bytes: magic + version + tag + length + crc. */
    static constexpr std::size_t kHeaderBytes = 4 + 2 + 4 + 8 + 4;
};

/**
 * Publishes one "ACKP" container (magic, version, 4-char tag, payload
 * length, CRC-32 of the payload) at a path. The payload streams
 * through payload() into a pid+sequence-unique temp file beside the
 * path; commit() writes the header, closes the file and renames it
 * over the path, so a crashed writer leaves either the old file or
 * nothing — never a partial checkpoint. A writer that is destroyed
 * uncommitted, or whose commit() fails, removes its temp file.
 */
class CheckpointWriter
{
  public:
    /** Throws SerializeError when the temp file cannot be opened. */
    CheckpointWriter(const std::string &path, const char tag[4]);
    ~CheckpointWriter();
    CheckpointWriter(const CheckpointWriter &) = delete;
    CheckpointWriter &operator=(const CheckpointWriter &) = delete;

    Serializer &payload() { return payload_; }

    /** Publish the container; throws SerializeError on any I/O
     *  failure. */
    void commit();

  private:
    /** The payload's sink: checksum and write one chunk. */
    void append(const std::uint8_t *data, std::size_t n);

    std::string path_;
    std::string tmp_;
    char tag_[4];
    std::FILE *file_ = nullptr;
    bool ok_ = true; ///< every write so far succeeded
    bool committed_ = false;
    std::uint32_t crc_ = 0;
    Serializer payload_;
};

/**
 * Read and validate a checkpoint container written by
 * CheckpointWriter. Throws SerializeError naming the specific
 * failure — truncation, bad magic, unsupported version, tag
 * mismatch, payload length, or CRC mismatch — and the offending
 * path. Returns the verified payload bytes.
 */
std::vector<std::uint8_t>
readCheckpointFile(const std::string &path, const char tag[4]);

} // namespace acic

#endif // ACIC_COMMON_SERIALIZE_HH
