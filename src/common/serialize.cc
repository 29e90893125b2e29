#include "common/serialize.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace acic {

constexpr char CheckpointFormat::kMagic[4];
constexpr std::uint16_t CheckpointFormat::kVersion;
constexpr std::size_t CheckpointFormat::kHeaderBytes;
constexpr std::size_t Serializer::kChunkBytes;

namespace {

/**
 * Slicing-by-8 tables for the reflected IEEE polynomial: table[0] is
 * the classic byte-at-a-time table, and table[k][i] is the CRC of
 * byte i followed by k zero bytes, so eight table lookups advance
 * the CRC over eight input bytes at once.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables
buildCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t crc)
{
    static const CrcTables t = buildCrcTables();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    for (; size >= 8; size -= 8, p += 8) {
        const std::uint32_t lo = loadLE<std::uint32_t>(p) ^ c;
        const std::uint32_t hi = loadLE<std::uint32_t>(p + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; size > 0; --size, ++p)
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
Serializer::flush()
{
    if (sink_ && len_ > 0) {
        sink_(buf_.data(), len_);
        flushed_ += len_;
        len_ = 0;
    }
}

void
Serializer::extend(std::size_t n)
{
    if (sink_ && len_ + n > kChunkBytes) {
        flush();
        if (buf_.size() >= n)
            return;
    }
    // Doubling copies each byte O(1) times.
    buf_.resize(std::max(len_ + n, 2 * buf_.size()));
}

CheckpointWriter::CheckpointWriter(const std::string &path,
                                   const char tag[4])
    : path_(path), tmp_(path + ".tmp"),
      payload_([this](const std::uint8_t *data, std::size_t n) {
          append(data, n);
      })
{
    std::memcpy(tag_, tag, sizeof(tag_));
    // Unique temp name per process and writer: shard processes
    // sharing a checkpoint directory must never interleave writes
    // into one temp file (the rename itself is atomic either way).
    static std::atomic<std::uint64_t> tmpSeq{0};
#if defined(__unix__) || defined(__APPLE__)
    tmp_ += "." + std::to_string(static_cast<long>(getpid()));
#endif
    tmp_ += "." + std::to_string(tmpSeq.fetch_add(1));
    file_ = std::fopen(tmp_.c_str(), "wb");
    if (file_ == nullptr)
        throw SerializeError("cannot open checkpoint temp file " +
                             tmp_ + " for writing");
    // Room for the header, written once the payload's length and
    // CRC are known.
    const std::uint8_t room[CheckpointFormat::kHeaderBytes] = {};
    ok_ = std::fwrite(room, 1, sizeof(room), file_) == sizeof(room);
}

CheckpointWriter::~CheckpointWriter()
{
    if (file_ != nullptr)
        std::fclose(file_);
    if (!committed_)
        std::remove(tmp_.c_str());
}

void
CheckpointWriter::append(const std::uint8_t *data, std::size_t n)
{
    crc_ = crc32(data, n, crc_);
    ok_ = ok_ && std::fwrite(data, 1, n, file_) == n;
}

void
CheckpointWriter::commit()
{
    payload_.flush();
    Serializer header;
    for (char m : CheckpointFormat::kMagic)
        header.u8(static_cast<std::uint8_t>(m));
    header.u16(CheckpointFormat::kVersion);
    header.raw(tag_, sizeof(tag_));
    header.u64(payload_.size());
    header.u32(crc_);
    const std::vector<std::uint8_t> &h = header.bytes();
    ok_ = ok_ && std::fseek(file_, 0, SEEK_SET) == 0 &&
          std::fwrite(h.data(), 1, h.size(), file_) == h.size();
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    if (!ok_ || !closed)
        throw SerializeError("short write to checkpoint temp file " +
                             tmp_);
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0)
        throw SerializeError("cannot rename checkpoint temp file " +
                             tmp_ + " over " + path_);
    committed_ = true;
}

std::vector<std::uint8_t>
readCheckpointFile(const std::string &path, const char tag[4])
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw SerializeError("cannot open checkpoint file " + path);
    const auto fileBytes = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
    if (fileBytes < CheckpointFormat::kHeaderBytes)
        throw SerializeError(
            "checkpoint file " + path + " is truncated: " +
            std::to_string(fileBytes) + " bytes, header needs " +
            std::to_string(CheckpointFormat::kHeaderBytes));

    std::uint8_t header[CheckpointFormat::kHeaderBytes];
    in.read(reinterpret_cast<char *>(header), sizeof(header));
    if (!in)
        throw SerializeError("cannot read checkpoint file " + path);
    Deserializer d(header, sizeof(header));
    for (char m : CheckpointFormat::kMagic)
        if (d.u8() != static_cast<std::uint8_t>(m))
            throw SerializeError("checkpoint file " + path +
                                 " has bad magic (not an ACKP "
                                 "checkpoint)");
    const std::uint16_t version = d.u16();
    if (version != CheckpointFormat::kVersion)
        throw SerializeError(
            "checkpoint file " + path +
            " has unsupported format version " +
            std::to_string(version) + " (this build reads version " +
            std::to_string(CheckpointFormat::kVersion) + ")");
    char got_tag[5] = {0, 0, 0, 0, 0};
    for (int i = 0; i < 4; ++i)
        got_tag[i] = static_cast<char>(d.u8());
    if (std::memcmp(got_tag, tag, 4) != 0)
        throw SerializeError(
            "checkpoint file " + path + " has payload tag '" +
            got_tag + "', expected '" + std::string(tag, 4) + "'");
    const std::uint64_t length = d.u64();
    const std::uint32_t want_crc = d.u32();
    if (length != fileBytes - CheckpointFormat::kHeaderBytes)
        throw SerializeError(
            "checkpoint file " + path + " is truncated: header "
            "declares " +
            std::to_string(length) + " payload bytes, file has " +
            std::to_string(fileBytes -
                           CheckpointFormat::kHeaderBytes));

    // One sized read straight into the returned buffer; the CRC is
    // checked there, so the payload is never copied again.
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(length));
    in.read(reinterpret_cast<char *>(payload.data()),
            static_cast<std::streamsize>(length));
    if (!in)
        throw SerializeError("cannot read checkpoint file " + path);
    if (crc32(payload.data(), payload.size()) != want_crc)
        throw SerializeError(
            "checkpoint file " + path + " failed CRC-32 "
            "verification (payload is corrupt)");
    return payload;
}

} // namespace acic
