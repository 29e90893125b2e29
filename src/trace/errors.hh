/**
 * @file
 * Trace-decode failure contract of the record codec and every
 * reader built on it (loadTrace and its cursors, StreamingTraceSource,
 * the native importer). Any of them can be handed bytes that end
 * mid-record — a copy that died partway, a producer SIGKILLed
 * mid-frame — or garbage, and each raises one of these named
 * exceptions instead of exiting.
 *
 * All types derive from std::runtime_error, so the CLI's existing
 * catch-all maps them to exit code 1 with the message printed; the
 * message always carries the byte offset and, for truncation, the
 * expected/got byte counts, so the error localizes the damage. A
 * file that cannot be opened at all raises TraceOpenError, whose
 * message names the path.
 */

#ifndef ACIC_TRACE_ERRORS_HH
#define ACIC_TRACE_ERRORS_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace acic {

/** Malformed trace bytes: bad magic, runaway varint chain, invalid
 *  branch kind, inconsistent frame bookkeeping. The offset is the
 *  byte position the decoder gave up at (absolute for files,
 *  stream-relative for pipes). */
class TraceFormatError : public std::runtime_error
{
  public:
    TraceFormatError(const std::string &what, std::uint64_t offset)
        : std::runtime_error(what + " (at byte offset " +
                             std::to_string(offset) + ")"),
          offset_(offset)
    {
    }

    std::uint64_t offset() const { return offset_; }

  private:
    std::uint64_t offset_;
};

/** The input ended mid-record or mid-frame: fewer bytes arrived than
 *  the encoding requires. expected/got describe the read that came
 *  up short. */
class TraceTruncatedError : public TraceFormatError
{
  public:
    TraceTruncatedError(const std::string &what, std::uint64_t offset,
                        std::uint64_t expected, std::uint64_t got)
        : TraceFormatError(what + ": expected " +
                               std::to_string(expected) +
                               " more byte(s), got " +
                               std::to_string(got),
                           offset),
          expected_(expected), got_(got)
    {
    }

    std::uint64_t expectedBytes() const { return expected_; }
    std::uint64_t gotBytes() const { return got_; }

  private:
    std::uint64_t expected_;
    std::uint64_t got_;
};

/** A trace file that cannot be opened for reading; @p err is the
 *  errno of the failed open. */
class TraceOpenError : public std::runtime_error
{
  public:
    TraceOpenError(const std::string &path, int err)
        : std::runtime_error("cannot open trace file " + path +
                             " for reading (" + std::strerror(err) +
                             ")")
    {
    }
};

} // namespace acic

#endif // ACIC_TRACE_ERRORS_HH
