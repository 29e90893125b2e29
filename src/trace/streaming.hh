/**
 * @file
 * Live-traffic trace streaming (DESIGN.md section 12): a framed
 * variant of the `.acictrace` record encoding that flows through
 * pipes, FIFOs, and stdin, and a TraceSource that consumes it with
 * bounded memory.
 *
 * Stream layout (little-endian):
 *
 *   stream header:
 *     u32  magic "ACIS"
 *     u16  version (currently 1)
 *     u16  flags (reserved, 0)
 *     u32  workload-name length N
 *     N    workload name (no terminator)
 *   frame (repeated):
 *     u32  frame magic "AFRM"
 *     u32  payload bytes P
 *     u32  record count R
 *     u64  prevNext decoder seed (varint-chain state before the
 *          frame's first record)
 *     P    record payload — the `.acictrace` record encoding
 *          (trace/codec.hh), decodable from the seed alone, so every
 *          frame is self-contained
 *   end-of-stream frame (exactly once, last):
 *     u32  frame magic "AFRM"
 *     u32  0
 *     u32  0
 *     u64  total records streamed (must match the sum of frame
 *          record counts)
 *
 * The on-disk header cannot be used here: TraceWriter patches the
 * instruction count back into the header on close, which needs a
 * seekable output. Frames carry their own lengths instead and the
 * count rides in the EOS frame, so nothing is ever patched. An fd
 * that ends without the EOS frame is a *truncated* stream (the
 * producer died) and raises TraceTruncatedError; a frame whose
 * magic, bounds, or record accounting is wrong raises
 * TraceFormatError — the same failure contract as FileTraceSource
 * (trace/errors.hh).
 *
 * Backpressure and wakeups: StreamingTraceSource runs a reader
 * thread that decodes each frame into one immutable StreamChunk and
 * hands the chunk (a shared_ptr, never the records) through a
 * bounded SPSC ring. When the ring is full the reader stops
 * reading — the pipe fills, and the producer process blocks in
 * write(2); when the ring is empty the consumer blocks on a
 * condition variable until a chunk, end-of-stream, or an error
 * arrives. All blocking is event-driven: ring waits are pure
 * condition-variable sleeps and fd reads poll(2) with an infinite
 * timeout on {data fd, wake pipe}, so an idle serve process burns
 * no CPU. Shutdown (signal handlers, destructors) writes the wake
 * pipe — write(2) is async-signal-safe where condition variables
 * are not — and the woken side relays the stop into the ring's CV
 * world. Peak memory is set by the ring capacity (in records), not
 * the stream length.
 */

#ifndef ACIC_TRACE_STREAMING_HH
#define ACIC_TRACE_STREAMING_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "trace/codec.hh"
#include "trace/errors.hh"

namespace acic {

/** Stream-format constants shared by writer, reader, and tests. */
struct StreamFormat
{
    static constexpr std::uint32_t kMagic = 0x53494341; // "ACIS"
    static constexpr std::uint16_t kVersion = 1;
    static constexpr std::uint32_t kFrameMagic = 0x4d524641; // "AFRM"

    /** Bytes of the stream header before the workload name. */
    static constexpr std::size_t kHeaderBytes = 12;
    /** Bytes of one frame header (and of the EOS frame). */
    static constexpr std::size_t kFrameHeaderBytes = 20;

    /** Sanity bounds a well-formed producer never exceeds; a frame
     *  past them is garbage, not data. */
    static constexpr std::uint32_t kMaxFramePayload = 1u << 26;
    static constexpr std::uint32_t kMaxFrameRecords = 1u << 22;

    /** Default records per frame for writers: a multiple of
     *  InstBatch::kCapacity, so chunks decoded 1:1 from frames
     *  batch-align downstream. */
    static constexpr std::uint32_t kDefaultFrameRecords = 4096;
};

/**
 * Frame the record stream of a TraceSource onto any std::ostream —
 * no seeking, so pipes and stdout work. finish() flushes the last
 * partial frame and appends the EOS frame; a stream that ends
 * without it reads as truncated, which is exactly right for a
 * writer killed mid-flight.
 */
class StreamTraceWriter
{
  public:
    StreamTraceWriter(std::ostream &out, const std::string &name,
                      std::uint32_t frame_records =
                          StreamFormat::kDefaultFrameRecords);

    /** finish()es if still open (a destructor on the unwind path
     *  after an output error must not throw; errors are left to the
     *  caller's stream-state check). */
    ~StreamTraceWriter();

    StreamTraceWriter(const StreamTraceWriter &) = delete;
    StreamTraceWriter &operator=(const StreamTraceWriter &) = delete;

    /** Encode and buffer one instruction. */
    void append(const TraceInst &inst);

    /** Flush the partial frame and emit the EOS frame. */
    void finish();

    /** Records appended so far. */
    std::uint64_t written() const { return count_; }

  private:
    /** Write a frame header for the buffered payload (empty for the
     *  EOS frame), then the payload. */
    void writeFrame(std::uint32_t records, std::uint64_t word);
    void flushFrame();

    std::ostream &out_;
    std::vector<std::uint8_t> payload_;
    RecordCodec codec_;
    std::uint32_t frameRecords_;
    std::uint32_t inFrame_ = 0;
    Addr frameSeed_ = 0;
    std::uint64_t count_ = 0;
    bool finished_ = false;
};

/**
 * One immutable block of decoded records. The reader thread decodes
 * each frame into a fresh StreamChunk; from then on the chunk is
 * shared read-only between the ring, the StreamTee backlog, and any
 * cursor pinning an acquireRun() window — records are decoded once
 * and never copied again.
 */
struct StreamChunk
{
    std::vector<TraceInst> data;
};

/**
 * Self-pipe wakeup channel. wake() writes one byte to a nonblocking
 * pipe — async-signal-safe, unlike condition variables — so signal
 * handlers and destructors can interrupt a poll(2) that is blocked
 * with an infinite timeout. The read end is level-triggered and
 * never drained after a stop: once woken, every later poll returns
 * immediately, which is exactly what shutdown wants.
 */
class WakeChannel
{
  public:
    WakeChannel();
    ~WakeChannel();

    WakeChannel(const WakeChannel &) = delete;
    WakeChannel &operator=(const WakeChannel &) = delete;

    /** Fd to include (POLLIN) in poll sets that must wake. */
    int pollFd() const { return fds_[0]; }

    /** Make pollFd() readable. Async-signal-safe. */
    void wake() noexcept;

  private:
    int fds_[2] = {-1, -1};
};

/**
 * Cooperative shutdown token shared between signal handlers, ring
 * waits, and fd reads. request() is async-signal-safe: it raises
 * the flag (checked by every CV predicate at wait entry) and writes
 * the wake pipe (unblocks infinite-timeout polls). Ring waiters are
 * additionally woken via SpscChunkRing::notifyStop() by whichever
 * thread notices the flag first — CVs cannot be notified from a
 * signal handler, so the wakeup is relayed, never issued, from
 * handler context.
 */
struct StopSignal
{
    std::atomic<bool> flag{false};
    WakeChannel wake;

    void request() noexcept
    {
        flag.store(true, std::memory_order_relaxed);
        wake.wake();
    }

    bool requested() const
    {
        return flag.load(std::memory_order_relaxed);
    }
};

/**
 * Bounded single-producer/single-consumer ring of immutable chunks
 * with blocking backpressure on both sides. Capacity counts
 * *records* (the sum of buffered chunk sizes), so memory bounds are
 * independent of how the producer frames the stream; a chunk larger
 * than the whole capacity is admitted only into an empty ring, so
 * progress never deadlocks on an oversized frame.
 *
 * All waits are pure condition-variable sleeps — no poll ticks.
 * The optional external stop flag is checked by every wait
 * predicate, and notifyStop() re-evaluates the predicates; callers
 * that set the flag from a context that cannot notify (a signal
 * handler) rely on a live thread relaying the wakeup (see
 * StopSignal).
 */
class SpscChunkRing
{
  public:
    explicit SpscChunkRing(std::size_t capacity_records,
                           const std::atomic<bool> *stop = nullptr);

    /**
     * Producer: append one chunk, blocking while the ring is full.
     * @return false when the consumer closed or the stop flag rose
     * before the chunk was accepted.
     */
    bool push(std::shared_ptr<const StreamChunk> chunk);

    /** Producer: mark clean end-of-stream. */
    void closeProducer();

    /**
     * Producer: mark the stream failed. The consumer drains the
     * chunks buffered before the failure, then pop() rethrows
     * @p error — so the error surfaces at the exact record position
     * where the stream went bad.
     */
    void fail(std::exception_ptr error);

    /**
     * Consumer: take the oldest chunk, blocking while the ring is
     * empty and the producer is alive. @return null at end-of-stream
     * (or when the stop flag rose with the ring empty). Throws the
     * producer's stored error once the chunks buffered before it are
     * drained.
     */
    std::shared_ptr<const StreamChunk> pop();

    /** Consumer: abandon the stream; push() starts returning false. */
    void closeConsumer();

    /** Wake both sides so their predicates re-check the stop flag.
     *  Safe from any thread *except* a signal handler. */
    void notifyStop();

    bool consumerClosed() const;

    std::size_t capacity() const { return capacity_; }

    /** Records currently buffered (telemetry gauge). */
    std::size_t occupancy() const;

    /** High-water mark of buffered records (backpressure tests pin
     *  this at <= capacity()). */
    std::size_t maxOccupancy() const;

  private:
    bool stopped() const
    {
        return stopSeen_ ||
               (stop_ != nullptr &&
                stop_->load(std::memory_order_relaxed));
    }

    const std::size_t capacity_;
    const std::atomic<bool> *stop_;
    std::deque<std::shared_ptr<const StreamChunk>> chunks_;
    std::size_t records_ = 0; ///< sum of buffered chunk sizes
    std::size_t maxOcc_ = 0;
    bool producerDone_ = false;
    bool consumerDone_ = false;
    bool stopSeen_ = false;
    std::exception_ptr error_;
    mutable std::mutex mutex_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
};

/**
 * A TraceSource that can also hand out whole immutable chunks.
 * StreamTee detects this interface and adopts the chunks directly
 * into its backlog — the zero-copy fast path that skips the
 * per-record decodeBatch staging entirely.
 */
class ChunkedTraceSource
{
  public:
    virtual ~ChunkedTraceSource() = default;

    /**
     * Take the next chunk, blocking like pop(). @return null at
     * end-of-stream. Must not be interleaved with partially
     * consumed next()/decodeBatch() reads.
     */
    virtual std::shared_ptr<const StreamChunk> nextChunk() = 0;
};

/**
 * TraceSource over a live framed stream: a reader thread pulls and
 * decodes frames from an fd into a bounded SpscChunkRing; next(),
 * acquireRun(), and nextChunk() block on the ring until records,
 * end-of-stream, or a stream error arrive. Single-pass — reset() is
 * only valid before the first record is consumed (the SimEngine
 * constructor's defensive reset), and seeking is unsupported.
 *
 * The constructor reads the stream header synchronously on the
 * calling thread (so name() is valid immediately); on a FIFO this
 * blocks until the producer connects, which is the intended serve
 * startup behavior.
 */
class StreamingTraceSource : public TraceSource,
                             public ChunkedTraceSource
{
  public:
    static constexpr std::size_t kDefaultRingRecords = 1u << 16;

    /**
     * Attach to @p path: "-" for stdin, otherwise any readable path
     * (FIFO, regular file, /dev/fd/N). @p stop, when given, aborts
     * blocked reads and ring waits (signal-handler shutdown).
     */
    static std::unique_ptr<StreamingTraceSource>
    openPath(const std::string &path,
             std::size_t ring_records = kDefaultRingRecords,
             const StopSignal *stop = nullptr);

    /**
     * Adopt @p fd (closed on destruction when @p own_fd). Reads the
     * stream header before returning; throws TraceFormatError /
     * TraceTruncatedError when the header is not a framed ACIS
     * stream.
     */
    StreamingTraceSource(int fd, bool own_fd,
                         std::size_t ring_records =
                             kDefaultRingRecords,
                         const StopSignal *stop = nullptr);

    /** Joins the reader thread (closing the ring and waking its
     *  poll unblocks it). */
    ~StreamingTraceSource() override;

    void reset() override;
    const TraceInst *acquireRun(std::uint64_t max,
                                std::uint64_t &n) override;

    /** Zero-copy chunk handoff (ChunkedTraceSource). */
    std::shared_ptr<const StreamChunk> nextChunk() override;

    /** Total records once the EOS frame arrived; until then, the
     *  count delivered so far (a monotonic lower bound — a live
     *  stream's length is unknowable up front). */
    std::uint64_t length() const override;

    const std::string &name() const override { return name_; }

    /** Records handed to the consumer so far. */
    std::uint64_t delivered() const
    {
        return delivered_.load(std::memory_order_relaxed);
    }

    /** Total announced by the EOS frame; 0 before it arrives. */
    std::uint64_t streamTotal() const
    {
        return total_.load(std::memory_order_acquire);
    }

    /** True once the EOS frame was parsed (clean shutdown). */
    bool sawEndOfStream() const
    {
        return cleanEos_.load(std::memory_order_acquire);
    }

    std::size_t ringCapacity() const { return ring_.capacity(); }

    /** Records buffered right now (serve telemetry gauge). */
    std::size_t ringOccupancy() const { return ring_.occupancy(); }

    std::size_t ringMaxOccupancy() const
    {
        return ring_.maxOccupancy();
    }

  private:
    enum class ReadStatus
    {
        Full,    ///< all requested bytes read
        Eof,     ///< fd ended first (got < wanted)
        Aborted, ///< stop flag / consumer close while waiting
    };

    /** Read exactly @p n bytes. Blocks in poll(2) with an infinite
     *  timeout on {fd, own wake pipe, external stop pipe}; the wake
     *  fds abort a wait on a silent producer without burning CPU. */
    ReadStatus readFully(void *dst, std::size_t n, std::size_t &got);

    void readHeader();
    void readerMain();

    int fd_;
    bool ownFd_;
    const StopSignal *stop_;
    std::string name_;
    /** Unblocks the reader's poll from ~StreamingTraceSource. */
    WakeChannel ownWake_;
    SpscChunkRing ring_;
    std::thread reader_;

    /** Bytes consumed from the stream so far (error offsets). */
    std::uint64_t streamOff_ = 0;
    /** Records decoded and pushed by the reader thread. */
    std::uint64_t decoded_ = 0;

    std::atomic<std::uint64_t> total_{0};
    std::atomic<bool> cleanEos_{false};

    // Consumer-side state: the chunk acquireRun() serves from.
    std::shared_ptr<const StreamChunk> cur_;
    std::size_t curPos_ = 0;
    /** Relaxed atomic: tee cursors read length() (which falls back
     *  to the delivered count) from their own threads. */
    std::atomic<std::uint64_t> delivered_{0};
};

/**
 * Fan-out of one single-pass TraceSource to N cursor views —
 * `acic_run serve` keeps one resident engine per scheme, and every
 * engine must see the identical record sequence of the one live
 * stream. When the upstream is a ChunkedTraceSource its chunks are
 * adopted into the backlog as-is (zero-copy: the ring, the tee, and
 * every cursor window share the same immutable records); otherwise
 * records are staged batch-wise into tee-owned chunks. trim() drops
 * every chunk all cursors have fully consumed, so the backlog stays
 * bounded by how far the engines drift apart (the serve loop steps
 * them in lockstep), not by the stream length.
 *
 * Thread-safe for N cursors driven from N threads: pulls, lookups,
 * and trim() serialize on one mutex, while each cursor's hot path
 * runs lock-free over a captured window of an immutable chunk (the
 * window's shared_ptr keeps the chunk alive past any concurrent
 * trim). Cursors pull from upstream on demand, so a cursor never
 * reports a premature end-of-stream (BundleWalker latches
 * exhaustion permanently); ensureBuffered() exists to prefetch a
 * round's records up front — making mid-round lock traffic rare —
 * and to learn where the stream actually ended.
 */
class StreamTee
{
  public:
    class Cursor;

    explicit StreamTee(TraceSource &upstream, unsigned cursors,
                       std::size_t chunk_records = 16384);
    ~StreamTee();

    StreamTee(const StreamTee &) = delete;
    StreamTee &operator=(const StreamTee &) = delete;

    /**
     * Pull from upstream until @p target records (absolute, from
     * the stream start) are buffered or the stream ends.
     * @return the absolute buffered end — >= target unless the
     *         stream ended first. Rethrows upstream stream errors.
     */
    std::uint64_t ensureBuffered(std::uint64_t target);

    /** True once upstream reported end-of-stream. */
    bool exhausted() const;

    /** Absolute record index one past the last buffered record. */
    std::uint64_t bufferedEnd() const
    {
        return end_.load(std::memory_order_acquire);
    }

    /** Absolute record index of the oldest buffered record; the
     *  backlog bound tests pin bufferedEnd() - bufferedStart(). */
    std::uint64_t bufferedStart() const
    {
        return start_.load(std::memory_order_acquire);
    }

    /** Drop chunks every cursor has fully consumed. */
    void trim();

    Cursor &cursor(unsigned i) { return *cursors_[i]; }

  private:
    /** One backlog entry: an immutable chunk and the absolute
     *  stream index of its first record. */
    struct Entry
    {
        std::uint64_t base = 0;
        std::shared_ptr<const StreamChunk> chunk;
    };

    /** A cursor's lock-free view of one chunk: raw records plus the
     *  owning shared_ptr that pins them. */
    struct Window
    {
        const TraceInst *recs = nullptr;
        std::uint64_t base = 0;  ///< absolute index of recs[0]
        std::uint64_t count = 0; ///< records visible in this window
        std::shared_ptr<const StreamChunk> owner;
    };

    /** One upstream pull into the backlog; false at EOF. Caller
     *  holds mu_. */
    bool pullLocked();

    /** Locate the window covering @p pos, pulling on demand; false
     *  when the stream ended before @p pos. Caller holds mu_. */
    bool windowAtLocked(std::uint64_t pos, Window &out);

    TraceSource &upstream_;
    ChunkedTraceSource *chunked_; ///< non-null on the zero-copy path
    std::size_t chunkRecords_;

    mutable std::mutex mu_;
    std::deque<Entry> chunks_;
    std::atomic<std::uint64_t> start_{0};
    std::atomic<std::uint64_t> end_{0};
    bool eof_ = false;
    /** Generic-path staging: the tail chunk still being filled
     *  (reserve()d once, so record addresses are stable). */
    std::shared_ptr<StreamChunk> open_;
    InstBatch scratch_;
    std::vector<std::unique_ptr<Cursor>> cursors_;
};

/**
 * One cursor view of the tee'd stream: next() and zero-copy
 * acquireRun() straight out of the shared chunk storage (the
 * walker's fast path), pulling from upstream on demand. The chunk
 * backing the current window and the most recent acquireRun() are
 * pinned via shared_ptr, so a concurrent trim() never invalidates
 * records the engine still reads.
 */
class StreamTee::Cursor : public TraceSource
{
  public:
    Cursor(StreamTee &tee, unsigned index);

    /** Valid only before the first record is consumed. */
    void reset() override;

    /** Reads in place: unlike the default, it leaves the chunk
     *  pinned by the last acquireRun() alone. */
    bool next(TraceInst &out) override;
    const TraceInst *acquireRun(std::uint64_t max,
                                std::uint64_t &n) override;

    /** Upstream's view: the announced total once known, else the
     *  monotonic lower bound (see StreamingTraceSource::length). */
    std::uint64_t length() const override;

    const std::string &name() const override;

    /** Absolute records this cursor has consumed. */
    std::uint64_t position() const
    {
        return pos_.load(std::memory_order_relaxed);
    }

  private:
    friend class StreamTee;

    /** Capture the window covering pos_; false at end-of-stream. */
    bool refill();

    StreamTee &tee_;
    unsigned index_;
    /** Atomic so trim() (another thread) can read the consumed
     *  position; only this cursor's thread writes it. */
    std::atomic<std::uint64_t> pos_{0};
    Window win_;
    /** Chunk backing the last acquireRun() (kept alive past both
     *  trim() and window advance). */
    std::shared_ptr<const StreamChunk> pin_;
};

} // namespace acic

#endif // ACIC_TRACE_STREAMING_HH
