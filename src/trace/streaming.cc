#include "trace/streaming.hh"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace acic {

// ------------------------------------------------------ StreamTraceWriter

StreamTraceWriter::StreamTraceWriter(std::ostream &out,
                                     const std::string &name,
                                     std::uint32_t frame_records)
    : out_(out),
      frameRecords_(frame_records == 0 ? 1 : frame_records)
{
    std::vector<std::uint8_t> header;
    putLE<std::uint32_t>(header, StreamFormat::kMagic);
    putLE<std::uint16_t>(header, StreamFormat::kVersion);
    putLE<std::uint16_t>(header, 0); // flags
    putLE<std::uint32_t>(header, name.size());
    header.insert(header.end(), name.begin(), name.end());
    out_.write(reinterpret_cast<const char *>(header.data()),
               static_cast<std::streamsize>(header.size()));
    payload_.reserve(frameRecords_ * 2);
}

StreamTraceWriter::~StreamTraceWriter()
{
    if (!finished_ && out_.good()) {
        try {
            finish();
        } catch (...) {
            // Swallow: a destructor on an unwind path must not
            // throw; the caller's stream-state check reports it.
        }
    }
}

void
StreamTraceWriter::append(const TraceInst &inst)
{
    ACIC_ASSERT(!finished_,
                "append() on a finished StreamTraceWriter");
    codec_.encode(inst, payload_);
    ++count_;
    if (++inFrame_ >= frameRecords_)
        flushFrame();
}

void
StreamTraceWriter::writeFrame(std::uint32_t records, std::uint64_t word)
{
    std::vector<std::uint8_t> header;
    putLE<std::uint32_t>(header, StreamFormat::kFrameMagic);
    putLE<std::uint32_t>(header, payload_.size());
    putLE<std::uint32_t>(header, records);
    putLE<std::uint64_t>(header, word);
    out_.write(reinterpret_cast<const char *>(header.data()),
               static_cast<std::streamsize>(header.size()));
    out_.write(reinterpret_cast<const char *>(payload_.data()),
               static_cast<std::streamsize>(payload_.size()));
    payload_.clear();
}

void
StreamTraceWriter::flushFrame()
{
    if (inFrame_ == 0)
        return;
    writeFrame(inFrame_, frameSeed_);
    inFrame_ = 0;
    frameSeed_ = codec_.prevNext();
}

void
StreamTraceWriter::finish()
{
    if (finished_)
        return;
    flushFrame();
    writeFrame(0, count_); // end-of-stream: no payload, the total
    out_.flush();
    finished_ = true;
}

// ------------------------------------------------------------ WakeChannel

WakeChannel::WakeChannel()
{
    if (::pipe(fds_) != 0)
        ACIC_FATAL("cannot create wake pipe");
    for (const int fd : fds_) {
        ::fcntl(fd, F_SETFL,
                ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        ::fcntl(fd, F_SETFD,
                ::fcntl(fd, F_GETFD, 0) | FD_CLOEXEC);
    }
}

WakeChannel::~WakeChannel()
{
    for (const int fd : fds_)
        if (fd >= 0)
            ::close(fd);
}

void
WakeChannel::wake() noexcept
{
    const std::uint8_t byte = 1;
    // Nonblocking: a full pipe means a wakeup is already pending,
    // which is all a level-triggered channel needs. write(2) is
    // async-signal-safe; errno is restored for handler contexts.
    const int saved_errno = errno;
    [[maybe_unused]] const ssize_t r =
        ::write(fds_[1], &byte, 1);
    errno = saved_errno;
}

// ---------------------------------------------------------- SpscChunkRing

SpscChunkRing::SpscChunkRing(std::size_t capacity_records,
                             const std::atomic<bool> *stop)
    : capacity_(capacity_records == 0 ? 1 : capacity_records),
      stop_(stop)
{
}

bool
SpscChunkRing::push(std::shared_ptr<const StreamChunk> chunk)
{
    if (!chunk || chunk->data.empty())
        return true;
    const std::size_t n = chunk->data.size();
    std::unique_lock<std::mutex> lock(mutex_);
    // A chunk larger than the whole capacity is admitted only into
    // an empty ring so an oversized frame cannot deadlock progress;
    // occupancy then transiently exceeds capacity_, which the
    // high-water mark reports honestly.
    notFull_.wait(lock, [&] {
        return consumerDone_ || stopped() || records_ == 0 ||
               records_ + n <= capacity_;
    });
    if (consumerDone_ || stopped())
        return false;
    records_ += n;
    if (records_ > maxOcc_)
        maxOcc_ = records_;
    chunks_.push_back(std::move(chunk));
    notEmpty_.notify_one();
    return true;
}

void
SpscChunkRing::closeProducer()
{
    std::lock_guard<std::mutex> lock(mutex_);
    producerDone_ = true;
    notEmpty_.notify_all();
}

void
SpscChunkRing::fail(std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    error_ = std::move(error);
    producerDone_ = true;
    notEmpty_.notify_all();
}

std::shared_ptr<const StreamChunk>
SpscChunkRing::pop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    notEmpty_.wait(lock, [&] {
        return !chunks_.empty() || producerDone_ || stopped();
    });
    if (!chunks_.empty()) {
        std::shared_ptr<const StreamChunk> chunk =
            std::move(chunks_.front());
        chunks_.pop_front();
        records_ -= chunk->data.size();
        notFull_.notify_one();
        return chunk;
    }
    // Drained: surface the producer's error (if any) exactly at the
    // record position where the stream went bad.
    if (error_) {
        std::exception_ptr e = error_;
        error_ = nullptr;
        std::rethrow_exception(e);
    }
    return nullptr;
}

void
SpscChunkRing::closeConsumer()
{
    std::lock_guard<std::mutex> lock(mutex_);
    consumerDone_ = true;
    notFull_.notify_all();
    notEmpty_.notify_all();
}

void
SpscChunkRing::notifyStop()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stopSeen_ = true;
    notFull_.notify_all();
    notEmpty_.notify_all();
}

bool
SpscChunkRing::consumerClosed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return consumerDone_;
}

std::size_t
SpscChunkRing::occupancy() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

std::size_t
SpscChunkRing::maxOccupancy() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return maxOcc_;
}

// ---------------------------------------------------- StreamingTraceSource

std::unique_ptr<StreamingTraceSource>
StreamingTraceSource::openPath(const std::string &path,
                               std::size_t ring_records,
                               const StopSignal *stop)
{
    int fd;
    bool own;
    if (path == "-") {
        fd = ::dup(STDIN_FILENO);
        own = true;
        if (fd < 0)
            ACIC_FATAL("cannot dup stdin for stream input");
    } else {
        // A FIFO opened O_RDONLY blocks here until a writer
        // connects — the intended `serve` startup handshake.
        fd = ::open(path.c_str(), O_RDONLY);
        own = true;
        if (fd < 0) {
            const std::string msg =
                "cannot open stream input '" + path +
                "': " + std::strerror(errno);
            ACIC_FATAL(msg.c_str());
        }
    }
    return std::make_unique<StreamingTraceSource>(fd, own,
                                                  ring_records, stop);
}

StreamingTraceSource::StreamingTraceSource(int fd, bool own_fd,
                                           std::size_t ring_records,
                                           const StopSignal *stop)
    : fd_(fd), ownFd_(own_fd), stop_(stop),
      ring_(ring_records, stop != nullptr ? &stop->flag : nullptr)
{
    readHeader();
    reader_ = std::thread([this] { readerMain(); });
}

StreamingTraceSource::~StreamingTraceSource()
{
    // Closing the consumer side unblocks a reader stuck in push();
    // the wake pipe unblocks one stuck in poll(2).
    ring_.closeConsumer();
    ownWake_.wake();
    if (reader_.joinable())
        reader_.join();
    if (ownFd_ && fd_ >= 0)
        ::close(fd_);
}

StreamingTraceSource::ReadStatus
StreamingTraceSource::readFully(void *dst, std::size_t n,
                                std::size_t &got)
{
    got = 0;
    auto *p = static_cast<std::uint8_t *>(dst);
    while (got < n) {
        if (ring_.consumerClosed() ||
            (stop_ != nullptr && stop_->requested()))
            return ReadStatus::Aborted;
        struct pollfd pfds[3];
        pfds[0].fd = fd_;
        pfds[0].events = POLLIN;
        pfds[0].revents = 0;
        pfds[1].fd = ownWake_.pollFd();
        pfds[1].events = POLLIN;
        pfds[1].revents = 0;
        nfds_t nfds = 2;
        if (stop_ != nullptr) {
            pfds[2].fd = stop_->wake.pollFd();
            pfds[2].events = POLLIN;
            pfds[2].revents = 0;
            nfds = 3;
        }
        // Infinite timeout: wakeups come from data, EOF/HUP, or a
        // wake pipe — never from a tick, so waiting costs no CPU.
        const int pr = ::poll(pfds, nfds, -1);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return ReadStatus::Eof;
        }
        if ((pfds[0].revents &
             (POLLIN | POLLHUP | POLLERR)) == 0)
            continue; // woken to re-check the abort conditions
        const ssize_t r = ::read(fd_, p + got, n - got);
        if (r < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            return ReadStatus::Eof;
        }
        if (r == 0)
            return ReadStatus::Eof;
        got += static_cast<std::size_t>(r);
    }
    return ReadStatus::Full;
}

void
StreamingTraceSource::readHeader()
{
    std::uint8_t fixed[StreamFormat::kHeaderBytes];
    std::size_t got = 0;
    const ReadStatus st = readFully(fixed, sizeof(fixed), got);
    if (st == ReadStatus::Aborted)
        throw TraceTruncatedError(
            "stream aborted before the header arrived", 0,
            sizeof(fixed), got);
    if (st == ReadStatus::Eof)
        throw TraceTruncatedError(
            "stream ended inside the ACIS header", streamOff_ + got,
            sizeof(fixed), got);
    if (loadLE<std::uint32_t>(fixed) != StreamFormat::kMagic)
        throw TraceFormatError(
            "not an ACIS instruction stream (bad magic; pipe the "
            "output of 'acic_run stream' here)",
            streamOff_);
    const auto version = loadLE<std::uint16_t>(fixed + 4);
    if (version != StreamFormat::kVersion)
        throw TraceFormatError(
            "unsupported ACIS stream version " +
                std::to_string(version),
            streamOff_ + 4);
    const auto name_len = loadLE<std::uint32_t>(fixed + 8);
    if (name_len > (1u << 20))
        throw TraceFormatError("corrupt ACIS header (name length " +
                                   std::to_string(name_len) + ")",
                               streamOff_ + 8);
    streamOff_ += sizeof(fixed);
    name_.resize(name_len);
    if (readFully(name_.data(), name_len, got) != ReadStatus::Full)
        throw TraceTruncatedError("stream ended inside the workload name",
                                  streamOff_ + got, name_len, got);
    streamOff_ += name_len;
    if (name_.empty())
        name_ = "stream";
}

void
StreamingTraceSource::readerMain()
{
    // Whatever path the reader exits by, wake the consumer so a
    // pop() blocked on an empty ring re-checks its predicates (a
    // signal handler cannot notify the ring's CVs itself; this
    // thread relays the wakeup).
    struct RingWaker
    {
        SpscChunkRing &ring;
        ~RingWaker() { ring.notifyStop(); }
    } waker{ring_};

    std::vector<std::uint8_t> payload;
    try {
        for (;;) {
            std::uint8_t header[StreamFormat::kFrameHeaderBytes];
            std::size_t got = 0;
            const std::uint64_t frame_off = streamOff_;
            ReadStatus st = readFully(header, sizeof(header), got);
            if (st == ReadStatus::Aborted)
                return; // consumer gone / shutdown: not an error
            if (st == ReadStatus::Eof) {
                if (got == 0)
                    throw TraceTruncatedError(
                        "stream ended without its end-of-stream "
                        "frame (the producer likely died)",
                        frame_off, sizeof(header), 0);
                throw TraceTruncatedError(
                    "stream ended inside a frame header (the "
                    "producer likely died)",
                    frame_off + got, sizeof(header), got);
            }
            if (loadLE<std::uint32_t>(header) != StreamFormat::kFrameMagic)
                throw TraceFormatError(
                    "bad frame magic (stream desynchronized or "
                    "corrupt)",
                    frame_off);
            const auto payload_bytes = loadLE<std::uint32_t>(header + 4);
            const auto records = loadLE<std::uint32_t>(header + 8);
            const auto seed_or_total = loadLE<std::uint64_t>(header + 12);
            streamOff_ += sizeof(header);

            if (payload_bytes == 0 && records == 0) {
                // End-of-stream frame: the u64 carries the total.
                if (seed_or_total != decoded_)
                    throw TraceFormatError(
                        "end-of-stream record count mismatch: "
                        "stream announced " +
                            std::to_string(seed_or_total) +
                            ", decoded " + std::to_string(decoded_),
                        frame_off);
                total_.store(decoded_, std::memory_order_release);
                cleanEos_.store(true, std::memory_order_release);
                ring_.closeProducer();
                return;
            }
            if (payload_bytes > StreamFormat::kMaxFramePayload)
                throw TraceFormatError(
                    "frame payload of " +
                        std::to_string(payload_bytes) +
                        " bytes exceeds the format bound",
                    frame_off + 4);
            if (records == 0 || records > StreamFormat::kMaxFrameRecords)
                throw TraceFormatError(
                    "frame record count " + std::to_string(records) +
                        " outside the format bounds",
                    frame_off + 8);

            payload.resize(payload_bytes);
            st = readFully(payload.data(), payload_bytes, got);
            if (st == ReadStatus::Aborted)
                return;
            if (st == ReadStatus::Eof)
                throw TraceTruncatedError(
                    "stream ended inside a frame payload (the "
                    "producer likely died)",
                    streamOff_ + got, payload_bytes, got);
            // Decode once, directly into the immutable chunk every
            // downstream consumer will share — no staging copy.
            auto chunk = std::make_shared<StreamChunk>();
            chunk->data.resize(records);
            RecordCodec codec(seed_or_total);
            const std::uint8_t *p = payload.data();
            const std::uint8_t *const end = p + payload_bytes;
            if (codec.decode(p, end, streamOff_, chunk->data.data(),
                             records) != records ||
                p != end)
                throw TraceFormatError(
                    "frame payload does not hold exactly its " +
                        std::to_string(records) + " records",
                    streamOff_ + static_cast<std::uint64_t>(
                                     p - payload.data()));
            streamOff_ += payload_bytes;
            decoded_ += records;
            if (!ring_.push(std::move(chunk)))
                return; // consumer gone / shutdown
        }
    } catch (...) {
        ring_.fail(std::current_exception());
    }
}

void
StreamingTraceSource::reset()
{
    // SimEngine's constructor defensively resets its source before
    // any record is consumed; that is a no-op here. A rewind after
    // consumption is impossible on a live stream.
    if (delivered_ != 0)
        ACIC_FATAL("cannot rewind a live instruction stream "
                   "(single-pass source)");
}

const TraceInst *
StreamingTraceSource::acquireRun(std::uint64_t max, std::uint64_t &n)
{
    n = 0;
    if (max == 0)
        return nullptr;
    while (!cur_ || curPos_ >= cur_->data.size()) {
        cur_ = ring_.pop();
        curPos_ = 0;
        if (!cur_)
            return nullptr;
    }
    std::uint64_t run = cur_->data.size() - curPos_;
    if (run > max)
        run = max;
    // cur_ keeps the chunk alive until the next call consumes
    // records, as long as the run must stay valid.
    const TraceInst *recs = cur_->data.data() + curPos_;
    curPos_ += static_cast<std::size_t>(run);
    delivered_.fetch_add(run, std::memory_order_relaxed);
    n = run;
    return recs;
}

std::shared_ptr<const StreamChunk>
StreamingTraceSource::nextChunk()
{
    ACIC_ASSERT(!cur_ || curPos_ == cur_->data.size(),
                "nextChunk() interleaved with partially consumed "
                "record reads");
    cur_.reset();
    curPos_ = 0;
    std::shared_ptr<const StreamChunk> chunk = ring_.pop();
    if (chunk)
        delivered_.fetch_add(chunk->data.size(),
                             std::memory_order_relaxed);
    return chunk;
}

std::uint64_t
StreamingTraceSource::length() const
{
    const std::uint64_t total =
        total_.load(std::memory_order_acquire);
    return total != 0
               ? total
               : delivered_.load(std::memory_order_relaxed);
}

// -------------------------------------------------------------- StreamTee

StreamTee::StreamTee(TraceSource &upstream, unsigned cursors,
                     std::size_t chunk_records)
    : upstream_(upstream),
      chunked_(dynamic_cast<ChunkedTraceSource *>(&upstream)),
      chunkRecords_(chunk_records == 0 ? 1 : chunk_records)
{
    ACIC_ASSERT(cursors > 0, "StreamTee needs at least one cursor");
    cursors_.reserve(cursors);
    for (unsigned i = 0; i < cursors; ++i)
        cursors_.push_back(std::make_unique<Cursor>(*this, i));
}

StreamTee::~StreamTee() = default;

bool
StreamTee::pullLocked()
{
    if (eof_)
        return false;
    const std::uint64_t end = end_.load(std::memory_order_relaxed);
    if (chunked_ != nullptr) {
        // Zero-copy path: adopt the ring's chunk as-is. The records
        // were decoded once on the reader thread and are never
        // copied again.
        std::shared_ptr<const StreamChunk> chunk =
            chunked_->nextChunk();
        if (!chunk) {
            eof_ = true;
            return false;
        }
        if (chunk->data.empty())
            return true;
        const std::uint64_t got = chunk->data.size();
        chunks_.push_back(Entry{end, std::move(chunk)});
        end_.store(end + got, std::memory_order_release);
        return true;
    }
    const unsigned got = upstream_.decodeBatch(scratch_);
    if (got == 0) {
        eof_ = true;
        // Close the staging chunk: nothing will be appended again,
        // so trim() may now drop it once every cursor passes it.
        open_.reset();
        return false;
    }
    if (!open_ || open_->data.size() + got > chunkRecords_) {
        open_ = std::make_shared<StreamChunk>();
        // reserve() once: record addresses stay stable while the
        // chunk fills, so concurrently captured cursor windows into
        // the visible prefix never dangle.
        open_->data.reserve(chunkRecords_);
        chunks_.push_back(Entry{end, open_});
    }
    for (unsigned i = 0; i < got; ++i)
        open_->data.push_back(scratch_.get(i));
    end_.store(end + got, std::memory_order_release);
    return true;
}

std::uint64_t
StreamTee::ensureBuffered(std::uint64_t target)
{
    std::lock_guard<std::mutex> lock(mu_);
    while (end_.load(std::memory_order_relaxed) < target &&
           pullLocked()) {
    }
    return end_.load(std::memory_order_relaxed);
}

bool
StreamTee::exhausted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return eof_;
}

bool
StreamTee::windowAtLocked(std::uint64_t pos, Window &out)
{
    while (pos >= end_.load(std::memory_order_relaxed) &&
           pullLocked()) {
    }
    const std::uint64_t end = end_.load(std::memory_order_relaxed);
    if (pos >= end)
        return false;
    for (const Entry &e : chunks_) {
        // The tail chunk may still be filling on the generic path;
        // only the records below end_ are published.
        const std::uint64_t chunk_end =
            std::min<std::uint64_t>(e.base + e.chunk->data.size(),
                                    end);
        if (pos >= e.base && pos < chunk_end) {
            out.recs = e.chunk->data.data() +
                       static_cast<std::size_t>(pos - e.base);
            out.base = pos;
            out.count = chunk_end - pos;
            out.owner = e.chunk;
            return true;
        }
    }
    ACIC_FATAL("StreamTee cursor position fell below the trimmed "
               "backlog");
    return false;
}

void
StreamTee::trim()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t min_pos = ~std::uint64_t(0);
    for (const auto &cursor : cursors_) {
        const std::uint64_t p =
            cursor->pos_.load(std::memory_order_relaxed);
        if (p < min_pos)
            min_pos = p;
    }
    while (!chunks_.empty()) {
        const Entry &front = chunks_.front();
        // Never drop the chunk still being filled: upcoming records
        // would land in a chunk no cursor can find.
        if (front.chunk == open_)
            break;
        const std::uint64_t front_end =
            front.base + front.chunk->data.size();
        if (front_end > min_pos)
            break;
        start_.store(front_end, std::memory_order_release);
        chunks_.pop_front();
    }
}

// ------------------------------------------------------ StreamTee::Cursor

StreamTee::Cursor::Cursor(StreamTee &tee, unsigned index)
    : tee_(tee), index_(index)
{
}

void
StreamTee::Cursor::reset()
{
    if (pos_.load(std::memory_order_relaxed) != 0)
        ACIC_FATAL("cannot rewind a live-stream cursor "
                   "(single-pass source)");
}

bool
StreamTee::Cursor::refill()
{
    const std::uint64_t pos = pos_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(tee_.mu_);
    Window w;
    if (!tee_.windowAtLocked(pos, w))
        return false;
    win_ = std::move(w);
    return true;
}

bool
StreamTee::Cursor::next(TraceInst &out)
{
    const std::uint64_t pos = pos_.load(std::memory_order_relaxed);
    if ((win_.recs == nullptr || pos >= win_.base + win_.count) &&
        !refill())
        return false;
    out = win_.recs[static_cast<std::size_t>(pos - win_.base)];
    pos_.store(pos + 1, std::memory_order_relaxed);
    return true;
}

const TraceInst *
StreamTee::Cursor::acquireRun(std::uint64_t max, std::uint64_t &n)
{
    n = 0;
    if (max == 0)
        return nullptr;
    const std::uint64_t pos = pos_.load(std::memory_order_relaxed);
    // Pull on demand: a cursor must never report a premature
    // end-of-stream (BundleWalker latches exhaustion).
    if ((win_.recs == nullptr || pos >= win_.base + win_.count) &&
        !refill())
        return nullptr;
    std::uint64_t run = win_.base + win_.count - pos;
    if (run > max)
        run = max;
    // Pin the owning chunk so trim() cannot free storage the walker
    // still reads from (the run pointer outlives this call).
    pin_ = win_.owner;
    pos_.store(pos + run, std::memory_order_relaxed);
    n = run;
    return win_.recs + static_cast<std::size_t>(pos - win_.base);
}

std::uint64_t
StreamTee::Cursor::length() const
{
    const std::uint64_t up = tee_.upstream_.length();
    const std::uint64_t end = tee_.bufferedEnd();
    return up > end ? up : end;
}

const std::string &
StreamTee::Cursor::name() const
{
    return tee_.upstream_.name();
}

} // namespace acic
