/**
 * @file
 * A framed stream delivered through a real pipe: the producer side of
 * the serve lane, and the stream-decode probe of the traced run.
 */

#ifndef PERFBENCH_STREAM_PIPE_HH
#define PERFBENCH_STREAM_PIPE_HH

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hh"

namespace perfbench {

/**
 * Writes a byte buffer into a pipe from its own thread. The consumer
 * reads readFd() but does not own it: the destructor closes it, so a
 * write blocked on a consumer that stopped reading (or never started,
 * when its constructor threw) fails with EPIPE and the thread can be
 * joined. Destroy the consumer first.
 */
class PipeProducer
{
  public:
    explicit PipeProducer(const std::vector<std::uint8_t> &bytes);
    ~PipeProducer();

    PipeProducer(const PipeProducer &) = delete;
    PipeProducer &operator=(const PipeProducer &) = delete;

    int readFd() const { return readFd_; }

  private:
    int readFd_ = -1;
    std::thread thread_;
};

/** Read a whole file. */
std::vector<std::uint8_t> readBytes(const std::string &path);

/**
 * Drain a framed stream through StreamingTraceSource::nextChunk with
 * no engines attached — pipe transport plus frame decode — and add
 * its host time and record count to @p layers.
 */
void timeStreamDecode(const std::vector<std::uint8_t> &bytes,
                      Layers &layers);

} // namespace perfbench

#endif // PERFBENCH_STREAM_PIPE_HH
