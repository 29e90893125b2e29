#include "stream_pipe.hh"

#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "trace/streaming.hh"

namespace perfbench {

PipeProducer::PipeProducer(const std::vector<std::uint8_t> &bytes)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe() failed");
    readFd_ = fds[0];
    const int write_fd = fds[1];
    thread_ = std::thread([&bytes, write_fd] {
        std::size_t done = 0;
        while (done < bytes.size()) {
            const ssize_t n = ::write(write_fd, bytes.data() + done,
                                      bytes.size() - done);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break; // consumer went away
            done += static_cast<std::size_t>(n);
        }
        ::close(write_fd);
    });
}

PipeProducer::~PipeProducer()
{
    ::close(readFd_);
    thread_.join();
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
timeStreamDecode(const std::vector<std::uint8_t> &bytes, Layers &layers)
{
    const double t0 = wallSeconds();
    PipeProducer producer(bytes);
    acic::StreamingTraceSource source(producer.readFd(), false);
    std::uint64_t records = 0;
    while (const auto chunk = source.nextChunk())
        records += chunk->data.size();
    layers.decodeNs += (wallSeconds() - t0) * 1e9;
    layers.decodeInsts += records;
}

} // namespace perfbench
