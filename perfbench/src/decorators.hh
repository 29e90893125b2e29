/**
 * @file
 * Outside-in instrumentation for the traced run: decorators that sit
 * between the simulation engine and the two interfaces it consumes —
 * its trace source and its i-cache organization — and time the calls
 * crossing them. They forward every call unchanged (the checks prove
 * the simulated statistics stay bit-identical), so the program itself
 * carries no benchmark tracing.
 */

#ifndef PERFBENCH_DECORATORS_HH
#define PERFBENCH_DECORATORS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "cache/icache_org.hh"
#include "trace/trace.hh"

namespace perfbench {

/**
 * Calls crossing one boundary: every call is counted, and one in
 * (sampleMask + 1) is timed, which keeps the clock's own cost (tens
 * of ns per read on a VM) from swamping calls that take about as
 * long.
 */
struct CallTimer
{
    explicit CallTimer(std::uint64_t sample_mask = 0)
        : sampleMask(sample_mask)
    {
    }

    std::uint64_t sampleMask;
    std::uint64_t calls = 0;
    std::uint64_t timed = 0;
    std::uint64_t ns = 0; ///< total over the timed calls

    /** Mean host time per call, net of the clock-read bias. */
    double perCallNs() const;

    /** Estimated host time over every call. */
    double totalNs() const
    {
        return perCallNs() * static_cast<double>(calls);
    }

    void merge(const CallTimer &other);
};

/** Counts the scope as one call; times it when sampled. */
class Stopwatch
{
  public:
    explicit Stopwatch(CallTimer &timer)
        : timer_(timer), sampled_((timer.calls++ & timer.sampleMask) == 0)
    {
        if (sampled_)
            start_ = std::chrono::steady_clock::now();
    }
    ~Stopwatch()
    {
        if (!sampled_)
            return;
        timer_.ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count());
        ++timer_.timed;
    }
    Stopwatch(const Stopwatch &) = delete;
    Stopwatch &operator=(const Stopwatch &) = delete;

  private:
    CallTimer &timer_;
    bool sampled_;
    std::chrono::steady_clock::time_point start_{};
};

/**
 * Times every record-supplying call into a TraceSource: acquireRun,
 * decodeBatch, next and seekTo. Forwarding acquireRun keeps the
 * engine on the source's zero-copy path.
 */
class TimedSource final : public acic::TraceSource
{
  public:
    explicit TimedSource(acic::TraceSource &inner) : inner_(inner) {}

    void reset() override { inner_.reset(); }

    bool
    next(acic::TraceInst &out) override
    {
        Stopwatch sw(pull);
        const bool got = inner_.next(out);
        records += got ? 1 : 0;
        return got;
    }

    unsigned
    decodeBatch(acic::InstBatch &out) override
    {
        Stopwatch sw(pull);
        const unsigned n = inner_.decodeBatch(out);
        records += n;
        return n;
    }

    const acic::TraceInst *
    acquireRun(std::uint64_t max, std::uint64_t &n) override
    {
        Stopwatch sw(pull);
        const acic::TraceInst *run = inner_.acquireRun(max, n);
        records += n;
        return run;
    }

    bool
    seekTo(std::uint64_t index) override
    {
        Stopwatch sw(pull);
        return inner_.seekTo(index);
    }

    std::uint64_t length() const override { return inner_.length(); }
    const std::string &name() const override { return inner_.name(); }

    CallTimer pull;
    std::uint64_t records = 0;

  private:
    acic::TraceSource &inner_;
};

/**
 * Owns an organization and forwards the whole IcacheOrg surface to
 * it. tickWake_ stays 0 so the engine's maybeTick() always reaches
 * tick(), which hands the decision back to the wrapped
 * organization's own maybeTick() — it ticks on exactly the cycles it
 * would undecorated.
 */
class ForwardingOrg : public acic::IcacheOrg
{
  public:
    explicit ForwardingOrg(std::unique_ptr<acic::IcacheOrg> inner)
        : inner_(std::move(inner))
    {
        tickWake_ = 0;
    }

    bool
    access(const acic::CacheAccess &access) override
    {
        return inner_->access(access);
    }
    void
    fill(const acic::CacheAccess &access) override
    {
        inner_->fill(access);
    }
    bool
    contains(acic::BlockAddr blk) const override
    {
        return inner_->contains(blk);
    }
    void tick(acic::Cycle now) override { inner_->maybeTick(now); }
    std::string name() const override { return inner_->name(); }
    std::uint64_t
    storageOverheadBits() const override
    {
        return inner_->storageOverheadBits();
    }
    const acic::StatSet &
    stats() const override
    {
        return inner_->stats();
    }
    void save(acic::Serializer &s) const override { inner_->save(s); }
    void load(acic::Deserializer &d) override { inner_->load(d); }

  protected:
    std::unique_ptr<acic::IcacheOrg> inner_;
};

/** Times demand accesses and fills into the wrapped organization,
 *  one call in eight. */
class TimedOrg final : public ForwardingOrg
{
  public:
    using ForwardingOrg::ForwardingOrg;

    bool
    access(const acic::CacheAccess &a) override
    {
        Stopwatch sw(accesses);
        return inner_->access(a);
    }
    void
    fill(const acic::CacheAccess &a) override
    {
        Stopwatch sw(fills);
        inner_->fill(a);
    }

    CallTimer accesses{7};
    CallTimer fills{7};
};

} // namespace perfbench

#endif // PERFBENCH_DECORATORS_HH
