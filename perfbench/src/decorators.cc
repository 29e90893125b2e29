#include "decorators.hh"

#include "measure.hh"

namespace perfbench {

namespace {

/** Median host time an empty timed scope reports: the part of the
 *  clock's own cost that lands inside every measured interval. */
double
measureClockBias()
{
    std::vector<double> batches;
    for (int b = 0; b < 9; ++b) {
        CallTimer timer;
        for (int i = 0; i < 10'000; ++i)
            Stopwatch sw(timer);
        batches.push_back(static_cast<double>(timer.ns) /
                          static_cast<double>(timer.timed));
    }
    return median(batches);
}

} // namespace

double
CallTimer::perCallNs() const
{
    static const double bias = measureClockBias();
    if (timed == 0)
        return 0.0;
    const double mean =
        static_cast<double>(ns) / static_cast<double>(timed);
    return mean > bias ? mean - bias : 0.0;
}

void
CallTimer::merge(const CallTimer &other)
{
    calls += other.calls;
    timed += other.timed;
    ns += other.ns;
}

} // namespace perfbench
