/**
 * @file
 * Clocks, order statistics, consistency bookkeeping and the result
 * line shared by every benchmark lane.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"

namespace perfbench {

/** Monotonic wall clock, seconds. */
double wallSeconds();

/** CPU time of the whole process (every thread), seconds. */
double processCpuSeconds();

/** Peak resident set of this process so far, MiB. */
double peakRssMb();

/** CPUs this process may run on (what `nproc` prints). */
unsigned usableCpus();

/** Linear-interpolated quantile, @p q in [0, 1]; 0 when empty. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** The full statistics dump of one run (golden-corpus format). */
std::string statsDump(const acic::SimResult &result);

/**
 * Consistency checks: every check counts as attempted, every
 * mismatch as failed and is reported on stderr.
 */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void expect(bool ok, const std::string &what);
};

/**
 * The metrics of one invocation, printed as a table and then as the
 * final JSON line.
 */
class Report
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);

    /** A free-form line printed above the result. */
    void note(const std::string &line) { notes_.push_back(line); }

    /** Print notes, the metric table and the result line. */
    void print(const Checks &checks) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
