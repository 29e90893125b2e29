#include "measure.hh"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/json.hh"
#include "driver/emitters.hh"

namespace perfbench {

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return 1;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string
statsDump(const acic::SimResult &result)
{
    std::ostringstream out;
    acic::writeGoldenDump(out, result);
    return out.str();
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
    }
}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::print(const Checks &checks) const
{
    for (const std::string &line : notes_)
        std::printf("%s\n", line.c_str());
    for (const Metric &m : metrics_)
        std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%-34s %16.6f (%llu of %llu checks failed)\n",
                "ops_failed_frac",
                checks.attempted == 0
                    ? 0.0
                    : static_cast<double>(checks.failed) /
                          static_cast<double>(checks.attempted),
                static_cast<unsigned long long>(checks.failed),
                static_cast<unsigned long long>(checks.attempted));

    std::string line = "{\"correct\": ";
    line += checks.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(checks.attempted);
    line += ", \"failed\": " + std::to_string(checks.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      metrics_[i].value);
        line += (i ? ", \"" : "\"") +
                acic::json::escape(metrics_[i].name) +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                acic::json::escape(metrics_[i].unit) + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

} // namespace perfbench
