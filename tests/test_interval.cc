/**
 * @file
 * Interval-parallel simulation tests: the driver's --intervals path
 * must agree with the monolithic pass (merged MPKI within 2% of the
 * full-run MPKI on every catalog workload — the acceptance bar of
 * the interval-simulation work), sharded execution must be
 * deterministic across thread counts, one run per planned region
 * must match the driver's own sharding, and `acic_run stat` must
 * reject an empty trace with a clear error and a nonzero exit
 * (spawned through the real CLI binary).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#endif

#include "driver/experiment.hh"
#include "sim/runner.hh"
#include "trace/catalog.hh"
#include "trace/io.hh"

using namespace acic;

namespace {

/** Catalog-wide spec at a ctest-friendly length. */
ExperimentSpec
catalogSpec(unsigned intervals)
{
    ExperimentSpec spec;
    spec.workloads = WorkloadCatalog::builtin().resolve("all");
    spec.schemes = parseSchemeList("acic");
    spec.instructions = 600'000;
    spec.threads = 2;
    spec.intervals = intervals;
    return spec;
}

double
relDiff(double a, double b)
{
    if (a == 0.0 && b == 0.0)
        return 0.0;
    const double base = a == 0.0 ? b : a;
    const double d = (b - a) / base;
    return d < 0 ? -d : d;
}

} // namespace

TEST(IntervalDriver, MergedMpkiWithinTwoPercentOnEveryCatalogWorkload)
{
    const auto full = ExperimentDriver(catalogSpec(1)).run();
    const auto merged = ExperimentDriver(catalogSpec(4)).run();
    ASSERT_EQ(full.size(), merged.size());
    const auto workloads = catalogSpec(1).workloads;
    for (std::size_t i = 0; i < full.size(); ++i) {
        const double f = full[i].result.mpki();
        const double m = merged[i].result.mpki();
        EXPECT_LE(relDiff(f, m), 0.02)
            << workloads[full[i].workloadIndex].name()
            << ": full mpki " << f << " vs merged " << m;
        // The merged measured span is the full run's span.
        EXPECT_EQ(merged[i].result.instructions,
                  full[i].result.instructions);
    }
}

TEST(IntervalDriver, ShardedResultsIdenticalAcrossThreadCounts)
{
    ExperimentSpec one = catalogSpec(3);
    one.workloads = {Workloads::byName("web_search")};
    one.instructions = 120'000;
    one.threads = 1;
    ExperimentSpec four = one;
    four.threads = 4;
    const auto a = ExperimentDriver(one).run();
    const auto b = ExperimentDriver(four).run();
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0].result.cycles, b[0].result.cycles);
    EXPECT_EQ(a[0].result.l1iMisses, b[0].result.l1iMisses);
    EXPECT_EQ(a[0].result.orgStats.raw(),
              b[0].result.orgStats.raw());
}

TEST(IntervalDriver, PerRegionRunsMatchDriverSharding)
{
    // The driver's sharded cell is exactly one run per planned
    // region, merged.
    WorkloadParams params = Workloads::byName("tpcc");
    params.instructions = 150'000;
    const SharedWorkload shared(params);
    const SimInterval whole = shared.wholeRun();
    std::vector<SimResult> parts;
    for (const SimInterval &region :
         planIntervals(whole.begin, whole.end, 4, 30'000)) {
        auto org = makeScheme(parseScheme("acic"), shared.config());
        parts.push_back(shared.run(*org, region));
    }
    const SimResult manual = mergeSimResults(parts);

    ExperimentSpec spec;
    spec.workloads = {params};
    spec.schemes = parseSchemeList("acic");
    spec.intervals = 4;
    spec.intervalWarmup = 30'000;
    spec.threads = 2;
    const auto cells = ExperimentDriver(spec).run();
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(manual.cycles, cells[0].result.cycles);
    EXPECT_EQ(manual.l1iMisses, cells[0].result.l1iMisses);
    EXPECT_EQ(manual.instructions, cells[0].result.instructions);
    EXPECT_EQ(manual.orgStats.raw(), cells[0].result.orgStats.raw());
}

TEST(IntervalDriver, IntervalsOneUsesLegacyMonolithicPath)
{
    // K = 1 must be bit-identical to the serial SharedWorkload pass
    // (the acceptance criterion that interval support changes
    // nothing unless asked for).
    WorkloadParams params = Workloads::byName("media_streaming");
    params.instructions = 100'000;
    const SharedWorkload shared(params);
    const SimResult serial = shared.run(parseScheme("acic"));

    ExperimentSpec spec;
    spec.workloads = {params};
    spec.schemes = parseSchemeList("acic");
    spec.intervals = 1;
    spec.threads = 2;
    const auto cells = ExperimentDriver(spec).run();
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(serial.cycles, cells[0].result.cycles);
    EXPECT_EQ(serial.l1iMisses, cells[0].result.l1iMisses);
    EXPECT_EQ(serial.orgStats.raw(),
              cells[0].result.orgStats.raw());
}

#ifndef _WIN32
TEST(StatCli, MissingTraceNamesThePath)
{
    const std::string path = "no_such_dir/missing.acictrace";
    const std::string err = "acic_test_missing.stderr";
    const std::string cmd = std::string(ACIC_RUN_BIN) + " stat " +
                            path + " >/dev/null 2>" + err;
    const int status = std::system(cmd.c_str());
    ASSERT_NE(status, -1);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);

    std::ifstream in(err);
    const std::string captured((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    std::remove(err.c_str());
    EXPECT_NE(captured.find(path), std::string::npos)
        << "stderr was: " << captured;
}

TEST(StatCli, EmptyTraceFailsWithClearError)
{
    // A zero-record trace is structurally valid on disk, but every
    // percentage `stat` prints would be 0/0; the CLI must refuse it
    // loudly instead of printing a page of zeros (exit 1, message on
    // stderr).
    const std::string path = "acic_test_empty.acictrace";
    {
        TraceWriter writer(path, "empty");
        writer.close();
    }
    TraceHeader info;
    ASSERT_TRUE(readTraceHeader(path, info));
    EXPECT_EQ(info.instructions, 0u);

    const std::string err = path + ".stderr";
    const std::string cmd = std::string(ACIC_RUN_BIN) + " stat " +
                            path + " >/dev/null 2>" + err;
    const int status = std::system(cmd.c_str());
    ASSERT_NE(status, -1);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);

    std::string captured;
    if (FILE *f = std::fopen(err.c_str(), "rb")) {
        char buf[512];
        std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
        buf[n] = '\0';
        captured = buf;
        std::fclose(f);
    }
    EXPECT_NE(captured.find("empty trace"), std::string::npos)
        << "stderr was: " << captured;

    std::remove(path.c_str());
    std::remove(err.c_str());
}
#endif
