/**
 * @file
 * Integration tests of the timing simulator and the scheme catalogue:
 * full-run invariants (all instructions retire, IPC bounds, miss
 * accounting), determinism, OPT-never-worse property, scheme factory
 * coverage, and prefetcher effects.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"

using namespace acic;

namespace {

WorkloadParams
tinyWorkload(const char *name = "sibench",
             std::uint64_t instructions = 200'000)
{
    auto params = Workloads::byName(name);
    params.instructions = instructions;
    return params;
}

} // namespace

TEST(Simulator, RetiresEveryInstruction)
{
    const SharedWorkload workload(tinyWorkload());
    const SimResult r = workload.run(parseScheme("lru"));
    // Post-warmup instructions = 90% of the trace.
    EXPECT_EQ(r.instructions, 180'000u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(Simulator, IpcWithinPhysicalBounds)
{
    const SharedWorkload workload(tinyWorkload());
    const SimResult r = workload.run(parseScheme("lru"));
    EXPECT_GT(r.ipc(), 0.1);
    EXPECT_LE(r.ipc(), 6.0); // retire width
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const SharedWorkload workload(tinyWorkload());
    const SimResult a = workload.run(parseScheme("lru"));
    const SimResult b = workload.run(parseScheme("lru"));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
}

TEST(Simulator, MissesImplyDemandAccesses)
{
    const SharedWorkload workload(tinyWorkload());
    const SimResult r = workload.run(parseScheme("lru"));
    EXPECT_GT(r.demandAccesses, 0u);
    EXPECT_LE(r.l1iMisses, r.demandAccesses);
    EXPECT_GT(r.mpki(), 0.0);
}

TEST(Simulator, OptNeverMissesMoreThanLru)
{
    const SharedWorkload workload(tinyWorkload("media_streaming"));
    const SimResult lru = workload.run(parseScheme("lru"));
    const SimResult opt = workload.run(parseScheme("opt"));
    EXPECT_LE(opt.l1iMisses, lru.l1iMisses);
    EXPECT_LE(opt.cycles, lru.cycles + lru.cycles / 100);
}

TEST(Simulator, LargerIcacheDoesNotIncreaseMisses)
{
    const SharedWorkload workload(tinyWorkload("media_streaming"));
    const SimResult base = workload.run(parseScheme("lru"));
    const SimResult big = workload.run(parseScheme("l1i36k"));
    EXPECT_LE(big.l1iMisses, base.l1iMisses + base.l1iMisses / 50);
}

TEST(Simulator, PrefetchingReducesMisses)
{
    auto params = tinyWorkload("media_streaming");
    SimConfig no_prefetch;
    no_prefetch.prefetcher = PrefetcherKind::None;
    const SharedWorkload without(params, no_prefetch);
    const SharedWorkload with(params); // FDP default
    const SimResult r_without = without.run(parseScheme("lru"));
    const SimResult r_with = with.run(parseScheme("lru"));
    EXPECT_LT(r_with.l1iMisses, r_without.l1iMisses);
    EXPECT_GT(r_with.prefetchesIssued, 0u);
}

TEST(Simulator, EntanglingPrefetcherRuns)
{
    auto params = tinyWorkload("media_streaming");
    SimConfig config;
    config.prefetcher = PrefetcherKind::Entangling;
    const SharedWorkload workload(params, config);
    const SimResult r = workload.run(parseScheme("lru"));
    EXPECT_GT(r.prefetchesIssued, 0u);
    EXPECT_EQ(r.instructions, 180'000u);
}

TEST(Simulator, VictimCacheReducesMissesVsBaseline)
{
    const SharedWorkload workload(tinyWorkload("media_streaming"));
    const SimResult base = workload.run(parseScheme("lru"));
    const SimResult vc = workload.run(parseScheme("vc3k"));
    EXPECT_LE(vc.l1iMisses, base.l1iMisses);
}

class AllSchemes : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllSchemes, RunsToCompletionWithSaneMetrics)
{
    const SharedWorkload workload(tinyWorkload("data_serving", 100'000));
    const SchemeSpec spec = parseScheme(GetParam());
    const SimResult r = workload.run(spec);
    EXPECT_EQ(r.instructions, 90'000u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc(), 0.05);
    EXPECT_EQ(r.scheme, schemeName(spec));
}

INSTANTIATE_TEST_SUITE_P(
    Catalogue, AllSchemes,
    ::testing::Values("lru", "srrip", "ship", "harmony", "ghrp",
                      "dsb", "obm", "vvc", "vc3k", "vc8k", "l1i36k",
                      "l1i40k", "opt", "opt_bypass", "acic",
                      "acic_instant", "always_insert",
                      "ifilter_only", "access_count",
                      "random_bypass", "acic_global_history",
                      "acic_bimodal"),
    [](const auto &param_info) {
        std::string name = param_info.param;
        for (auto &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(Schemes, NamesAreUniqueAndNonEmpty)
{
    std::set<std::string> names;
    std::set<std::string> keys;
    for (const SchemeSpec &s : allSchemes()) {
        EXPECT_FALSE(schemeName(s).empty());
        EXPECT_TRUE(names.insert(schemeName(s)).second);
        EXPECT_TRUE(keys.insert(s.key).second);
    }
    EXPECT_EQ(names.size(), 22u);
}

TEST(Schemes, AcicStorageIs267Kb)
{
    const SimConfig config;
    const auto org = makeScheme(parseScheme("acic"), config);
    EXPECT_NEAR(static_cast<double>(org->storageOverheadBits()) /
                    8.0 / 1024.0,
                2.67, 0.01);
}

TEST(Schemes, LargerIcacheReportsCapacityOverhead)
{
    const SimConfig config;
    const auto org = makeScheme(parseScheme("l1i36k"), config);
    // 64 extra blocks: ~4 KB of data + tags.
    EXPECT_GT(org->storageOverheadBits(), 64u * 64 * 8);
}

TEST(Runner, EnvOverrideAppliesToLength)
{
    auto params = tinyWorkload();
    ::setenv("ACIC_TRACE_LEN", "123456", 1);
    const auto overridden =
        withEnvOverrides(params);
    EXPECT_EQ(overridden.instructions, 123'456u);
    ::unsetenv("ACIC_TRACE_LEN");
    const auto plain = withEnvOverrides(params);
    EXPECT_EQ(plain.instructions, params.instructions);
}
