/**
 * @file
 * Tests of the resumable simulation engine (sim/engine.hh): the
 * warmUp()/measure() phase API must reproduce the legacy monolithic
 * run() bit-for-bit (the K=1 acceptance criterion), the warmup
 * snapshot must latch exactly once — including under the
 * ACIC_TRACE_LEN override, where tiny trace lengths drive
 * warmupFraction to degenerate values — and mergeSimResults() must
 * recompute derived rates from summed counters. The two exact
 * shortcuts of the engine are checked against the slow way: the
 * skipping clock against stepping every cycle, and the shared branch
 * table against live prediction.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "driver/emitters.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "trace/workload_params.hh"

using namespace acic;

namespace {

/** Small shared workload; fixed length, immune to ACIC_TRACE_LEN. */
const SharedWorkload &
workload()
{
    static const SharedWorkload shared = [] {
        WorkloadParams params = Workloads::byName("web_search");
        params.instructions = 60'000;
        return SharedWorkload(params);
    }();
    return shared;
}

std::string
dumpOf(const SimResult &result)
{
    std::ostringstream out;
    writeGoldenDump(out, result);
    return out.str();
}

/** Run the phase API with an explicit warmup/measure split. */
SimResult
phasedRun(const SharedWorkload &shared, const std::string &spec,
          std::uint64_t warmup, std::uint64_t measured)
{
    auto org = makeScheme(parseScheme(spec), shared.config());
    MemoryTraceSource cursor = shared.source();
    SimEngine engine(shared.config(), cursor, *org,
                     &shared.oracle());
    engine.warmUp(warmup);
    engine.measure(measured);
    return engine.finish();
}

} // namespace

TEST(SimEngine, PhaseApiMatchesLegacyRunBitForBit)
{
    const SharedWorkload &shared = workload();
    const std::uint64_t total = shared.instructions();
    const auto warmup = static_cast<std::uint64_t>(
        static_cast<double>(total) *
        shared.config().warmupFraction);

    for (const char *spec : {"lru", "acic", "srrip", "opt_bypass"}) {
        const SimResult legacy = shared.run(parseScheme(spec));
        const SimResult phased =
            phasedRun(shared, spec, warmup, total - warmup);
        EXPECT_EQ(dumpOf(legacy), dumpOf(phased)) << spec;
    }
}

TEST(SimEngine, MeasureWithoutWarmupLatchesAtStart)
{
    const SharedWorkload &shared = workload();
    const std::uint64_t total = shared.instructions();

    // measure() with no prior warmUp() must behave as warmUp(0):
    // the snapshot latches before the first cycle and the whole
    // trace is measured.
    auto org = makeScheme(parseScheme("lru"), shared.config());
    MemoryTraceSource cursor = shared.source();
    SimEngine engine(shared.config(), cursor, *org,
                     &shared.oracle());
    engine.measure(total);
    const SimResult all = engine.finish();
    EXPECT_EQ(all.instructions, total);
    EXPECT_EQ(dumpOf(all), dumpOf(phasedRun(shared, "lru", 0, total)));
}

TEST(SimEngine, MeasurePhasesAccumulate)
{
    const SharedWorkload &shared = workload();
    const std::uint64_t total = shared.instructions();
    const std::uint64_t warmup = total / 10;

    // Two measure() calls must equal one covering the same span —
    // resumability: stopping and continuing is invisible.
    auto org = makeScheme(parseScheme("acic"), shared.config());
    MemoryTraceSource cursor = shared.source();
    SimEngine engine(shared.config(), cursor, *org,
                     &shared.oracle());
    engine.warmUp(warmup);
    const std::uint64_t first = (total - warmup) / 3;
    engine.measure(first);
    engine.measure(total - warmup - first);
    EXPECT_EQ(dumpOf(engine.finish()),
              dumpOf(phasedRun(shared, "acic", warmup,
                               total - warmup)));
}

TEST(SimEngine, TraceLenOverrideSnapshotsWarmupExactlyOnce)
{
    // ACIC_TRACE_LEN shrinks the trace under the same
    // warmupFraction; the warmup snapshot must still latch exactly
    // once and the phase API must match legacy run() bit-for-bit on
    // the overridden length (including length 1, where the warmup
    // rounds to zero instructions and the snapshot latches before
    // the first cycle).
    for (const char *len : {"30000", "5000", "1"}) {
        ASSERT_EQ(setenv("ACIC_TRACE_LEN", len, 1), 0);
        WorkloadParams params = Workloads::byName("tpcc");
        const WorkloadParams effective = withEnvOverrides(params);
        unsetenv("ACIC_TRACE_LEN");
        ASSERT_EQ(effective.instructions,
                  std::strtoull(len, nullptr, 10));

        const SharedWorkload shared(effective);
        const std::uint64_t total = shared.instructions();
        const auto warmup = static_cast<std::uint64_t>(
            static_cast<double>(total) *
            shared.config().warmupFraction);

        const SimResult legacy = shared.run(parseScheme("acic"));
        // The measured span is the nominal post-warmup region even
        // when retirement overshoots the warmup target mid-cycle —
        // a second snapshot would shrink it.
        EXPECT_EQ(legacy.instructions, total - warmup) << len;
        const SimResult phased =
            phasedRun(shared, "acic", warmup, total - warmup);
        EXPECT_EQ(dumpOf(legacy), dumpOf(phased)) << len;
    }
}

TEST(MergeSimResults, SumsCountersAndRecomputesRates)
{
    SimResult a;
    a.workload = "w";
    a.scheme = "s";
    a.instructions = 1000;
    a.cycles = 2000;
    a.l1iMisses = 10;
    a.demandAccesses = 300;
    a.orgStats.bump("org.x", 5);

    SimResult b;
    b.workload = "w";
    b.scheme = "s";
    b.instructions = 3000;
    b.cycles = 2000;
    b.l1iMisses = 50;
    b.demandAccesses = 900;
    b.orgStats.bump("org.x", 7);
    b.orgStats.bump("org.y", 1);

    const SimResult merged = mergeSimResults({a, b});
    EXPECT_EQ(merged.workload, "w");
    EXPECT_EQ(merged.instructions, 4000u);
    EXPECT_EQ(merged.cycles, 4000u);
    EXPECT_EQ(merged.l1iMisses, 60u);
    EXPECT_EQ(merged.demandAccesses, 1200u);
    // Rates recompute from the sums (instruction-weighted), not
    // from averaging the per-part rates.
    EXPECT_DOUBLE_EQ(merged.ipc(), 1.0);
    EXPECT_DOUBLE_EQ(merged.mpki(), 15.0);
    EXPECT_EQ(merged.orgStats.get("org.x"), 12u);
    EXPECT_EQ(merged.orgStats.get("org.y"), 1u);
}

TEST(SimInterval, PlanCoversMeasuredRegionExactly)
{
    const auto plan = planIntervals(1000, 10'000, 4, 600);
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan.front().begin, 1000u);
    EXPECT_EQ(plan.back().end, 10'000u);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (i > 0)
            EXPECT_EQ(plan[i].begin, plan[i - 1].end);
        EXPECT_EQ(plan[i].warmup(),
                  plan[i].begin >= 600 ? 600u : plan[i].begin);
        EXPECT_LE(plan[i].funcStart, plan[i].warmStart);
    }
    // Warmup clips at the trace start.
    const auto clipped = planIntervals(100, 4100, 2, 600);
    EXPECT_EQ(clipped.front().warmStart, 0u);
}

TEST(SimInterval, PlanClampsDegenerateShapes)
{
    // More intervals than instructions collapse to one per inst.
    EXPECT_EQ(planIntervals(0, 3, 8, 0).size(), 3u);
    // An empty region yields a single empty interval.
    const auto empty = planIntervals(500, 500, 4, 100);
    ASSERT_EQ(empty.size(), 1u);
    EXPECT_EQ(empty.front().measured(), 0u);
    // The horizon bounds the functional prefix.
    const auto bounded = planIntervals(0, 9000, 3, 100, 1000);
    for (const SimInterval &iv : bounded)
        EXPECT_LE(iv.warmStart - iv.funcStart, 1000u);
}

TEST(SimEngine, FullWarmupShardsMergeToFullRunUpToSeamCycles)
{
    // With warmStart = 0 (every shard replays the whole prefix
    // under full timing) each shard walks the monolithic trajectory
    // up to seam effects, so merged counters equal the full run's
    // within structural bounds per seam: (a) a shard's last cycle
    // runs to completion while the next shard's snapshot latches
    // mid-cycle at its retire stage, double-counting the post-retire
    // stages of each of the K-1 seam cycles; (b) a shard's walker
    // ends at its region boundary, so the BP unit's FTQ runahead
    // past the seam (up to ftqEntries x fetchWidth instructions,
    // counted inside the next shard's snapshot) is seen by neither
    // side; and (c) the missing runahead perturbs in-flight
    // prefetch/MSHR pressure for the few hundred cycles before the
    // seam. All three are O(FTQ) per seam, independent of the
    // interval length — which is the property under test.
    const SharedWorkload &shared = workload();
    const std::uint64_t total = shared.instructions();
    const auto warm = static_cast<std::uint64_t>(
        static_cast<double>(total) *
        shared.config().warmupFraction);
    const SimResult full = shared.run(parseScheme("acic"));

    constexpr unsigned kShards = 3;
    std::vector<SimResult> parts;
    const auto plan = planIntervals(warm, total, kShards, 0);
    for (SimInterval iv : plan) {
        iv.warmStart = 0; // full timed history
        iv.funcStart = 0;
        auto org = makeScheme(parseScheme("acic"), shared.config());
        parts.push_back(shared.run(*org, iv));
    }
    const SimResult merged = mergeSimResults(parts);
    const std::uint64_t seams = kShards - 1;

    EXPECT_EQ(merged.instructions, full.instructions);
    const auto near = [seams](std::uint64_t got, std::uint64_t want,
                              std::uint64_t per_seam,
                              const char *what) {
        const std::uint64_t slack = seams * per_seam;
        EXPECT_GE(got + slack, want) << what;
        EXPECT_LE(got, want + slack) << what;
    };
    near(merged.cycles, full.cycles + seams, 64, "cycles");
    near(merged.demandAccesses, full.demandAccesses, 32, "demand");
    near(merged.l1iMisses, full.l1iMisses, 32, "misses");
    // The FTQ runahead holds up to 24 bundles x 6 instructions.
    near(merged.branchMispredicts, full.branchMispredicts, 160,
         "mispredicts");
    near(merged.btbMisses, full.btbMisses, 160, "btb");
    near(merged.prefetchesIssued, full.prefetchesIssued, 32, "pf");
    near(merged.latePrefetches, full.latePrefetches, 32, "late");
}

namespace {

/**
 * Forwards the whole IcacheOrg surface to a wrapped organization but
 * keeps its own tickWake_ at 0: every cycle dispatches tick(), which
 * counts as a stage acting, so the engine steps every cycle. tick()
 * hands the decision back to the wrapped organization's maybeTick(),
 * which ticks on exactly the cycles it would undecorated.
 */
class EveryCycleOrg final : public IcacheOrg
{
  public:
    explicit EveryCycleOrg(std::unique_ptr<IcacheOrg> inner)
        : inner_(std::move(inner))
    {
        tickWake_ = 0;
    }

    bool access(const CacheAccess &a) override { return inner_->access(a); }
    void fill(const CacheAccess &a) override { inner_->fill(a); }
    bool contains(BlockAddr blk) const override
    {
        return inner_->contains(blk);
    }
    void tick(Cycle now) override { inner_->maybeTick(now); }
    std::string name() const override { return inner_->name(); }
    std::uint64_t storageOverheadBits() const override
    {
        return inner_->storageOverheadBits();
    }
    const StatSet &stats() const override { return inner_->stats(); }
    void save(Serializer &s) const override { inner_->save(s); }
    void load(Deserializer &d) override { inner_->load(d); }

  private:
    std::unique_ptr<IcacheOrg> inner_;
};

} // namespace

TEST(Engine, SkippedClockMatchesEveryCycle)
{
    const SharedWorkload &shared = workload();
    const std::uint64_t total = shared.instructions();
    const std::uint64_t warmup = total / 10;
    for (const PrefetcherKind prefetcher :
         {PrefetcherKind::Fdp, PrefetcherKind::Entangling,
          PrefetcherKind::None}) {
        SimConfig config = shared.config();
        config.prefetcher = prefetcher;
        for (const char *spec :
             {"lru", "acic", "opt_bypass", "harmony", "vvc"}) {
            const std::string what =
                std::string(spec) + " prefetcher " +
                std::to_string(static_cast<int>(prefetcher));
            auto org = makeScheme(parseScheme(spec), config);
            MemoryTraceSource cursor = shared.source();
            SimEngine skipping(config, cursor, *org, &shared.oracle());
            skipping.warmUp(warmup);
            skipping.measure(total - warmup);

            EveryCycleOrg every_org(makeScheme(parseScheme(spec), config));
            MemoryTraceSource every_cursor = shared.source();
            SimEngine every(config, every_cursor, every_org,
                            &shared.oracle());
            every.warmUp(warmup);
            every.measure(total - warmup);

            EXPECT_EQ(dumpOf(skipping.finish()), dumpOf(every.finish()))
                << what;
            EXPECT_EQ(every.steps(), every.cycles()) << what;
            EXPECT_EQ(skipping.cycles(), every.cycles()) << what;
            EXPECT_LT(skipping.steps(), every.steps()) << what;
        }
    }
}

TEST(Engine, BranchTableMatchesLivePrediction)
{
    std::vector<WorkloadParams> presets = Workloads::datacenter();
    for (const WorkloadParams &p : Workloads::spec())
        presets.push_back(p);
    for (WorkloadParams params : presets) {
        params.instructions = 40'000;
        const SharedWorkload shared(params);
        const std::uint64_t total = shared.instructions();
        const std::uint64_t warmup = shared.wholeRun().warmup();
        const auto simulate = [&](const BranchTable *branches) {
            auto org = makeScheme(parseScheme("acic"), shared.config());
            MemoryTraceSource cursor = shared.source();
            SimEngine engine(shared.config(), cursor, *org,
                             &shared.oracle(), branches);
            engine.warmUp(warmup);
            engine.measure(total - warmup);
            return dumpOf(engine.finish());
        };
        const std::string predicted = simulate(nullptr);
        EXPECT_EQ(predicted, simulate(&shared.branchTable()))
            << params.name;
        // run() over wholeRun() reads the table.
        EXPECT_EQ(predicted, dumpOf(shared.run(parseScheme("acic"))))
            << params.name;
    }
}
