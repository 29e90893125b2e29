/**
 * @file
 * Tests of the synthetic workload generator: determinism (replay and
 * twin-instance equality), control-flow consistency (every record's
 * nextPc is the next record's pc), preset validity, and structural
 * properties (bursts, phase working sets, branch mix).
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/synthetic.hh"
#include "trace/workload_params.hh"

using namespace acic;

namespace acic {

// Print a preset as its name. Without this GoogleTest dumps the raw
// bytes of the struct, which start with the std::string's heap
// pointer, so the parameterized test names would change with every
// build and run.
void
PrintTo(const WorkloadParams &params, std::ostream *os)
{
    *os << params.name;
}

} // namespace acic

namespace {

WorkloadParams
tinyParams()
{
    auto p = Workloads::byName("media_streaming");
    p.instructions = 50'000;
    return p;
}

} // namespace

TEST(Synthetic, EmitsExactlyRequestedLength)
{
    SyntheticWorkload trace(tinyParams());
    TraceInst inst;
    std::uint64_t n = 0;
    while (trace.next(inst))
        ++n;
    EXPECT_EQ(n, 50'000u);
    EXPECT_FALSE(trace.next(inst));
}

TEST(Synthetic, ResetReplaysIdenticalStream)
{
    SyntheticWorkload trace(tinyParams());
    std::vector<Addr> first;
    TraceInst inst;
    while (trace.next(inst))
        first.push_back(inst.pc);
    trace.reset();
    std::size_t i = 0;
    while (trace.next(inst)) {
        ASSERT_EQ(inst.pc, first[i]);
        ++i;
    }
    EXPECT_EQ(i, first.size());
}

TEST(Synthetic, TwinInstancesAgree)
{
    SyntheticWorkload a(tinyParams()), b(tinyParams());
    TraceInst ia, ib;
    while (a.next(ia)) {
        ASSERT_TRUE(b.next(ib));
        ASSERT_EQ(ia.pc, ib.pc);
        ASSERT_EQ(ia.nextPc, ib.nextPc);
        ASSERT_EQ(static_cast<int>(ia.kind),
                  static_cast<int>(ib.kind));
        ASSERT_EQ(ia.taken, ib.taken);
    }
}

TEST(Synthetic, NextPcChainsToFollowingRecord)
{
    SyntheticWorkload trace(tinyParams());
    TraceInst prev, cur;
    ASSERT_TRUE(trace.next(prev));
    while (trace.next(cur)) {
        ASSERT_EQ(prev.nextPc, cur.pc)
            << "control flow must be a connected chain";
        prev = cur;
    }
}

TEST(Synthetic, NonBranchesFallThrough)
{
    SyntheticWorkload trace(tinyParams());
    TraceInst inst;
    while (trace.next(inst)) {
        if (inst.kind == BranchKind::None) {
            ASSERT_EQ(inst.nextPc, inst.pc + TraceInst::kInstBytes);
            ASSERT_FALSE(inst.taken);
        }
        if (inst.kind == BranchKind::Cond && !inst.taken) {
            ASSERT_EQ(inst.nextPc, inst.pc + TraceInst::kInstBytes);
        }
    }
}

TEST(Synthetic, CallsAndReturnsBalanceRoughly)
{
    SyntheticWorkload trace(tinyParams());
    TraceInst inst;
    std::int64_t calls = 0, rets = 0;
    while (trace.next(inst)) {
        calls += inst.kind == BranchKind::Call ? 1 : 0;
        rets += inst.kind == BranchKind::Return ? 1 : 0;
    }
    EXPECT_GT(calls, 100);
    EXPECT_GT(rets, 100);
}

TEST(Synthetic, FootprintAndFunctionsReported)
{
    SyntheticWorkload trace(tinyParams());
    EXPECT_GT(trace.codeFootprintBytes(), 100'000u);
    EXPECT_GT(trace.functionCount(), 100u);
}

TEST(Synthetic, InstructionsStayInsideImage)
{
    SyntheticWorkload trace(tinyParams());
    const Addr lo = 0x400000;
    const Addr hi = lo + trace.codeFootprintBytes() + 64;
    TraceInst inst;
    while (trace.next(inst)) {
        ASSERT_GE(inst.pc, lo);
        ASSERT_LT(inst.pc, hi);
    }
}

class PresetTest
    : public ::testing::TestWithParam<WorkloadParams>
{
};

TEST_P(PresetTest, GeneratesBurstyStream)
{
    auto params = GetParam();
    params.instructions = 30'000;
    SyntheticWorkload trace(params);
    TraceInst inst;
    std::uint64_t same_block_pairs = 0, total_pairs = 0;
    Addr prev_blk = ~Addr{0};
    std::set<BlockAddr> blocks;
    while (trace.next(inst)) {
        const BlockAddr blk = blockOf(inst.pc);
        blocks.insert(blk);
        if (prev_blk != ~Addr{0}) {
            ++total_pairs;
            same_block_pairs += blk == prev_blk ? 1 : 0;
        }
        prev_blk = blk;
    }
    // Spatial bursts: most consecutive instructions share a block.
    EXPECT_GT(static_cast<double>(same_block_pairs) /
                  static_cast<double>(total_pairs),
              0.6)
        << params.name;
    EXPECT_GT(blocks.size(), 50u) << params.name;
}

TEST_P(PresetTest, BranchDensityInRealisticRange)
{
    auto params = GetParam();
    params.instructions = 30'000;
    SyntheticWorkload trace(params);
    TraceInst inst;
    std::uint64_t branches = 0;
    while (trace.next(inst))
        branches += inst.isBranch() ? 1 : 0;
    const double density = static_cast<double>(branches) / 30'000.0;
    EXPECT_GT(density, 0.08) << params.name;
    EXPECT_LT(density, 0.35) << params.name;
}

INSTANTIATE_TEST_SUITE_P(
    Datacenter, PresetTest,
    ::testing::ValuesIn(Workloads::datacenter()),
    [](const auto &param_info) { return param_info.param.name; });

INSTANTIATE_TEST_SUITE_P(
    Spec, PresetTest, ::testing::ValuesIn(Workloads::spec()),
    [](const auto &param_info) { return param_info.param.name; });

TEST(Workloads, ByNameFindsEveryPreset)
{
    for (const auto &p : Workloads::datacenter())
        EXPECT_EQ(Workloads::byName(p.name).name, p.name);
    for (const auto &p : Workloads::spec())
        EXPECT_EQ(Workloads::byName(p.name).name, p.name);
}

TEST(Workloads, TenDatacenterAndFiveSpec)
{
    EXPECT_EQ(Workloads::datacenter().size(), 10u);
    EXPECT_EQ(Workloads::spec().size(), 5u);
}

TEST(Workloads, DistinctSeedsAcrossPresets)
{
    std::set<std::uint64_t> seeds;
    for (const auto &p : Workloads::datacenter())
        seeds.insert(p.seed);
    for (const auto &p : Workloads::spec())
        seeds.insert(p.seed);
    EXPECT_EQ(seeds.size(), 15u);
}
