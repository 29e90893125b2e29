/**
 * @file
 * google-benchmark microbenchmarks of the hardware-structure models:
 * per-operation cost of the set-associative lookup, i-Filter probe,
 * CSHR search, two-level predictor, and the synthetic trace
 * generator — plus the two kernels under the throughput tentpole,
 * each implementation individually selectable: the tag-probe scan
 * (portable / SSE2 / dispatched wide path, hit and miss, 2 to 64
 * lanes; the wide path only dispatches from kWideLaneThreshold = 32
 * lanes up) and the trace decoder (scalar next() vs the block
 * acquireRun() the simulator pulls through, over a loaded file and
 * over an image encoded in memory) — and the checkpoint layer: CRC-32
 * over 1 MiB and one engine image serialized and checksummed. These
 * guard the simulator's own performance (host-side), not the
 * simulated machine.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/lru.hh"
#include "cache/set_assoc.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/tagscan.hh"
#include "core/admission_predictor.hh"
#include "core/cshr.hh"
#include "core/ifilter.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "sim/scheme.hh"
#include "trace/io.hh"
#include "trace/memory.hh"
#include "trace/synthetic.hh"
#include "trace/workload_params.hh"

using namespace acic;

namespace {

void
BM_SetAssocLookup(benchmark::State &state)
{
    SetAssocCache cache(64, 8, std::make_unique<LruPolicy>());
    Rng rng(7);
    for (int i = 0; i < 4096; ++i) {
        CacheAccess access;
        access.blk = rng.nextBelow(2048);
        cache.fill(access);
    }
    for (auto _ : state) {
        CacheAccess access;
        access.blk = rng.nextBelow(2048);
        benchmark::DoNotOptimize(cache.lookup(access));
    }
}
BENCHMARK(BM_SetAssocLookup);

void
BM_IFilterProbe(benchmark::State &state)
{
    IFilter filter(16);
    Rng rng(11);
    for (int i = 0; i < 64; ++i) {
        CacheAccess access;
        access.blk = rng.nextBelow(64);
        filter.insert(access);
    }
    for (auto _ : state) {
        CacheAccess access;
        access.blk = rng.nextBelow(64);
        benchmark::DoNotOptimize(filter.lookup(access));
    }
}
BENCHMARK(BM_IFilterProbe);

void
BM_CshrSearch(benchmark::State &state)
{
    Cshr cshr;
    Rng rng(13);
    for (int i = 0; i < 256; ++i)
        cshr.insert(rng.next(), rng.next(),
                    static_cast<std::uint32_t>(rng.nextBelow(64)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(cshr.search(
            rng.next(),
            static_cast<std::uint32_t>(rng.nextBelow(64))));
    }
}
BENCHMARK(BM_CshrSearch);

void
BM_PredictorTrain(benchmark::State &state)
{
    AdmissionPredictor predictor;
    Rng rng(17);
    Cycle now = 0;
    for (auto _ : state) {
        const auto tag =
            static_cast<std::uint32_t>(rng.nextBelow(4096));
        predictor.train(tag, rng.chance(0.5), now);
        predictor.tick(now);
        ++now;
        benchmark::DoNotOptimize(predictor.predict(tag));
    }
}
BENCHMARK(BM_PredictorTrain);

/**
 * Tag-probe kernel cost per scan, one implementation per capture.
 * Arg 0: ways (2 to 64, padded to the lane stride like SetAssocCache
 * rows are). Arg 1: 1 = every probe hits, 0 = every probe misses.
 * 1024 sets probed round-robin so the targets are not
 * branch-predictable.
 */
void
BM_TagProbe(benchmark::State &state,
            std::uint64_t (*kernel)(const std::uint64_t *,
                                    std::uint32_t, std::uint64_t))
{
    const auto ways = static_cast<std::uint32_t>(state.range(0));
    const bool hit = state.range(1) != 0;
    constexpr std::size_t kSets = 1024;
    const std::uint32_t stride = tagscan::padLanes64(ways);
    std::vector<std::uint64_t> lanes(kSets * stride);
    Rng rng(31);
    for (auto &lane : lanes)
        lane = 1 + rng.nextBelow(1u << 20); // never 0
    std::vector<std::uint64_t> targets(kSets);
    for (std::size_t s = 0; s < kSets; ++s) {
        targets[s] =
            hit ? lanes[s * stride + rng.nextBelow(ways)] : 0;
    }
    std::size_t s = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kernel(lanes.data() + s * stride, ways, targets[s]));
        s = (s + 1) & (kSets - 1);
    }
    state.SetLabel(hit ? "hit" : "miss");
}
BENCHMARK_CAPTURE(BM_TagProbe, portable,
                  &tagscan::matchMask64Portable)
    ->ArgsProduct({{2, 4, 8, 16, 32, 64}, {0, 1}});
#ifdef ACIC_TAGSCAN_SIMD
BENCHMARK_CAPTURE(BM_TagProbe, sse2, &tagscan::matchMask64Sse2)
    ->ArgsProduct({{2, 4, 8, 16, 32, 64}, {0, 1}});
BENCHMARK_CAPTURE(BM_TagProbe, wide, tagscan::matchMask64Wide)
    ->ArgsProduct({{2, 4, 8, 16, 32, 64}, {0, 1}});
#endif

/** The workload the decoder benches read. */
WorkloadParams
decoderBenchParams()
{
    auto params = Workloads::byName("media_streaming");
    params.instructions = 1u << 20;
    return params;
}

/** The recorded trace the decoder benches read (built once). */
const std::string &
decoderBenchTrace()
{
    static const std::string path = [] {
        const std::string p =
            "bench_structures_decode" + std::string(
                TraceFormat::suffix());
        SyntheticWorkload synth(decoderBenchParams());
        recordTrace(synth, p);
        return p;
    }();
    return path;
}

/** Per-instruction cost of the scalar next() decode loop. */
void
BM_DecodeScalarFile(benchmark::State &state)
{
    FileTraceSource file(decoderBenchTrace());
    TraceInst inst;
    for (auto _ : state) {
        if (!file.next(inst))
            file.reset();
        benchmark::DoNotOptimize(inst.pc);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeScalarFile);

/** Per-instruction cost of the block acquireRun() pull (what the
 *  BundleWalker rides in steady state) over @p src. */
void
benchRuns(benchmark::State &state, TraceSource &src)
{
    const TraceInst *run = nullptr;
    std::uint64_t len = 0;
    std::uint64_t pos = 0;
    for (auto _ : state) {
        if (pos >= len) {
            run = src.acquireRun(~std::uint64_t{0}, len);
            if (run == nullptr) {
                src.reset();
                run = src.acquireRun(~std::uint64_t{0}, len);
            }
            pos = 0;
        }
        benchmark::DoNotOptimize(run[pos].pc);
        ++pos;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_DecodeRunFile(benchmark::State &state)
{
    FileTraceSource file(decoderBenchTrace());
    benchRuns(state, file);
}
BENCHMARK(BM_DecodeRunFile);

/** The same pull over an image encoded in memory (the driver's
 *  SharedWorkload image of a synthetic workload). */
void
BM_DecodeRunMemory(benchmark::State &state)
{
    SyntheticWorkload synth(decoderBenchParams());
    MemoryTraceSource mem(encodeTrace(synth));
    benchRuns(state, mem);
}
BENCHMARK(BM_DecodeRunMemory);

void
BM_TraceGeneration(benchmark::State &state)
{
    SyntheticWorkload trace(decoderBenchParams());
    TraceInst inst;
    for (auto _ : state) {
        if (!trace.next(inst))
            trace.reset();
        benchmark::DoNotOptimize(inst.pc);
    }
}
BENCHMARK(BM_TraceGeneration);

/** CRC-32 over 1 MiB: the checksum every checkpoint save and load
 *  pays over its whole payload. */
void
BM_Crc32(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(1u << 20);
    Rng rng(17);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32);

/** One engine image (acic on web_search, mid-measure) streamed and
 *  checksummed chunk by chunk: SimEngine::saveCheckpoint without the
 *  file write. */
void
BM_CheckpointSave(benchmark::State &state)
{
    WorkloadParams params = Workloads::byName("web_search");
    params.instructions = 200'000;
    const SharedWorkload shared(params);
    auto org = makeScheme(parseScheme("acic"), shared.config());
    MemoryTraceSource cursor = shared.source();
    SimEngine engine(shared.config(), cursor, *org, &shared.oracle());
    engine.warmUp(params.instructions / 10);
    engine.measure(params.instructions / 2);
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::uint32_t crc = 0;
        Serializer s([&crc](const std::uint8_t *data, std::size_t n) {
            crc = crc32(data, n, crc);
        });
        engine.save(s);
        s.flush();
        bytes = s.size();
        benchmark::DoNotOptimize(crc);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointSave)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
