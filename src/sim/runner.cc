#include "sim/runner.hh"

#include <algorithm>
#include <fstream>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "sim/engine.hh"
#include "trace/synthetic.hh"

namespace acic {

std::vector<SimInterval>
planIntervals(std::uint64_t measureBegin, std::uint64_t measureEnd,
              unsigned intervals, std::uint64_t warmup,
              std::uint64_t warmHorizon)
{
    if (measureEnd < measureBegin)
        measureEnd = measureBegin;
    const std::uint64_t span = measureEnd - measureBegin;
    std::uint64_t k = intervals == 0 ? 1 : intervals;
    if (span > 0 && k > span)
        k = span;
    if (span == 0)
        k = 1;
    std::vector<SimInterval> plan(static_cast<std::size_t>(k));
    for (std::uint64_t i = 0; i < k; ++i) {
        SimInterval &iv = plan[static_cast<std::size_t>(i)];
        // Equal split with the remainder on the leading shards:
        // boundary j = floor(span * j / k) is monotone and exact.
        iv.begin = measureBegin + span / k * i + span % k * i / k;
        iv.end = measureBegin + span / k * (i + 1) +
                 span % k * (i + 1) / k;
        iv.warmStart = iv.begin > warmup ? iv.begin - warmup : 0;
        iv.funcStart = warmHorizon > 0 &&
                               iv.warmStart > warmHorizon
                           ? iv.warmStart - warmHorizon
                           : 0;
    }
    return plan;
}

namespace {

/** Encode the shared image of @p source. */
std::shared_ptr<const TraceImage>
encodeWorkload(TraceSource &source)
{
    TelemetryScope span("runner.encode");
    span.attr("workload", source.name());
    auto image = encodeTrace(source);
    if (span.live())
        span.attr("instructions", image->instructions);
    return image;
}

} // namespace

SharedWorkload::SharedWorkload(WorkloadParams params, SimConfig config,
                               bool useOracle)
    : config_(config), useOracle_(useOracle)
{
    SyntheticWorkload trace(params);
    image_ = encodeWorkload(trace);
}

SharedWorkload::SharedWorkload(TraceSource &source, SimConfig config,
                               bool useOracle)
    : config_(config), image_(encodeWorkload(source)),
      useOracle_(useOracle)
{
}

const DemandOracle &
SharedWorkload::oracle() const
{
    std::call_once(oracleOnce_, [this] {
        TelemetryScope span("runner.oracle");
        span.attr("workload", name());
        MemoryTraceSource cursor(image_);
        oracle_ = DemandOracle::build(cursor, config_.fetchWidth);
    });
    return oracle_;
}

const BranchTable &
SharedWorkload::branchTable() const
{
    std::call_once(branchesOnce_, [this] {
        TelemetryScope span("runner.branches");
        span.attr("workload", name());
        MemoryTraceSource cursor(image_);
        BundleWalker walker(cursor, config_.fetchWidth);
        walker.reset();
        BranchUnit bp(config_.btbEntries, config_.btbWays,
                      config_.rasDepth);
        Bundle bundle;
        while (walker.next(bundle))
            branches_.push_back(bp.predict(bundle));
        branches_.shrink_to_fit();
        if (span.live())
            span.attr("bundles",
                      static_cast<std::uint64_t>(branches_.size()));
    });
    return branches_;
}

SimResult
SharedWorkload::run(const SchemeSpec &scheme) const
{
    auto org = makeScheme(scheme, config_);
    return run(*org, wholeRun());
}

SimInterval
SharedWorkload::wholeRun() const
{
    const std::uint64_t total = instructions();
    SimInterval region;
    region.begin = static_cast<std::uint64_t>(
        static_cast<double>(total) * config_.warmupFraction);
    region.end = total;
    return region;
}

DemandOracle
SharedWorkload::buildIntervalOracle(const SimInterval &region) const
{
    TelemetryScope span("runner.oracle");
    if (span.live()) {
        span.attr("workload", name());
        span.attr("region_begin", region.warmStart);
        span.attr("region_end", region.end);
    }
    // Region-local oracle: next-use indices must align with the
    // demand sequence the engine walks, which starts at warmStart.
    // OPT-style schemes therefore see Belady decisions local to the
    // interval — the standard sampled-simulation approximation.
    MemoryTraceSource cursor(image_, region.warmStart, region.end);
    return DemandOracle::build(cursor, config_.fetchWidth);
}

SimResult
SharedWorkload::run(IcacheOrg &org, const SimInterval &region,
                    const DemandOracle *oracle,
                    const InflightCheckpoint *checkpoint) const
{
    ACIC_ASSERT(region.funcStart <= region.warmStart &&
                    region.warmStart <= region.begin &&
                    region.begin <= region.end &&
                    region.end <= instructions(),
                "malformed simulation region");
    DemandOracle local;
    if (oracle == nullptr && useOracle_) {
        if (region == wholeRun()) {
            oracle = &this->oracle();
        } else {
            local = buildIntervalOracle(region);
            oracle = &local;
        }
    }
    // The table starts from cold predictors at the first bundle of
    // the trace, so it serves only a cursor over the whole trace
    // with no functional warming in front of it.
    const bool whole_trace = region.funcStart == 0 &&
                             region.warmStart == 0 &&
                             region.end == instructions();
    MemoryTraceSource cursor(image_, region.warmStart, region.end);
    SimEngine engine(config_, cursor, org, oracle,
                     whole_trace ? &branchTable() : nullptr);
    // Functionally replay the prefix (bounded by the planning
    // horizon) to warm predictors, organization metadata, and the
    // L2/L3 before the timed warmup region.
    if (region.warmStart > region.funcStart) {
        MemoryTraceSource prefix(image_, region.funcStart,
                                 region.warmStart);
        engine.functionalWarm(prefix);
    }
    const bool resuming = checkpoint != nullptr && [&] {
        std::ifstream probe(checkpoint->path, std::ios::binary);
        return probe.good();
    }();
    if (resuming)
        engine.loadCheckpoint(checkpoint->path);
    else
        engine.warmUp(region.warmup());

    // Chunked measure planned on nominal targets (plannedTarget()),
    // not retired(): the retire stage overshoots targets by bundle
    // granularity, and only target arithmetic makes
    // warmUp + measure(a) + measure(b) land on the same final target
    // as the monolithic warmUp + measure(a + b).
    const std::uint64_t span = region.end - region.warmStart;
    const bool saving = checkpoint != nullptr && checkpoint->every != 0;
    const std::uint64_t every = saving ? checkpoint->every : span;
    while (engine.plannedTarget() < span) {
        engine.measure(
            std::min(span - engine.plannedTarget(), every));
        if (saving && engine.plannedTarget() < span)
            engine.saveCheckpoint(checkpoint->path);
    }
    return engine.finish();
}

} // namespace acic
