#include "metrics.hh"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
perKinst(std::uint64_t count, std::uint64_t insts)
{
    return ratio(1000.0 * static_cast<double>(count),
                 static_cast<double>(insts));
}

void
reportOrg(Report &out, const std::string &scheme, const OrgLayer &org)
{
    const std::string p = "org." + scheme + ".";
    out.set(p + "access_ns", org.accesses.perCallNs(), "ns");
    out.set(p + "fill_ns", org.fills.perCallNs(), "ns");
    out.set(p + "accesses_per_kinst",
            perKinst(org.accesses.calls, org.instructions), "1/kinst");
    out.set(p + "fills_per_kinst",
            perKinst(org.fills.calls, org.instructions), "1/kinst");
}

} // namespace

void
EndToEnd::setExact(const acic::ExperimentSpec &spec,
                   const std::vector<acic::CellResult> &cells)
{
    const std::size_t n_schemes = spec.schemes.size();
    std::size_t lru = n_schemes, acic = n_schemes;
    for (std::size_t s = 0; s < n_schemes; ++s) {
        if (spec.schemes[s].key == "lru")
            lru = s;
        if (spec.schemes[s].key == "acic")
            acic = s;
    }
    if (lru == n_schemes || acic == n_schemes)
        throw std::logic_error("lane must run both lru and acic");
    double log_sum = 0.0;
    std::uint64_t misses = 0, insts = 0;
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        const acic::SimResult &base = cells[w * n_schemes + lru].result;
        const acic::SimResult &r = cells[w * n_schemes + acic].result;
        log_sum += std::log(r.ipc() / base.ipc());
        misses += r.l1iMisses;
        insts += r.instructions;
    }
    acicSpeedup =
        std::exp(log_sum / static_cast<double>(spec.workloads.size()));
    acicMpki =
        1000.0 * static_cast<double>(misses) / static_cast<double>(insts);
}

void
EndToEnd::report(Report &out) const
{
    out.set("minst_per_s", median(minstPerS), "Minst/s");
    out.set("cpu_ns_per_inst", median(cpuNsPerInst), "ns/inst");
    out.set("setup_s", median(setupS), "s");
    out.set("peak_rss_mb", peakRssMb(), "MiB");
    out.set("window_ms_p50", quantile(windowMs, 0.5), "ms");
    out.set("window_ms_p90", quantile(windowMs, 0.9), "ms");
    out.set("cell_s_max", median(cellSMax), "s");
    out.set("acic_speedup", acicSpeedup, "ratio");
    out.set("acic_mpki", acicMpki, "MPKI");
    out.note("repetitions: " + std::to_string(minstPerS.size()) +
             ", windows: " + std::to_string(windowMs.size()));
    char line[160];
    std::snprintf(line, sizeof(line),
                  "acic_speedup %.6f (paper: 1.0223, a reference only "
                  "- the model is not validated against hardware)",
                  acicSpeedup);
    out.note(line);
}

void
OrgLayer::add(const TimedOrg &org, std::uint64_t simulated)
{
    accesses.merge(org.accesses);
    fills.merge(org.fills);
    instructions += simulated;
}

void
Layers::addResult(const acic::SimResult &r,
                  const std::string &scheme_key, bool oracle)
{
    cycles += static_cast<std::uint64_t>(r.cycles);
    instructions += r.instructions;
    l2 += r.l2Accesses;
    dram += r.dramAccesses;
    latePrefetches += r.latePrefetches;
    mispredicts += r.branchMispredicts;
    btbMisses += r.btbMisses;
    if (scheme_key != "acic")
        return;
    acicDemand += r.demandAccesses;
    filterHits += r.orgStats.get("filtered.filter_hit");
    admitted += r.orgStats.get("filtered.victims_admitted");
    dropped += r.orgStats.get("filtered.victims_dropped");
    if (oracle) {
        decisions += r.orgStats.get("acic.decisions");
        decisionsCorrect += r.orgStats.get("acic.decisions_correct");
    }
}

void
Layers::report(Report &out) const
{
    const double sim = static_cast<double>(simulatedInsts);
    out.set("trace.load_ns_per_inst",
            ratio(loadNs, static_cast<double>(loadInsts)), "ns/inst");
    out.set("trace.pull_ns_per_inst",
            ratio(pullNs, sim), "ns/inst");
    out.set("trace.records_decoded",
            static_cast<double>(recordsDecoded), "count");
    out.set("stream.decode_ns_per_inst",
            ratio(decodeNs, static_cast<double>(decodeInsts)),
            "ns/inst");
    double ring_sum = 0.0;
    for (const double v : ringOccupancy)
        ring_sum += v;
    out.set("stream.ring_occupancy_mean",
            ratio(ring_sum, static_cast<double>(ringOccupancy.size())),
            "records");
    out.set("stream.tee_backlog_max", teeBacklogMax, "records");
    out.set("oracle.build_ns_per_inst",
            ratio(oracleNs, static_cast<double>(oracleInsts)),
            "ns/inst");
    out.set("oracle.distinct_blocks",
            static_cast<double>(distinctBlocks), "count");
    out.set("engine.warmup_ns_per_inst",
            ratio(warmNs, static_cast<double>(warmInsts)), "ns/inst");
    out.set("engine.measure_ns_per_inst",
            ratio(measureNs, static_cast<double>(measuredInsts)),
            "ns/inst");
    out.set("engine.self_ns_per_inst",
            ratio(warmNs + measureNs - orgNs - pullNs, sim),
            "ns/inst");
    out.set("engine.cycles_per_kinst", perKinst(cycles, instructions),
            "cycles/kinst");
    reportOrg(out, "lru", lru);
    reportOrg(out, "acic", acic);
    out.set("acic.filter_hit_frac",
            ratio(static_cast<double>(filterHits),
                  static_cast<double>(acicDemand)),
            "frac");
    out.set("acic.admit_frac",
            ratio(static_cast<double>(admitted),
                  static_cast<double>(admitted + dropped)),
            "frac");
    out.set("acic.decision_accuracy",
            ratio(static_cast<double>(decisionsCorrect),
                  static_cast<double>(decisions)),
            "frac");
    out.set("hier.l2_per_kinst", perKinst(l2, instructions),
            "1/kinst");
    out.set("hier.dram_per_kinst", perKinst(dram, instructions),
            "1/kinst");
    out.set("mshr.late_prefetch_per_kinst",
            perKinst(latePrefetches, instructions), "1/kinst");
    out.set("frontend.mispredicts_per_kinst",
            perKinst(mispredicts, instructions), "1/kinst");
    out.set("frontend.btb_misses_per_kinst",
            perKinst(btbMisses, instructions), "1/kinst");
    out.set("pool.utilization", median(poolUtilization), "frac");
    out.set("serve.round_lag_us_max", roundLagUsMax, "us");
    out.set("ckpt.saves", static_cast<double>(ckptSaves), "count");
    out.set("ckpt.kb_per_save",
            ratio(static_cast<double>(ckptBytes) / 1024.0,
                  static_cast<double>(ckptTimed)),
            "KiB");
    out.set("ckpt.save_ms",
            ratio(ckptNs / 1e6, static_cast<double>(ckptTimed)), "ms");
    out.set("trace_overhead_frac",
            ratio(cpuTraced - cpuPlain, cpuPlain), "frac");
}

} // namespace perfbench
