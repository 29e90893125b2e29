#include "trace/workload_params.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"
#include "trace/catalog.hh"

namespace acic {

namespace {

/**
 * Base preset for datacenter applications; individual workloads
 * override the working-set levers. Sizing intuition: functions
 * average ~(min+max)/2 = 56 instructions at 4 B each, i.e. ~3.5
 * blocks (real-world function sizes); the per-phase working set is
 * phaseFunctions * 3.5 blocks against the 512-block (32 KB) L1i of
 * Table II. A flat-ish Zipf (0.25) and shallow call trees make each
 * request sweep most of its phase's working set, producing the
 * burst-then-long-gap reuse pattern of Fig. 1.
 */
WorkloadParams
dcBase(std::string name, std::uint64_t seed, double paper_mpki)
{
    WorkloadParams p;
    p.name = std::move(name);
    p.seed = seed;
    p.paperMpki = paper_mpki;
    p.instructions = 5'000'000;
    p.libFunctions = 12;
    p.minFnSize = 16;
    p.maxFnSize = 96;
    // Near-uniform popularity inside a phase: a request sweeps its
    // working set, so within-phase re-reference lands at ~ws-sized
    // reuse distances rather than filling the (16,512] middle.
    p.zipfSkew = 0.08;
    p.branchDensity = 0.15;
    p.condFrac = 0.60;
    p.loopFrac = 0.22;
    p.callFrac = 0.18;
    p.libCallFrac = 0.12;
    p.earlyExitFrac = 0.12;
    p.loopTripMean = 4.0;
    p.maxLoopTrip = 16;
    p.maxCallDepth = 4;
    return p;
}

/**
 * Base preset for the SPEC-like loop-heavy applications: small
 * footprints, hot loops, high i-cache hit rates even at baseline
 * (Sec. IV-H3's "little headroom" regime).
 */
WorkloadParams
specBase(std::string name, std::uint64_t seed)
{
    WorkloadParams p;
    p.name = std::move(name);
    p.seed = seed;
    p.instructions = 5'000'000;
    p.libFunctions = 8;
    p.numPhases = 3;
    p.phaseMeanLen = 400'000;
    p.minFnSize = 16;
    p.maxFnSize = 80;
    p.zipfSkew = 0.8;
    p.branchDensity = 0.17;
    p.condFrac = 0.50;
    p.loopFrac = 0.36;
    p.callFrac = 0.14;
    p.libCallFrac = 0.20;
    p.earlyExitFrac = 0.10;
    p.loopTripMean = 12.0;
    p.maxLoopTrip = 64;
    p.maxCallDepth = 4;
    return p;
}

} // namespace

std::vector<WorkloadParams>
Workloads::datacenter()
{
    std::vector<WorkloadParams> all;

    // Media streaming: working set just past L1i reach; strong
    // (512,1024] reuse mass -> big admission-control headroom.
    {
        auto p = dcBase("media_streaming", 101, 81.2);
        p.numPhases = 6;
        p.phaseFunctions = 180;
        p.phaseMeanLen = 50'000;
        all.push_back(p);
    }
    // Data caching (memcached-like): similar structure, slightly
    // smaller per-request path, faster request turnover.
    {
        auto p = dcBase("data_caching", 102, 78.1);
        p.numPhases = 8;
        p.phaseFunctions = 175;
        p.phaseMeanLen = 46'000;
        all.push_back(p);
    }
    // Data serving (YCSB): smallest footprint of the suite; much of
    // the working set fits -> lowest MPKI.
    {
        auto p = dcBase("data_serving", 103, 31.6);
        p.numPhases = 6;
        p.phaseFunctions = 100;
        p.phaseMeanLen = 70'000;
        all.push_back(p);
    }
    // Web serving: mid-size working set, many request types.
    {
        auto p = dcBase("web_serving", 104, 65.8);
        p.numPhases = 8;
        p.phaseFunctions = 155;
        p.phaseMeanLen = 48'000;
        all.push_back(p);
    }
    // Web search (Solr): biggest per-request code path, rapid phase
    // cycling -> highest MPKI, strong (512,1024] mass.
    {
        auto p = dcBase("web_search", 105, 151.5);
        p.numPhases = 10;
        p.phaseFunctions = 205;
        p.phaseMeanLen = 40'000;
        p.libCallFrac = 0.10;
        all.push_back(p);
    }
    // TPC-C: very large total footprint with reuse mass beyond 1024
    // blocks -- the "don't bother comparing" regime of Fig. 1a.
    {
        auto p = dcBase("tpcc", 106, 42.5);
        p.numPhases = 10;
        p.phaseFunctions = 540;
        p.phaseMeanLen = 80'000;
        p.libCallFrac = 0.14;
        all.push_back(p);
    }
    // Wikipedia: like TPC-C, long reuse distances dominate.
    {
        auto p = dcBase("wikipedia", 107, 41.1);
        p.numPhases = 10;
        p.phaseFunctions = 510;
        p.phaseMeanLen = 78'000;
        p.libCallFrac = 0.14;
        all.push_back(p);
    }
    // SIBench: small snapshot-isolation kernel; moderate footprint.
    {
        auto p = dcBase("sibench", 108, 35.0);
        p.numPhases = 4;
        p.phaseFunctions = 120;
        p.phaseMeanLen = 70'000;
        all.push_back(p);
    }
    // Finagle-HTTP: mid footprint, hot shared RPC library.
    {
        auto p = dcBase("finagle_http", 109, 46.1);
        p.numPhases = 8;
        p.phaseFunctions = 148;
        p.phaseMeanLen = 52'000;
        p.libCallFrac = 0.20;
        all.push_back(p);
    }
    // Neo4J analytics: graph kernels cycling over a working set just
    // past L1i reach.
    {
        auto p = dcBase("neo4j_analytics", 110, 58.7);
        p.numPhases = 8;
        p.phaseFunctions = 200;
        p.phaseMeanLen = 55'000;
        all.push_back(p);
    }
    return all;
}

std::vector<WorkloadParams>
Workloads::spec()
{
    std::vector<WorkloadParams> all;
    {
        auto p = specBase("perlbench", 201);
        p.phaseFunctions = 85;
        all.push_back(p);
    }
    {
        auto p = specBase("omnetpp", 202);
        p.phaseFunctions = 70;
        all.push_back(p);
    }
    {
        auto p = specBase("xalancbmk", 203);
        p.phaseFunctions = 95;
        all.push_back(p);
    }
    {
        auto p = specBase("x264", 204);
        p.phaseFunctions = 40;
        p.loopTripMean = 20.0;
        all.push_back(p);
    }
    {
        auto p = specBase("gcc", 205);
        p.phaseFunctions = 115;
        p.numPhases = 4;
        all.push_back(p);
    }
    return all;
}

WorkloadParams
Workloads::byName(const std::string &name)
{
    // The catalog is the registry of record; this stays as the
    // params-only convenience for code that synthesizes directly.
    const WorkloadCatalog catalog = WorkloadCatalog::builtin();
    const WorkloadEntry *entry = catalog.find(name);
    if (!entry)
        ACIC_FATAL("unknown workload name");
    return entry->params;
}

WorkloadParams
withEnvOverrides(WorkloadParams params)
{
    // Warn at most once per process: the driver and the benches
    // re-read the variable for every workload.
    static std::atomic<bool> warned{false};
    const char *env = std::getenv("ACIC_TRACE_LEN");
    if (!env)
        return params;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE) {
        if (!warned.exchange(true))
            warn("ACIC_TRACE_LEN is not a number; ignoring override");
        return params;
    }
    if (v <= 0) {
        if (!warned.exchange(true))
            warn("ACIC_TRACE_LEN must be a positive instruction count; "
                 "ignoring override");
        return params;
    }
    params.instructions = static_cast<std::uint64_t>(v);
    return params;
}

} // namespace acic
