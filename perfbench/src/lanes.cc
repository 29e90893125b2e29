#include "lanes.hh"

#include <fstream>
#include <stdexcept>

#include "trace/io.hh"
#include "trace/streaming.hh"
#include "trace/synthetic.hh"
#include "trace/workload_params.hh"

namespace perfbench {

namespace {

/*
 * Why these lanes:
 *  - dc_sweep: datacenter presets with L1i MPKI ~15-30, so the miss
 *    path (organization fill, ACIC admission, MSHR, L2/L3) does most
 *    of the work; the paper's Fig. 10 matrix shape.
 *  - spec_ckpt_sweep: SPEC-like presets with MPKI below 1, so the
 *    hit path and branch-prediction walk dominate and a miss-path
 *    change should show no effect; in-flight checkpoints add the
 *    serialization writes only this lane exercises.
 *  - serve_stream: the only lane through stream decode, the ingest
 *    ring, StreamTee and lockstep rounds, and the only one without
 *    the Belady oracle, so it runs no OPT-style scheme.
 */
const std::vector<Lane> &
lanes()
{
    static const std::vector<Lane> all = {
        {"dc_sweep",
         {"media_streaming", "web_search", "tpcc"},
         "lru,srrip,ghrp,acic,opt_bypass",
         1'000'000,
         0,
         false},
        {"spec_ckpt_sweep",
         {"perlbench", "x264", "gcc"},
         "lru,srrip,ghrp,acic,opt_bypass",
         2'000'000,
         500'000,
         false},
        {"serve_stream",
         {"web_serving"},
         "lru,srrip,ghrp,acic",
         2'000'000,
         0,
         true},
    };
    return all;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The preset with its generator seed derived from the benchmark
 *  seed and its own catalog seed. */
acic::WorkloadParams
seededParams(const std::string &preset, std::uint64_t seed,
             std::uint64_t instructions)
{
    acic::WorkloadParams params = acic::Workloads::byName(preset);
    params.seed = splitmix64(splitmix64(seed) ^ params.seed);
    params.instructions = instructions;
    return params;
}

} // namespace

const Lane *
findLane(const std::string &name)
{
    for (const Lane &lane : lanes())
        if (lane.name == name)
            return &lane;
    return nullptr;
}

std::string
laneNames()
{
    std::string out;
    for (const Lane &lane : lanes())
        out += (out.empty() ? "" : ",") + lane.name;
    return out;
}

std::string
tracePath(const std::string &dir, const std::string &preset)
{
    return dir + "/" + preset + acic::TraceFormat::suffix();
}

std::string
streamPath(const std::string &dir, const std::string &preset)
{
    return dir + "/" + preset + ".acis";
}

void
generateInputs(const Lane &lane, std::uint64_t seed,
               const std::string &dir)
{
    for (const std::string &preset : lane.presets) {
        const acic::WorkloadParams params =
            seededParams(preset, seed, lane.instructions);
        acic::SyntheticWorkload synth(params);
        acic::TraceWriter file(tracePath(dir, preset), params.name);
        std::ofstream stream_out(streamPath(dir, preset),
                                 std::ios::binary | std::ios::trunc);
        if (!stream_out)
            throw std::runtime_error("cannot write " +
                                     streamPath(dir, preset));
        acic::StreamTraceWriter stream(stream_out, params.name);
        acic::TraceInst inst;
        while (synth.next(inst)) {
            file.append(inst);
            stream.append(inst);
        }
        file.close();
        stream.finish();
        stream_out.flush();
        if (!stream_out)
            throw std::runtime_error("short write to " +
                                     streamPath(dir, preset));
    }
}

} // namespace perfbench
