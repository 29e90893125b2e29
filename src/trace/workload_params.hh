/**
 * @file
 * Parameter block of the synthetic program model, plus the calibrated
 * presets standing in for the paper's datacenter (Table III) and SPEC
 * (Fig. 18/19) workloads.
 */

#ifndef ACIC_TRACE_WORKLOAD_PARAMS_HH
#define ACIC_TRACE_WORKLOAD_PARAMS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace acic {

/**
 * Knobs of the synthetic program model.
 *
 * The model is a phased request-processing program: each *phase* has a
 * working set of functions (the per-request code path); a hot shared
 * *library* is called from every phase. Phases cycle, re-touching their
 * code after long gaps — the burst-then-gap pattern the paper observes.
 * The per-phase working-set size in 64 B blocks, relative to the 512
 * blocks of a 32 KB i-cache, is the main MPKI lever.
 */
struct WorkloadParams
{
    std::string name;

    /** Dynamic trace length in instructions. */
    std::uint64_t instructions = 5'000'000;

    /** Generator seed; layout and behaviour derive from it. */
    std::uint64_t seed = 1;

    /** Number of hot shared library functions. */
    std::uint32_t libFunctions = 16;

    /** Number of execution phases (distinct request types). */
    std::uint32_t numPhases = 8;

    /** Functions in each phase's working set. */
    std::uint32_t phaseFunctions = 64;

    /**
     * Fraction of a phase's functions shared with the next phase
     * (cyclically); models common middleware between request types.
     */
    double phaseOverlap = 0.2;

    /** Mean instructions executed before switching phase. */
    std::uint64_t phaseMeanLen = 60'000;

    /** Function body size bounds, in instructions. */
    std::uint32_t minFnSize = 48;
    std::uint32_t maxFnSize = 288;

    /** Zipf skew of function popularity inside a phase / the library. */
    double zipfSkew = 0.6;

    /**
     * Probability that a function pick follows the phase's sweep
     * cursor (cyclic order) instead of an independent Zipf draw.
     * Sweeping concentrates within-phase re-reference at ~working-set
     * distance, the burst-then-gap structure of Fig. 1; iid draws
     * would smear it exponentially across shorter distances.
     */
    double sweepBias = 0.85;

    /**
     * Fraction of each phase's functions forming its *hot kernel*
     * (dispatchers, allocators, serializers) re-invoked within a
     * request at cache-friendly distances. The remaining peripheral
     * functions are swept once per request at ~working-set distance.
     * This block-role stability is what per-address predictors (ACIC
     * HRT, GHRP, SHiP) learn from.
     */
    double hotFrac = 0.25;

    /** Probability a non-library call targets the hot kernel. */
    double hotCallFrac = 0.45;

    /** Probability that an instruction slot is a branch site. */
    double branchDensity = 0.16;

    /** Branch-site kind mix (normalized internally). */
    double condFrac = 0.55;
    double loopFrac = 0.25;
    double callFrac = 0.20;

    /** Probability a call targets the shared library. */
    double libCallFrac = 0.25;

    /** Probability a conditional site is an early-exit to the return. */
    double earlyExitFrac = 0.15;

    /** Loop trip count is ~Geometric with this mean, capped below. */
    double loopTripMean = 6.0;
    std::uint32_t maxLoopTrip = 48;

    /** Call-stack depth cap; calls at the cap fall through. */
    std::uint32_t maxCallDepth = 12;

    /** Paper-reported baseline L1i MPKI (Table III), for reference. */
    double paperMpki = 0.0;
};

/** Named preset collections mirroring the paper's workload tables. */
struct Workloads
{
    /** The 10 datacenter applications of Table III. */
    static std::vector<WorkloadParams> datacenter();

    /** The 5 SPEC2017-int-like applications of Fig. 18/19. */
    static std::vector<WorkloadParams> spec();

    /** Look up one preset by name from either collection. */
    static WorkloadParams byName(const std::string &name);
};

/**
 * Apply the ACIC_TRACE_LEN override (a positive instruction count)
 * to @p params, for quick runs. The variable is read on every call;
 * a malformed or non-positive value is ignored, with a warning the
 * first time in the process. Callers that own a length precedence (the
 * experiment driver ranks an explicit override above the env var)
 * apply their own override afterwards.
 */
WorkloadParams withEnvOverrides(WorkloadParams params);

} // namespace acic

#endif // ACIC_TRACE_WORKLOAD_PARAMS_HH
