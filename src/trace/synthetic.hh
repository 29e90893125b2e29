/**
 * @file
 * Deterministic synthetic workload generator.
 *
 * Substitutes for the paper's QEMU full-system traces (CloudSuite,
 * OLTPBench, Renaissance, SPEC2017). The program model reproduces the
 * instruction-stream statistics ACIC responds to:
 *
 *  - spatial bursts: sequential execution through function bodies means
 *    a touched block is immediately re-touched (reuse distance 0);
 *  - short-term temporal locality: small backward loops and early-exit
 *    conditionals re-reference recent blocks (distance 1..16);
 *  - inter-burst gaps: phases cycle over per-request working sets whose
 *    size in blocks (vs. the 512-block i-cache) places the reuse mass
 *    in the paper's (512,1024] or (1024,10000] ranges;
 *  - hot shared-library code re-referenced at short distances from
 *    every phase — the blocks admission control should retain.
 */

#ifndef ACIC_TRACE_SYNTHETIC_HH
#define ACIC_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/trace.hh"
#include "trace/workload_params.hh"

namespace acic {

/** See file comment. Re-iterable: reset() replays the exact stream. */
class SyntheticWorkload : public TraceSource
{
  public:
    explicit SyntheticWorkload(WorkloadParams params);

    void reset() override;
    bool next(TraceInst &out) override;
    /** Generates the run into an owned block of up to 4096 records. */
    const TraceInst *acquireRun(std::uint64_t max,
                                std::uint64_t &n) override;
    std::uint64_t length() const override { return params_.instructions; }
    const std::string &name() const override { return params_.name; }

    /** Static code footprint in bytes (for DESIGN/EXPERIMENTS notes). */
    std::uint64_t codeFootprintBytes() const { return footprintBytes_; }

    /** Total number of generated functions including the library. */
    std::size_t functionCount() const { return functions_.size(); }

    /** Parameters this instance was built with. */
    const WorkloadParams &params() const { return params_; }

  private:
    /** Kind of a static branch site inside a function body. */
    enum class SiteKind : std::uint8_t
    {
        CondFwd,   ///< forward conditional, mostly not taken
        LoopBack,  ///< short backward conditional loop branch
        Call,      ///< direct call; callee chosen dynamically
    };

    /** A static branch site. */
    struct Site
    {
        SiteKind kind;
        std::uint32_t target;    ///< intra-function target offset
        float takenProb;         ///< CondFwd static taken bias
        std::uint16_t tripCount; ///< LoopBack static trip count
    };

    /** A generated function: address, size, and its branch sites. */
    struct Function
    {
        Addr base = 0;
        std::uint32_t size = 0;            ///< instructions incl. ret
        /** site index per offset, -1 when the slot is sequential. */
        std::vector<std::int32_t> siteAt;
        std::vector<Site> sites;
    };

    /** Live-loop state: (site offset, remaining trips). */
    using LoopState =
        std::vector<std::pair<std::uint32_t, std::uint32_t>>;

    /** A suspended caller activation record. */
    struct Frame
    {
        std::uint32_t fn;
        std::uint32_t retOff;
        LoopState loops;
    };

    void buildStaticImage();
    void startRun();

    Addr pcOf(std::uint32_t fn, std::uint32_t off) const;

    /** Advance the walker by one instruction; fills kind/taken/target. */
    void step(TraceInst &rec);

    std::uint32_t chooseCallee(std::uint32_t caller);
    std::uint32_t choosePhaseEntry();
    void enterNextPhase();

    WorkloadParams params_;
    std::vector<Function> functions_;
    /** function ids per phase working set. */
    std::vector<std::vector<std::uint32_t>> phaseFns_;
    std::unique_ptr<ZipfSampler> libZipf_;
    std::unique_ptr<ZipfSampler> phaseZipf_;
    std::unique_ptr<ZipfSampler> hotZipf_;
    std::uint32_t hotCount_ = 0;
    std::uint64_t footprintBytes_ = 0;

    // --- dynamic state, rebuilt by reset() ---
    Rng rng_;
    /** Per-phase sweep cursor over the phase's function list. */
    std::vector<std::uint32_t> sweepCursor_;
    std::vector<Frame> stack_;
    std::uint32_t curFn_ = 0;
    std::uint32_t curOff_ = 0;
    LoopState curLoops_;
    std::uint32_t phase_ = 0;
    std::int64_t phaseBudget_ = 0;
    std::uint64_t emitted_ = 0;
    std::vector<TraceInst> run_; ///< block served by acquireRun()
};

} // namespace acic

#endif // ACIC_TRACE_SYNTHETIC_HH
