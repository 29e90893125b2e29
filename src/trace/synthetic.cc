#include "trace/synthetic.hh"

#include <algorithm>

#include "common/logging.hh"

namespace acic {

namespace {

/** Code image starts here; value is arbitrary but stable. */
constexpr Addr kCodeBase = 0x400000;

/** Distinct stream for layout so reset() never rebuilds the image. */
constexpr std::uint64_t kLayoutSalt = 0x1afed00dcafeull;

/** Distinct stream for dynamic behaviour. */
constexpr std::uint64_t kRunSalt = 0x5eedf00dull;

} // namespace

SyntheticWorkload::SyntheticWorkload(WorkloadParams params)
    : params_(std::move(params)), rng_(params_.seed ^ kRunSalt)
{
    ACIC_ASSERT(params_.minFnSize >= 8, "functions must hold >= 8 insts");
    ACIC_ASSERT(params_.maxFnSize >= params_.minFnSize,
                "bad function size range");
    ACIC_ASSERT(params_.numPhases >= 1, "need at least one phase");
    ACIC_ASSERT(params_.phaseFunctions >= 2, "need >= 2 fns per phase");
    buildStaticImage();
    startRun();
}

void
SyntheticWorkload::buildStaticImage()
{
    Rng layout(params_.seed ^ kLayoutSalt);

    // Phases own disjoint slices of non-library functions except for a
    // phaseOverlap fraction shared with the cyclically-next phase.
    const std::uint32_t own = static_cast<std::uint32_t>(
        params_.phaseFunctions * (1.0 - params_.phaseOverlap));
    const std::uint32_t shared = params_.phaseFunctions - own;
    const std::uint32_t poolFns =
        params_.numPhases * own + params_.numPhases * shared;
    const std::uint32_t totalFns = params_.libFunctions + poolFns;

    functions_.resize(totalFns);
    Addr cursor = kCodeBase;
    for (auto &fn : functions_) {
        fn.size = static_cast<std::uint32_t>(
            layout.nextRange(params_.minFnSize, params_.maxFnSize));
        fn.base = cursor;
        // Random sub-block skew so function starts hit every block
        // offset, as a real linker layout would.
        cursor += static_cast<Addr>(fn.size) * TraceInst::kInstBytes;
        cursor += layout.nextBelow(kBlockBytes / TraceInst::kInstBytes) *
                  TraceInst::kInstBytes;

        fn.siteAt.assign(fn.size, -1);
        const double norm =
            params_.condFrac + params_.loopFrac + params_.callFrac;
        // Loop spans are kept disjoint (a span never contains another
        // loop site); otherwise re-running an outer span re-draws the
        // inner loops and the walk time explodes multiplicatively.
        std::uint32_t last_loop_off = 0;
        // Slot 0 is never a site (entry), the last slot is the return.
        for (std::uint32_t off = 1; off + 1 < fn.size; ++off) {
            if (!layout.chance(params_.branchDensity))
                continue;
            Site site{};
            const double kindDraw = layout.nextDouble() * norm;
            if (kindDraw < params_.condFrac) {
                site.kind = SiteKind::CondFwd;
                if (layout.chance(params_.earlyExitFrac)) {
                    site.target = fn.size - 1;
                    site.takenProb = 0.06f;
                } else {
                    const std::uint32_t maxSkip =
                        std::min<std::uint32_t>(16, fn.size - 2 - off);
                    if (maxSkip < 2)
                        continue;
                    site.target = off + 1 + static_cast<std::uint32_t>(
                        layout.nextRange(1, maxSkip));
                    // Real branches are strongly biased: most rarely
                    // taken, some nearly always, few genuinely mixed.
                    // This keeps TAGE in its realistic 2-6 MPKI range.
                    const double bias_class = layout.nextDouble();
                    if (bias_class < 0.70) {
                        site.takenProb = static_cast<float>(
                            0.02 + 0.06 * layout.nextDouble());
                    } else if (bias_class < 0.85) {
                        site.takenProb = static_cast<float>(
                            0.90 + 0.08 * layout.nextDouble());
                    } else {
                        site.takenProb = static_cast<float>(
                            0.25 + 0.50 * layout.nextDouble());
                    }
                }
            } else if (kindDraw < params_.condFrac + params_.loopFrac) {
                if (off < 4)
                    continue;
                const std::uint32_t max_span = std::min<std::uint32_t>(
                    {off - last_loop_off >= 1 ? off - last_loop_off - 1
                                              : 0,
                     off - 1, 12});
                if (max_span < 2)
                    continue;
                site.kind = SiteKind::LoopBack;
                site.target = off - static_cast<std::uint32_t>(
                    layout.nextRange(2, max_span));
                site.takenProb = 0.0f;
                // Static trip count: real loop bounds repeat, which is
                // what lets TAGE predict the exit.
                const double mean = params_.loopTripMean;
                const double p = mean <= 1.0 ? 1.0 : 1.0 / mean;
                site.tripCount = static_cast<std::uint16_t>(
                    layout.geometric(p, params_.maxLoopTrip));
                last_loop_off = off;
            } else {
                site.kind = SiteKind::Call;
                site.target = 0;
                site.takenProb = 0.0f;
            }
            fn.siteAt[off] =
                static_cast<std::int32_t>(fn.sites.size());
            fn.sites.push_back(site);
        }
    }
    footprintBytes_ = cursor - kCodeBase;

    // Assemble phase working sets over the non-library pool.
    phaseFns_.assign(params_.numPhases, {});
    const std::uint32_t firstPool = params_.libFunctions;
    for (std::uint32_t p = 0; p < params_.numPhases; ++p) {
        auto &set = phaseFns_[p];
        const std::uint32_t ownBase = firstPool + p * own;
        for (std::uint32_t i = 0; i < own; ++i)
            set.push_back(ownBase + i);
        // Shared tail borrowed from the next phase's shared slice.
        const std::uint32_t sharedBase =
            firstPool + params_.numPhases * own +
            ((p + 1) % params_.numPhases) * shared;
        for (std::uint32_t i = 0; i < shared; ++i)
            set.push_back(sharedBase + i);
    }

    libZipf_ = std::make_unique<ZipfSampler>(
        std::max<std::size_t>(params_.libFunctions, 1),
        params_.zipfSkew);
    phaseZipf_ = std::make_unique<ZipfSampler>(params_.phaseFunctions,
                                               params_.zipfSkew);
    // The first hotCount_ functions of every phase list form its hot
    // kernel; the sweep cursor walks the peripheral remainder.
    hotCount_ = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(params_.hotFrac *
                                      params_.phaseFunctions));
    hotZipf_ = std::make_unique<ZipfSampler>(hotCount_, 0.4);
}

void
SyntheticWorkload::startRun()
{
    rng_ = Rng(params_.seed ^ kRunSalt);
    sweepCursor_.assign(params_.numPhases, 0);
    stack_.clear();
    curLoops_.clear();
    phase_ = 0;
    phaseBudget_ = static_cast<std::int64_t>(params_.phaseMeanLen);
    curFn_ = choosePhaseEntry();
    curOff_ = 0;
    emitted_ = 0;
}

void
SyntheticWorkload::reset()
{
    startRun();
}

Addr
SyntheticWorkload::pcOf(std::uint32_t fn, std::uint32_t off) const
{
    return functions_[fn].base +
           static_cast<Addr>(off) * TraceInst::kInstBytes;
}

std::uint32_t
SyntheticWorkload::chooseCallee(std::uint32_t caller)
{
    if (params_.libFunctions > 0 && rng_.chance(params_.libCallFrac)) {
        const std::uint32_t callee =
            static_cast<std::uint32_t>(libZipf_->sample(rng_));
        if (callee != caller)
            return callee;
    }
    const auto &set = phaseFns_[phase_];
    // Hot-kernel call: short re-reference distance, cache-worthy.
    if (rng_.chance(params_.hotCallFrac)) {
        const std::uint32_t callee =
            set[hotZipf_->sample(rng_)];
        if (callee != caller)
            return callee;
    }
    // Peripheral sweep: once-per-request touch at ~ws distance.
    const std::uint32_t peripheral =
        static_cast<std::uint32_t>(set.size()) - hotCount_;
    if (peripheral > 0 && rng_.chance(params_.sweepBias)) {
        std::uint32_t &cursor = sweepCursor_[phase_];
        const std::uint32_t callee =
            set[hotCount_ + (cursor % peripheral)];
        ++cursor;
        if (callee != caller)
            return callee;
    }
    for (int attempt = 0; attempt < 4; ++attempt) {
        const std::uint32_t callee = set[phaseZipf_->sample(rng_)];
        if (callee != caller)
            return callee;
    }
    return set[0] != caller ? set[0] : set[1];
}

std::uint32_t
SyntheticWorkload::choosePhaseEntry()
{
    const auto &set = phaseFns_[phase_];
    const std::uint32_t peripheral =
        static_cast<std::uint32_t>(set.size()) - hotCount_;
    if (peripheral > 0 && rng_.chance(params_.sweepBias)) {
        std::uint32_t &cursor = sweepCursor_[phase_];
        const std::uint32_t entry =
            set[hotCount_ + (cursor % peripheral)];
        ++cursor;
        return entry;
    }
    return set[phaseZipf_->sample(rng_)];
}

void
SyntheticWorkload::enterNextPhase()
{
    phase_ = (phase_ + 1) % params_.numPhases;
    // +/- 25% jitter keeps phase boundaries from beating against the
    // request loop deterministically.
    const double jitter = 0.75 + 0.5 * rng_.nextDouble();
    phaseBudget_ = static_cast<std::int64_t>(
        static_cast<double>(params_.phaseMeanLen) * jitter);
}

void
SyntheticWorkload::step(TraceInst &rec)
{
    Function &fn = functions_[curFn_];
    --phaseBudget_;

    // Return slot: last instruction of every function.
    if (curOff_ + 1 >= fn.size) {
        rec.kind = BranchKind::Return;
        rec.taken = true;
        if (phaseBudget_ <= 0) {
            // Request complete: unwind and start the next phase.
            stack_.clear();
            curLoops_.clear();
            enterNextPhase();
            curFn_ = choosePhaseEntry();
            curOff_ = 0;
        } else if (!stack_.empty()) {
            curFn_ = stack_.back().fn;
            curOff_ = stack_.back().retOff;
            curLoops_ = std::move(stack_.back().loops);
            stack_.pop_back();
        } else {
            curLoops_.clear();
            curFn_ = choosePhaseEntry();
            curOff_ = 0;
        }
        return;
    }

    const std::int32_t siteIdx = fn.siteAt[curOff_];
    if (siteIdx < 0) {
        rec.kind = BranchKind::None;
        rec.taken = false;
        ++curOff_;
        return;
    }

    const Site &site = fn.sites[static_cast<std::size_t>(siteIdx)];
    switch (site.kind) {
      case SiteKind::CondFwd: {
        rec.kind = BranchKind::Cond;
        rec.taken = rng_.chance(site.takenProb);
        curOff_ = rec.taken ? site.target : curOff_ + 1;
        return;
      }
      case SiteKind::LoopBack: {
        rec.kind = BranchKind::Cond;
        auto it = std::find_if(curLoops_.begin(), curLoops_.end(),
                               [&](const auto &e) {
                                   return e.first == curOff_;
                               });
        if (it == curLoops_.end()) {
            // First encounter in this execution of the span: arm the
            // site's static trip count.
            curLoops_.push_back(
                {curOff_, static_cast<std::uint32_t>(site.tripCount)});
            it = curLoops_.end() - 1;
        }
        if (it->second > 0) {
            rec.taken = true;
            --it->second;
            curOff_ = site.target;
        } else {
            rec.taken = false;
            curLoops_.erase(it);
            ++curOff_;
        }
        return;
      }
      case SiteKind::Call: {
        if (stack_.size() >= params_.maxCallDepth) {
            rec.kind = BranchKind::None;
            rec.taken = false;
            ++curOff_;
            return;
        }
        rec.kind = BranchKind::Call;
        rec.taken = true;
        stack_.push_back(Frame{curFn_, curOff_ + 1,
                               std::move(curLoops_)});
        curLoops_.clear();
        curFn_ = chooseCallee(curFn_);
        curOff_ = 0;
        return;
      }
    }
    ACIC_PANIC("unreachable branch site kind");
}

bool
SyntheticWorkload::next(TraceInst &out)
{
    if (emitted_ >= params_.instructions)
        return false;
    out.pc = pcOf(curFn_, curOff_);
    step(out);
    out.nextPc = pcOf(curFn_, curOff_);
    ++emitted_;
    return true;
}

const TraceInst *
SyntheticWorkload::acquireRun(std::uint64_t max, std::uint64_t &n)
{
    constexpr std::uint64_t kRunRecords = 4096;
    run_.resize(static_cast<std::size_t>(
        std::min({max, kRunRecords, params_.instructions - emitted_})));
    n = 0;
    while (n < run_.size() && SyntheticWorkload::next(run_[n]))
        ++n;
    return n == 0 ? nullptr : run_.data();
}

} // namespace acic
