#include "sim/engine.hh"

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/telemetry.hh"

namespace acic {

MachineState::MachineState(const SimConfig &config, TraceSource &trace)
    : walker(trace, config.fetchWidth),
      bp(config.btbEntries, config.btbWays, config.rasDepth),
      mshr(config.l1iMshrs), hierarchy(config.hierarchy)
{
    fills.reserve(config.l1iMshrs);
    stPrefetches = raw.handle("sim.prefetches");
    stDemandAccesses = raw.handle("sim.demand_accesses");
    stL1iMisses = raw.handle("sim.l1i_misses");
    stLatePrefetches = raw.handle("sim.late_prefetches");
    stMispredicts = raw.handle("sim.mispredicts");
    stBtbMisses = raw.handle("sim.btb_misses");
    stRasMispredicts = raw.handle("sim.ras_mispredicts");
}

SimEngine::SimEngine(const SimConfig &config, TraceSource &trace,
                     IcacheOrg &org, const DemandOracle *oracle,
                     const BranchTable *branches)
    : config_(config), trace_(trace), org_(org), oracle_(oracle),
      branches_(branches), state_(config, trace)
{
    // The walker reads lazily, so rewinding here (as the monolithic
    // run() did up front) happens before any instruction is pulled.
    trace_.reset();
    if (Telemetry::enabled()) {
        hbInterval_ = Telemetry::heartbeatInterval();
        if (hbInterval_ > 0) {
            hbNext_ = hbInterval_;
            hbLastWall_ = std::chrono::steady_clock::now();
        }
    }
}

std::uint64_t
SimEngine::nextUseOf(std::uint64_t seq) const
{
    return oracle_ == nullptr ? kNeverAgain : oracle_->nextUseAt(seq);
}

std::uint64_t
SimEngine::nextUseAfter(BlockAddr blk, std::uint64_t seq) const
{
    return oracle_ == nullptr ? kNeverAgain
                              : oracle_->nextUseAfter(blk, seq);
}

bool
SimEngine::issuePrefetch(BlockAddr blk, Addr pc, std::uint64_t seq)
{
    MachineState &m = state_;
    if (org_.contains(blk) || m.mshr.pending(blk))
        return true; // nothing to do; counts as considered
    if (m.mshr.full())
        return false;
    const Cycle latency = m.hierarchy.serviceMiss(blk, pc);
    m.mshr.allocate(blk, m.cycle + latency, true, pc, seq);
    m.raw.bump(m.stPrefetches);
    return true;
}

void
SimEngine::functionalWarm(TraceSource &prefix)
{
    MachineState &m = state_;
    ACIC_ASSERT(m.cycle == 0 && m.retired == 0 && m.ftq.empty(),
                "functionalWarm() must precede any stepping");
    ACIC_ASSERT(branches_ == nullptr,
                "functionalWarm() needs live branch prediction: a "
                "branch table starts from cold predictors");
    TelemetryScope span("engine.functionalWarm");
    if (span.live()) {
        span.attr("workload", trace_.name());
        span.attr("scheme", org_.name());
    }
    // Three kinds of long-lived state get warmed, all driven by the
    // instruction stream under a coarse stall-until-fill clock
    // (1 cycle per fetch bundle plus the miss service latency):
    //
    //  - Branch predictors: the same BranchUnit::predict() call per
    //    bundle as stage 5 of stepCycle() — TAGE and BTB lookups
    //    mutate history/recency state, so skipping them would leave
    //    the predictors in a different state than a timed simulation
    //    of the same prefix would.
    //  - The organization itself: replacement/admission metadata
    //    (SRRIP RRPVs, the ACIC history and pattern tables) trains
    //    over the whole preceding trace, far longer than any
    //    affordable timed warmup.
    //  - The L2/L3 backing hierarchy (the slowest-warming capacity
    //    in the model, ~10^6 instructions for the 2 MB L3), fed by
    //    the organization's own demand-miss stream. Prefetch
    //    timeliness — and therefore the measured late-prefetch and
    //    miss counts — depends on L2/L3 hit rates, which is why a
    //    cold hierarchy inflates interval MPKI.
    //
    // The engine clock resumes from the warming clock so the
    // organization's delayed-update queues and gap trackers see
    // monotonic time across the functional/timed boundary.
    BundleWalker bundles(prefix, config_.fetchWidth);
    bundles.reset();
    Bundle bundle;
    std::uint64_t bundle_seq = 0;
    const bool entangling =
        config_.prefetcher == PrefetcherKind::Entangling;
    while (bundles.next(bundle)) {
        org_.maybeTick(m.cycle);
        CacheAccess access;
        access.pc = bundle.pc;
        access.blk = bundle.blk;
        access.seq = bundle_seq++;
        access.cycle = m.cycle;
        if (entangling)
            m.entangler.onDemandAccess(access.blk, m.cycle);
        if (!org_.access(access)) {
            const Cycle latency =
                m.hierarchy.serviceMiss(access.blk, access.pc);
            if (entangling)
                m.entangler.onDemandMiss(access.blk, m.cycle,
                                         latency);
            m.cycle += latency;
            access.cycle = m.cycle;
            org_.fill(access);
        }
        if (entangling) {
            // Train only; candidates cannot be modeled without
            // timing (and the queue is unbounded), so drain them.
            BlockAddr discard;
            while (m.entangler.popCandidate(discard)) {
            }
        }
        ++m.cycle;
        (void)m.bp.predict(bundle);
    }
    const StatSet &hs = m.hierarchy.stats();
    funcL2Accesses_ = hs.get("hier.l2_hit") + hs.get("hier.l2_miss");
    funcL3Accesses_ = hs.get("hier.l3_hit") + hs.get("hier.l3_miss");
    funcDramAccesses_ = hs.get("hier.dram_access");
    orgStatsBase_ = org_.stats().raw();
    warmedFunctionally_ = true;
}

void
SimEngine::latchSnapshot()
{
    state_.warmupSnapped = true;
    state_.snap = state_.raw;
    state_.warmupCycle = state_.cycle;
}

bool
SimEngine::stepCycle()
{
    MachineState &m = state_;
    // Whether any stage changed machine state this cycle. A cycle in
    // which none did leaves everything but the clock as it was, so
    // the next cycles repeat it until an event in nextEvent() comes.
    bool acted = false;

    // ---- 1. Structure pipelines -------------------------------
    acted |= org_.maybeTick(m.cycle);

    // ---- 2. Fill completions ----------------------------------
    if (m.mshr.anyReady(m.cycle)) {
        m.fills.clear();
        m.mshr.popReady(m.cycle, m.fills);
        acted |= !m.fills.empty();
        for (const auto &fill : m.fills) {
            CacheAccess access;
            access.blk = fill.blk;
            access.pc = fill.pc;
            access.seq = fill.seq;
            access.cycle = m.cycle;
            access.isPrefetch =
                fill.wasPrefetch && !fill.demandWaiting;
            access.nextUse = fill.demandWaiting
                                 ? nextUseOf(fill.seq)
                                 : nextUseAfter(fill.blk,
                                                m.lastDemandSeq);
            org_.fill(access);
            if (m.waiting && fill.blk == m.waitingBlk)
                m.headReady = true;
        }
    }

    // ---- 3. Retire --------------------------------------------
    {
        const std::uint64_t n = m.decodeQueue < config_.retireWidth
                                    ? m.decodeQueue
                                    : config_.retireWidth;
        m.decodeQueue -= n;
        m.retired += n;
        acted |= n != 0;
        if (!m.warmupSnapped && m.retired >= snapTarget_)
            latchSnapshot();
    }

    // ---- 4. Fetch ---------------------------------------------
    if (!m.ftq.empty() && !m.waiting) {
        FtqEntry &head = m.ftq.front();
        if (m.decodeQueue + head.count <= config_.decodeQueueEntries) {
            if (m.pendingAlloc) {
                // Retry a blocked MSHR allocation.
                const auto outcome = m.mshr.allocate(
                    head.blk, m.cycle + m.pendingLatency, false,
                    head.pc, head.seq);
                if (outcome != MshrOutcome::Full) {
                    m.pendingAlloc = false;
                    m.waiting = true;
                    m.waitingBlk = head.blk;
                    acted = true;
                }
            } else {
                acted = true;
                CacheAccess access;
                access.pc = head.pc;
                access.blk = head.blk;
                access.seq = head.seq;
                access.nextUse = nextUseOf(head.seq);
                access.cycle = m.cycle;
                m.lastDemandSeq = head.seq;
                m.raw.bump(m.stDemandAccesses);
                if (config_.prefetcher == PrefetcherKind::Entangling)
                    m.entangler.onDemandAccess(access.blk, m.cycle);
                const bool hit = org_.access(access);
                if (hit) {
                    m.decodeQueue += head.count;
                    if (head.redirectPenalty > 0) {
                        m.bpResumeAt = m.cycle + head.redirectPenalty;
                        m.bpWaitingRedirect = false;
                    }
                    m.ftq.pop_front();
                } else {
                    m.raw.bump(m.stL1iMisses);
                    const Cycle latency = m.hierarchy.serviceMiss(
                        access.blk, access.pc);
                    if (config_.prefetcher ==
                        PrefetcherKind::Entangling) {
                        m.entangler.onDemandMiss(access.blk, m.cycle,
                                                 latency);
                    }
                    const auto outcome = m.mshr.allocate(
                        access.blk, m.cycle + latency, false,
                        access.pc, access.seq);
                    if (outcome == MshrOutcome::Full) {
                        m.pendingAlloc = true;
                        m.pendingLatency = latency;
                    } else {
                        if (outcome == MshrOutcome::Merged)
                            m.raw.bump(m.stLatePrefetches);
                        m.waiting = true;
                        m.waitingBlk = access.blk;
                    }
                }
            }
        }
    } else if (!m.ftq.empty() && m.waiting && m.headReady) {
        FtqEntry &head = m.ftq.front();
        if (m.decodeQueue + head.count <= config_.decodeQueueEntries) {
            m.decodeQueue += head.count;
            if (head.redirectPenalty > 0) {
                m.bpResumeAt = m.cycle + head.redirectPenalty;
                m.bpWaitingRedirect = false;
            }
            m.ftq.pop_front();
            m.waiting = false;
            m.headReady = false;
            acted = true;
        }
    }

    // ---- 5. Branch-prediction unit (bundle supply) -------------
    for (unsigned bp_slot = 0;
         bp_slot < config_.bpBundlesPerCycle && !m.walkerDone &&
         !m.bpWaitingRedirect && m.cycle >= m.bpResumeAt &&
         m.ftq.size() < config_.ftqEntries;
         ++bp_slot) {
        acted = true;
        Bundle bundle;
        if (!m.walker.next(bundle)) {
            m.walkerDone = true;
            break;
        }
        FtqEntry entry;
        entry.blk = bundle.blk;
        entry.pc = bundle.pc;
        entry.count = bundle.count;
        entry.seq = m.seqCounter++;
        BranchOutcome outcome;
        if (branches_ != nullptr) {
            ACIC_ASSERT(entry.seq < branches_->size(),
                        "branch table shorter than the engine's trace");
            outcome = (*branches_)[entry.seq];
        } else {
            outcome = m.bp.predict(bundle);
        }
        if (outcome.mispredicts != 0)
            m.raw.bump(m.stMispredicts, outcome.mispredicts);
        if (outcome.btbMisses != 0)
            m.raw.bump(m.stBtbMisses, outcome.btbMisses);
        if (outcome.rasMisses != 0)
            m.raw.bump(m.stRasMispredicts, outcome.rasMisses);
        entry.redirectPenalty = outcome.redirectPenalty(
            config_.mispredictPenalty, config_.btbMissPenalty);
        if (entry.redirectPenalty > 0)
            m.bpWaitingRedirect = true;
        m.ftq.push_back(entry);
    }

    // ---- 6. Prefetch issue ------------------------------------
    if (config_.prefetcher == PrefetcherKind::Fdp) {
        unsigned issued = 0;
        // Resume where the last scan stopped: entries with
        // seq < prefetchCursor are already considered, and FTQ seqs
        // are consecutive, so the first candidate sits at a computed
        // index instead of behind a front-to-back flag walk.
        std::size_t i = 1;
        if (!m.ftq.empty() &&
            m.prefetchCursor > m.ftq.front().seq) {
            const std::uint64_t skip =
                m.prefetchCursor - m.ftq.front().seq;
            if (skip > i)
                i = static_cast<std::size_t>(skip);
        }
        for (; i < m.ftq.size() && issued < config_.prefetchDegree;
             ++i) {
            FtqEntry &entry = m.ftq[i];
            if (entry.prefetchConsidered)
                continue;
            if (issuePrefetch(entry.blk, entry.pc, entry.seq)) {
                entry.prefetchConsidered = true;
                m.prefetchCursor = entry.seq + 1;
                ++issued;
                acted = true;
            } else {
                break; // MSHRs full; retry next cycle
            }
        }
    } else if (config_.prefetcher == PrefetcherKind::Entangling) {
        unsigned issued = 0;
        BlockAddr candidate;
        while (issued < config_.prefetchDegree &&
               m.entangler.popCandidate(candidate)) {
            issuePrefetch(candidate, 0, m.lastDemandSeq);
            ++issued;
            acted = true;
        }
    }

    ++m.cycle;
    return acted;
}

Cycle
SimEngine::nextEvent() const
{
    // In a cycle where no stage acted, every stage was blocked on
    // one of three events (or on state only another stage changes):
    //  - the organization's next pipeline tick (tickWake_);
    //  - the earliest in-flight MSHR fill, which also unblocks a
    //    fetch waiting on its miss or on a full MSHR file and a
    //    prefetch scan stopped by one;
    //  - the end of a redirect stall, while the BP unit is
    //    otherwise free to run (walker not done, no redirect
    //    pending, FTQ not full).
    const MachineState &m = state_;
    Cycle wake = org_.nextTick();
    const Cycle fill = m.mshr.nextReady();
    if (fill < wake)
        wake = fill;
    if (!m.walkerDone && !m.bpWaitingRedirect &&
        m.ftq.size() < config_.ftqEntries && m.bpResumeAt < wake)
        wake = m.bpResumeAt;
    return wake;
}

void
SimEngine::advanceUntilRetired(std::uint64_t target)
{
    MachineState &m = state_;
    if (m.retired >= target)
        return;
    // Guard against pathological stalls (indicates a simulator bug).
    const Cycle cycle_limit =
        m.cycle + (target - m.retired) * 64 + 1'000'000;
    while (m.retired < target) {
        ACIC_ASSERT(m.cycle < cycle_limit,
                    "simulator wedged: cycle limit exceeded");
        ++steps_;
        if (!stepCycle()) {
            // Idle cycles until the next event would repeat this one
            // exactly; jump over them. The cap keeps a wedged
            // machine (no event ever) hitting the assertion above.
            const Cycle wake = nextEvent();
            if (wake > m.cycle)
                m.cycle = wake < cycle_limit ? wake : cycle_limit;
        }
        // Telemetry heartbeat: hbNext_ is ~0 when disabled, so this
        // is the stepping loop's single predictable telemetry check.
        if (m.retired >= hbNext_)
            emitHeartbeat();
    }
}

void
SimEngine::emitHeartbeat()
{
    const MachineState &m = state_;
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t misses = m.raw.get(m.stL1iMisses);
    const std::uint64_t wInsts = m.retired - hbLastRetired_;
    const std::uint64_t wMisses = misses - hbLastMisses_;
    const Cycle wCycles = m.cycle - hbLastCycle_;
    const double wallSecs =
        std::chrono::duration<double>(now - hbLastWall_).count();
    Telemetry::counter(
        "engine.heartbeat",
        {{"workload", trace_.name()},
         {"scheme", org_.name()},
         {"retired", m.retired},
         {"cycle", static_cast<std::uint64_t>(m.cycle)},
         {"window_insts", wInsts},
         {"window_mpki",
          wInsts == 0 ? 0.0
                      : 1000.0 * static_cast<double>(wMisses) /
                            static_cast<double>(wInsts)},
         {"window_ipc",
          wCycles == 0 ? 0.0
                       : static_cast<double>(wInsts) /
                             static_cast<double>(wCycles)},
         {"minst_per_s",
          wallSecs <= 0.0 ? 0.0
                          : static_cast<double>(wInsts) / 1e6 /
                                wallSecs}});
    hbLastRetired_ = m.retired;
    hbLastMisses_ = misses;
    hbLastCycle_ = m.cycle;
    hbLastWall_ = now;
    hbNext_ = m.retired + hbInterval_;
}

void
SimEngine::warmUp(std::uint64_t n)
{
    ACIC_ASSERT(!state_.warmupSnapped,
                "warmUp(): snapshot already latched (warmUp runs at "
                "most once and must precede measure)");
    TelemetryScope span("engine.warmUp");
    if (span.live()) {
        span.attr("workload", trace_.name());
        span.attr("scheme", org_.name());
        span.attr("target_insts", n);
    }
    snapTarget_ = state_.retired + n;
    measureTarget_ = snapTarget_;
    const Cycle cycle0 = state_.cycle;
    const std::uint64_t steps0 = steps_;
    if (state_.retired >= snapTarget_) {
        // Zero-length warmup: latch before the first cycle, which is
        // where the legacy retire-stage check would latch (no counter
        // moves before the first retire stage).
        latchSnapshot();
    } else {
        advanceUntilRetired(snapTarget_);
        ACIC_ASSERT(state_.warmupSnapped,
                    "warmup completed without latching its snapshot");
    }
    if (span.live()) {
        span.attr("cycles",
                  static_cast<std::uint64_t>(state_.cycle - cycle0));
        span.attr("steps", steps_ - steps0);
    }
}

void
SimEngine::measure(std::uint64_t n)
{
    if (!state_.warmupSnapped)
        warmUp(0);
    TelemetryScope span("engine.measure");
    if (span.live()) {
        span.attr("workload", trace_.name());
        span.attr("scheme", org_.name());
        span.attr("target_insts", n);
    }
    measureTarget_ += n;
    const Cycle cycle0 = state_.cycle;
    const std::uint64_t steps0 = steps_;
    advanceUntilRetired(measureTarget_);
    if (span.live()) {
        span.attr("cycles",
                  static_cast<std::uint64_t>(state_.cycle - cycle0));
        span.attr("steps", steps_ - steps0);
    }
}

void
SimEngine::save(Serializer &s) const
{
    const MachineState &m = state_;

    // Identity header: the checkpoint only resumes into an engine
    // built over the same trace, scheme, oracle mode, branch
    // prediction mode, and core configuration.
    s.str(trace_.name());
    s.u64(trace_.length());
    s.str(org_.name());
    s.b(oracle_ != nullptr);
    s.b(branches_ != nullptr);
    s.u64(config_.fetchWidth);
    s.u64(config_.ftqEntries);
    s.u64(config_.decodeQueueEntries);
    s.u64(config_.retireWidth);
    s.u64(config_.bpBundlesPerCycle);
    s.u64(config_.mispredictPenalty);
    s.u64(config_.btbMissPenalty);
    s.u8(static_cast<std::uint8_t>(config_.prefetcher));
    s.u64(config_.prefetchDegree);

    // Phase targets and functional-warm bookkeeping.
    s.u64(snapTarget_);
    s.u64(measureTarget_);
    s.u64(funcL2Accesses_);
    s.u64(funcL3Accesses_);
    s.u64(funcDramAccesses_);
    s.b(warmedFunctionally_);
    s.u64(orgStatsBase_.size());
    for (const auto &[name, value] : orgStatsBase_) {
        s.str(name);
        s.u64(value);
    }

    // Machine state. `fills` is per-cycle scratch (cleared before
    // every use in stepCycle) and the telemetry heartbeat is
    // host-side-only, so neither travels; nor does the unused
    // predictor state of a table-driven engine.
    m.walker.save(s);
    if (branches_ == nullptr)
        m.bp.save(s);
    m.mshr.save(s);
    m.hierarchy.save(s);
    m.entangler.save(s);

    s.u64(m.ftq.size());
    for (const FtqEntry &entry : m.ftq) {
        s.u64(entry.blk);
        s.u64(entry.pc);
        s.u8(entry.count);
        s.u64(entry.seq);
        s.u64(entry.redirectPenalty);
        s.b(entry.prefetchConsidered);
    }

    s.u64(m.cycle);
    s.u64(m.bpResumeAt);
    s.b(m.bpWaitingRedirect);
    s.b(m.walkerDone);
    s.u64(m.decodeQueue);
    s.u64(m.retired);
    s.u64(m.seqCounter);
    s.u64(m.lastDemandSeq);
    s.b(m.waiting);
    s.u64(m.waitingBlk);
    s.b(m.headReady);
    s.b(m.pendingAlloc);
    s.u64(m.pendingLatency);

    m.raw.save(s);
    s.b(m.warmupSnapped);
    m.snap.save(s);
    s.u64(m.warmupCycle);

    org_.save(s);
}

void
SimEngine::load(Deserializer &d)
{
    MachineState &m = state_;

    const std::string trace_name = d.str();
    if (trace_name != trace_.name())
        throw SerializeError("checkpoint was taken over trace '" +
                             trace_name + "', this engine runs '" +
                             trace_.name() + "'");
    d.expectGeometry("trace length", trace_.length());
    const std::string org_name = d.str();
    if (org_name != org_.name())
        throw SerializeError("checkpoint was taken under scheme '" +
                             org_name + "', this engine runs '" +
                             org_.name() + "'");
    if (d.b() != (oracle_ != nullptr))
        throw SerializeError("checkpoint oracle presence differs "
                             "from the running configuration");
    const bool table_driven = d.b();
    if (table_driven != (branches_ != nullptr))
        throw SerializeError(
            std::string("checkpoint was taken with ") +
            (table_driven ? "table-driven" : "live") +
            " branch prediction, this engine predicts " +
            (branches_ != nullptr ? "from a branch table" : "live"));
    d.expectGeometry("fetch width", config_.fetchWidth);
    d.expectGeometry("ftq entries", config_.ftqEntries);
    d.expectGeometry("decode queue entries",
                     config_.decodeQueueEntries);
    d.expectGeometry("retire width", config_.retireWidth);
    d.expectGeometry("bp bundles per cycle",
                     config_.bpBundlesPerCycle);
    d.expectGeometry("mispredict penalty",
                     config_.mispredictPenalty);
    d.expectGeometry("btb miss penalty", config_.btbMissPenalty);
    if (d.u8() != static_cast<std::uint8_t>(config_.prefetcher))
        throw SerializeError("checkpoint prefetcher kind differs "
                             "from the running configuration");
    d.expectGeometry("prefetch degree", config_.prefetchDegree);

    snapTarget_ = d.u64();
    measureTarget_ = d.u64();
    funcL2Accesses_ = d.u64();
    funcL3Accesses_ = d.u64();
    funcDramAccesses_ = d.u64();
    warmedFunctionally_ = d.b();
    orgStatsBase_.clear();
    const std::size_t n_base = d.count(9);
    for (std::size_t i = 0; i < n_base; ++i) {
        std::string name = d.str();
        const std::uint64_t value = d.u64();
        orgStatsBase_.emplace(std::move(name), value);
    }

    m.walker.load(d);
    if (branches_ == nullptr)
        m.bp.load(d);
    m.mshr.load(d);
    m.hierarchy.load(d);
    m.entangler.load(d);

    m.ftq.clear();
    const std::size_t n_ftq = d.count(34);
    for (std::size_t i = 0; i < n_ftq; ++i) {
        FtqEntry entry;
        entry.blk = d.u64();
        entry.pc = d.u64();
        entry.count = d.u8();
        if (entry.count == 0 || entry.count > Bundle::kMaxInsts)
            throw SerializeError("checkpoint bundle instruction count "
                                 "out of range (corrupt payload)");
        entry.seq = d.u64();
        entry.redirectPenalty = d.u64();
        entry.prefetchConsidered = d.b();
        m.ftq.push_back(std::move(entry));
    }
    m.fills.clear();
    // Re-derive the FDP scan cursor from the restored flags: the seq
    // of the first unconsidered entry past the head (everything
    // before it has been considered).
    m.prefetchCursor = 0;
    for (std::size_t i = 1; i < m.ftq.size(); ++i) {
        m.prefetchCursor = m.ftq[i].seq;
        if (!m.ftq[i].prefetchConsidered)
            break;
        m.prefetchCursor = m.ftq[i].seq + 1;
    }

    m.cycle = d.u64();
    m.bpResumeAt = d.u64();
    m.bpWaitingRedirect = d.b();
    m.walkerDone = d.b();
    m.decodeQueue = d.u64();
    m.retired = d.u64();
    m.seqCounter = d.u64();
    m.lastDemandSeq = d.u64();
    m.waiting = d.b();
    m.waitingBlk = d.u64();
    m.headReady = d.b();
    m.pendingAlloc = d.b();
    m.pendingLatency = d.u64();

    m.raw.load(d);
    m.warmupSnapped = d.b();
    m.snap.load(d);
    m.warmupCycle = d.u64();

    org_.load(d);

    // Restart the telemetry heartbeat window from the resume point;
    // rolling-window rates never span the process boundary.
    if (hbInterval_ > 0) {
        hbNext_ = m.retired + hbInterval_;
        hbLastRetired_ = m.retired;
        hbLastMisses_ = m.raw.get(m.stL1iMisses);
        hbLastCycle_ = m.cycle;
        hbLastWall_ = std::chrono::steady_clock::now();
    }
}

void
SimEngine::saveCheckpoint(const std::string &path) const
{
    TelemetryScope span("engine.saveCheckpoint");
    if (span.live()) {
        span.attr("workload", trace_.name());
        span.attr("scheme", org_.name());
        span.attr("retired", state_.retired);
        span.attr("path", path);
    }
    CheckpointWriter out(path, kCheckpointTag);
    save(out.payload());
    out.commit();
    span.attr("bytes",
              static_cast<std::uint64_t>(CheckpointFormat::kHeaderBytes +
                                         out.payload().size()));
}

void
SimEngine::loadCheckpoint(const std::string &path)
{
    TelemetryScope span("engine.loadCheckpoint");
    if (span.live()) {
        span.attr("workload", trace_.name());
        span.attr("scheme", org_.name());
        span.attr("path", path);
    }
    const std::vector<std::uint8_t> payload =
        readCheckpointFile(path, kCheckpointTag);
    span.attr("bytes",
              static_cast<std::uint64_t>(CheckpointFormat::kHeaderBytes +
                                         payload.size()));
    Deserializer d(payload);
    load(d);
    d.finish();
}

SimResult
SimEngine::finish() const
{
    TelemetryScope span("engine.finish");
    if (span.live()) {
        span.attr("workload", trace_.name());
        span.attr("scheme", org_.name());
    }
    const MachineState &m = state_;
    SimResult result;
    result.workload = trace_.name();
    result.scheme = org_.name();
    result.instructions = measureTarget_ - snapTarget_;
    result.cycles = m.cycle - m.warmupCycle;
    result.demandAccesses = m.raw.get(m.stDemandAccesses) -
                            m.snap.get("sim.demand_accesses");
    result.l1iMisses =
        m.raw.get(m.stL1iMisses) - m.snap.get("sim.l1i_misses");
    result.branchMispredicts =
        m.raw.get(m.stMispredicts) - m.snap.get("sim.mispredicts");
    result.btbMisses =
        m.raw.get(m.stBtbMisses) - m.snap.get("sim.btb_misses");
    result.prefetchesIssued =
        m.raw.get(m.stPrefetches) - m.snap.get("sim.prefetches");
    result.latePrefetches = m.raw.get(m.stLatePrefetches) -
                            m.snap.get("sim.late_prefetches");

    const auto &hs = m.hierarchy.stats();
    result.l2Accesses = hs.get("hier.l2_hit") +
                        hs.get("hier.l2_miss") - funcL2Accesses_;
    result.l3Accesses = hs.get("hier.l3_hit") +
                        hs.get("hier.l3_miss") - funcL3Accesses_;
    result.dramAccesses =
        hs.get("hier.dram_access") - funcDramAccesses_;
    if (!warmedFunctionally_) {
        result.orgStats = org_.stats();
    } else {
        // Report only the organization activity since the warming
        // pass; every org counter is a monotonic bump() count (no
        // set() gauges), so a per-name subtraction is exact.
        for (const auto &[name, value] : org_.stats().raw()) {
            const auto it = orgStatsBase_.find(name);
            const std::uint64_t base =
                it == orgStatsBase_.end() ? 0 : it->second;
            if (value > base)
                result.orgStats.bump(name, value - base);
        }
    }
    return result;
}

} // namespace acic
