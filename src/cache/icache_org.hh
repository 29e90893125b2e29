/**
 * @file
 * Interface every L1i organization implements: the plain policy-driven
 * cache, victim-cache variants, VVC, and the i-Filter/ACIC family.
 * The timing simulator talks to the front end's instruction supply
 * exclusively through this interface.
 */

#ifndef ACIC_CACHE_ICACHE_ORG_HH
#define ACIC_CACHE_ICACHE_ORG_HH

#include <string>

#include "cache/cache_types.hh"
#include "common/stats.hh"

namespace acic {

/** See file comment. */
class IcacheOrg
{
  public:
    /** tickWake_ value meaning "no pending pipeline work". */
    static constexpr Cycle kNeverTick = ~Cycle{0};

    virtual ~IcacheOrg() = default;

    /**
     * Demand access (one fetch bundle).
     * @return true on hit in any constituent structure.
     */
    virtual bool access(const CacheAccess &access) = 0;

    /** A serviced miss (demand or prefetch) arrives from L2+. */
    virtual void fill(const CacheAccess &access) = 0;

    /** Presence test covering every constituent structure. */
    virtual bool contains(BlockAddr blk) const = 0;

    /**
     * Advance internal pipelines (predictor update latency).
     * Contract: an organization overriding this must keep tickWake_
     * at or below the next cycle on which tick() would do work (0 is
     * always safe: tick every cycle); the base leaves it at
     * kNeverTick because this default tick() does nothing.
     *
     * tickWake_ also gates the engine's clock skip: after a cycle in
     * which no stage acted, SimEngine jumps the clock to the earliest
     * pending event, nextTick() among them, so a tickWake_ above the
     * next cycle with work would skip that work. A decorator that
     * wraps another organization must therefore forward nextTick()
     * into its own tickWake_ or keep it at 0; 0 dispatches tick()
     * every cycle and so disables skipping.
     */
    virtual void tick(Cycle now) { (void)now; }

    /**
     * The engine's per-cycle entry point: dispatches to tick() only
     * when pipeline work can be due, so the many organizations with
     * no update pipeline (and ACIC between training bursts) cost
     * nothing per cycle instead of a virtual-call chain.
     * @return true when tick() was dispatched.
     */
    bool maybeTick(Cycle now)
    {
        if (now < tickWake_)
            return false;
        tick(now);
        return true;
    }

    /** Earliest cycle at which tick() can have work (tickWake_). */
    Cycle nextTick() const { return tickWake_; }

    /** Scheme name as used in bench tables. */
    virtual std::string name() const = 0;

    /** Storage added relative to the baseline 32 KB LRU i-cache. */
    virtual std::uint64_t storageOverheadBits() const = 0;

    /** Organization-specific counters. */
    virtual const StatSet &stats() const { return stats_; }
    StatSet &statsMut() { return stats_; }

    /**
     * Checkpoint the organization (checkpoint/resume). The base
     * serializes stats_; overrides must call the base first and then
     * their own structures, in a fixed order.
     */
    virtual void save(Serializer &s) const { stats_.save(s); }
    virtual void load(Deserializer &d) { stats_.load(d); }

  protected:
    StatSet stats_;
    /** Earliest cycle at which tick() can have work; see tick(). */
    Cycle tickWake_ = kNeverTick;
};

} // namespace acic

#endif // ACIC_CACHE_ICACHE_ORG_HH
