/**
 * @file
 * Miss Status Holding Registers (Kroft, ISCA 1981). Tracks outstanding
 * misses so duplicate requests merge and fills release their entry at
 * the due cycle. The paper gives the L1i 16 MSHRs (Table II); ACIC's
 * CSHR structure is explicitly "inspired by the design of MSHR".
 */

#ifndef ACIC_CACHE_MSHR_HH
#define ACIC_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace acic {

class Serializer;
class Deserializer;

/** Outcome of an allocation attempt. */
enum class MshrOutcome : std::uint8_t
{
    Allocated, ///< new entry created
    Merged,    ///< request folded into an in-flight miss
    Full,      ///< no entry free; caller must retry
};

/** See file comment. */
class MshrFile
{
  public:
    explicit MshrFile(std::uint32_t entries);

    /**
     * Request servicing of @p blk, due back at @p ready_cycle.
     * Merging keeps the earlier ready cycle. @p pc and @p seq
     * describe the requesting access and ride along to the fill.
     */
    MshrOutcome allocate(BlockAddr blk, Cycle ready_cycle,
                         bool is_prefetch, Addr pc = 0,
                         std::uint64_t seq = 0);

    /** True when a miss on @p blk is in flight. */
    bool pending(BlockAddr blk) const;

    /** Ready cycle of a pending miss (kInvalidAddr-safe: 0 if none). */
    Cycle readyCycle(BlockAddr blk) const;

    /**
     * Pop every entry due at or before @p now into @p out.
     * @return number of fills popped.
     */
    struct Fill
    {
        BlockAddr blk;
        bool wasPrefetch;
        bool demandWaiting; ///< a demand merged into/created this miss
        Addr pc;            ///< requesting PC (policy signatures)
        std::uint64_t seq;  ///< requesting demand-sequence index
    };
    std::size_t popReady(Cycle now, std::vector<Fill> &out);

    /** Inline gate for popReady(): false guarantees no entry is due,
     *  letting the per-cycle caller skip the call and its fill-loop
     *  setup entirely. (True only promises a fill *may* be due:
     *  minReady_ is a lower bound.) */
    bool anyReady(Cycle now) const
    {
        return used_ != 0 && now >= minReady_;
    }

    /** Earliest cycle at which a fill can be due (a lower bound, as
     *  for anyReady()); ~0 when no miss is in flight. */
    Cycle nextReady() const { return used_ == 0 ? ~Cycle{0} : minReady_; }

    /** In-flight entry count. */
    std::uint32_t inFlight() const { return used_; }

    /** Capacity. */
    std::uint32_t capacity() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }

    /** True when no entry is free. */
    bool full() const { return used_ == capacity(); }

    /** Drop everything (between benchmark runs). */
    void clear();

    /** Checkpoint in-flight misses (checkpoint/resume). */
    void save(Serializer &s) const;
    void load(Deserializer &d);

  private:
    struct Entry
    {
        BlockAddr blk = 0;
        Cycle ready = 0;
        bool valid = false;
        bool wasPrefetch = false;
        bool demandWaiting = false;
        Addr pc = 0;
        std::uint64_t seq = 0;
    };

    /** Unmatchable tag-mirror value for free slots (blk < 2^58). */
    static constexpr std::uint64_t kFreeTag = ~std::uint64_t{0};

    /** Index of the live entry holding @p blk, or npos. */
    std::size_t findTag(BlockAddr blk) const;
    /** Index of the first free entry, or npos. */
    std::size_t findFree() const;

    std::vector<Entry> entries_;
    /**
     * SoA mirror of the entry block tags (kFreeTag when invalid),
     * padded to the tag-scan lane stride so pending()/allocate()
     * resolve with one SIMD sweep instead of walking the entry
     * structs. Derived state: rebuilt on load().
     */
    std::vector<std::uint64_t> tags_;
    std::uint32_t used_ = 0;
    /** Lower bound on the earliest in-flight ready cycle (never above
     *  the true minimum), so the per-cycle popReady() sweep is skipped
     *  while nothing can complete. */
    Cycle minReady_ = ~Cycle{0};
};

} // namespace acic

#endif // ACIC_CACHE_MSHR_HH
