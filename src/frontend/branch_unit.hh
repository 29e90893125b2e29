/**
 * @file
 * The branch-prediction unit of the front end: TAGE for conditional
 * directions, the BTB for taken targets and the RAS for returns
 * (Table II). predict() runs one fetch bundle through all three and
 * reports what went wrong as a 2-byte BranchOutcome.
 *
 * Training is a pure function of the instruction stream: predictions
 * never feed back into it, so the outcome of bundle k depends only on
 * bundles 0..k. That is what lets SharedWorkload::branchTable()
 * predict a workload's bundles once and share the table across every
 * cache configuration that replays it.
 */

#ifndef ACIC_FRONTEND_BRANCH_UNIT_HH
#define ACIC_FRONTEND_BRANCH_UNIT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "frontend/btb.hh"
#include "frontend/bundle.hh"
#include "frontend/tage.hh"

namespace acic {

class Serializer;
class Deserializer;

/**
 * What the BP unit got wrong in one bundle. Each count is at most
 * Bundle::kMaxInsts, so 4 bits hold it.
 *
 * The redirect penalty depends on the order of the events: a
 * direction or return mispredict sets it to the mispredict penalty, a
 * BTB miss raises it to at least the BTB-miss penalty. The 2-bit
 * `penalty` code keeps exactly what that order leaves behind.
 */
struct BranchOutcome
{
    enum Penalty : std::uint16_t
    {
        kNone = 0,
        kBtbMiss = 1,              ///< BTB misses only
        kMispredict = 2,           ///< no BTB miss after the last mispredict
        kMispredictThenBtbMiss = 3 ///< a BTB miss after the last mispredict
    };

    std::uint16_t mispredicts : 4; ///< TAGE direction mispredicts
    std::uint16_t btbMisses : 4;   ///< taken branches with a wrong target
    std::uint16_t rasMisses : 4;   ///< returns with a wrong target
    std::uint16_t penalty : 2;     ///< Penalty code

    BranchOutcome()
        : mispredicts(0), btbMisses(0), rasMisses(0), penalty(kNone)
    {
    }

    /** The cycles the BP unit stalls for this bundle's redirect. */
    Cycle
    redirectPenalty(Cycle mispredictPenalty, Cycle btbMissPenalty) const
    {
        switch (penalty) {
          case kBtbMiss:
            return btbMissPenalty;
          case kMispredict:
            return mispredictPenalty;
          case kMispredictThenBtbMiss:
            return mispredictPenalty > btbMissPenalty ? mispredictPenalty
                                                      : btbMissPenalty;
          default:
            return 0;
        }
    }
};

static_assert(sizeof(BranchOutcome) == 2, "one outcome per 2 bytes");

/** Outcome of every bundle of a trace, indexed by bundle sequence. */
using BranchTable = std::vector<BranchOutcome>;

/** See file comment. */
class BranchUnit
{
  public:
    BranchUnit(std::uint32_t btbEntries, std::uint32_t btbWays,
               std::uint32_t rasDepth);

    /** Predict and train on every instruction of @p bundle. */
    BranchOutcome predict(const Bundle &bundle);

    /** Checkpoint TAGE, BTB and RAS (checkpoint/resume). */
    void save(Serializer &s) const;
    void load(Deserializer &d);

  private:
    Tage tage_;
    Btb btb_;
    ReturnAddressStack ras_;
};

} // namespace acic

#endif // ACIC_FRONTEND_BRANCH_UNIT_HH
