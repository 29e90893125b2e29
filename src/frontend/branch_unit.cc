#include "frontend/branch_unit.hh"

namespace acic {

namespace {

void
noteBtbMiss(BranchOutcome &out)
{
    ++out.btbMisses;
    if (out.penalty == BranchOutcome::kNone)
        out.penalty = BranchOutcome::kBtbMiss;
    else if (out.penalty == BranchOutcome::kMispredict)
        out.penalty = BranchOutcome::kMispredictThenBtbMiss;
}

} // namespace

BranchUnit::BranchUnit(std::uint32_t btbEntries, std::uint32_t btbWays,
                       std::uint32_t rasDepth)
    : btb_(btbEntries, btbWays), ras_(rasDepth)
{
}

BranchOutcome
BranchUnit::predict(const Bundle &bundle)
{
    BranchOutcome out;
    for (unsigned i = 0; i < bundle.count; ++i) {
        const TraceInst &inst = bundle.insts[i];
        switch (inst.kind) {
          case BranchKind::None:
            break;
          case BranchKind::Cond: {
            const bool pred = tage_.predict(inst.pc);
            tage_.update(inst.pc, inst.taken);
            if (pred != inst.taken) {
                ++out.mispredicts;
                out.penalty = BranchOutcome::kMispredict;
            } else if (inst.taken) {
                const auto target = btb_.lookup(inst.pc);
                if (!target || *target != inst.nextPc)
                    noteBtbMiss(out);
            }
            if (inst.taken)
                btb_.update(inst.pc, inst.nextPc);
            break;
          }
          case BranchKind::Direct:
          case BranchKind::Call: {
            const auto target = btb_.lookup(inst.pc);
            if (!target || *target != inst.nextPc)
                noteBtbMiss(out);
            btb_.update(inst.pc, inst.nextPc);
            if (inst.kind == BranchKind::Call)
                ras_.push(inst.pc + TraceInst::kInstBytes);
            break;
          }
          case BranchKind::Return:
            if (ras_.pop() != inst.nextPc) {
                ++out.rasMisses;
                out.penalty = BranchOutcome::kMispredict;
            }
            break;
        }
    }
    return out;
}

void
BranchUnit::save(Serializer &s) const
{
    tage_.save(s);
    btb_.save(s);
    ras_.save(s);
}

void
BranchUnit::load(Deserializer &d)
{
    tage_.load(d);
    btb_.load(d);
    ras_.load(d);
}

} // namespace acic
