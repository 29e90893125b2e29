#include "sim/simulator.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace acic {

void
SimResult::save(Serializer &s) const
{
    s.str(workload);
    s.str(scheme);
    s.u64(instructions);
    s.u64(cycles);
    s.u64(demandAccesses);
    s.u64(l1iMisses);
    s.u64(branchMispredicts);
    s.u64(btbMisses);
    s.u64(prefetchesIssued);
    s.u64(latePrefetches);
    s.u64(l2Accesses);
    s.u64(l3Accesses);
    s.u64(dramAccesses);
    orgStats.save(s);
}

void
SimResult::load(Deserializer &d)
{
    workload = d.str();
    scheme = d.str();
    instructions = d.u64();
    cycles = d.u64();
    demandAccesses = d.u64();
    l1iMisses = d.u64();
    branchMispredicts = d.u64();
    btbMisses = d.u64();
    prefetchesIssued = d.u64();
    latePrefetches = d.u64();
    l2Accesses = d.u64();
    l3Accesses = d.u64();
    dramAccesses = d.u64();
    orgStats.load(d);
}

SimResult
mergeSimResults(const std::vector<SimResult> &parts)
{
    ACIC_ASSERT(!parts.empty(), "mergeSimResults: no partial results");
    SimResult merged;
    merged.workload = parts.front().workload;
    merged.scheme = parts.front().scheme;
    for (const SimResult &part : parts) {
        merged.instructions += part.instructions;
        merged.cycles += part.cycles;
        merged.demandAccesses += part.demandAccesses;
        merged.l1iMisses += part.l1iMisses;
        merged.branchMispredicts += part.branchMispredicts;
        merged.btbMisses += part.btbMisses;
        merged.prefetchesIssued += part.prefetchesIssued;
        merged.latePrefetches += part.latePrefetches;
        merged.l2Accesses += part.l2Accesses;
        merged.l3Accesses += part.l3Accesses;
        merged.dramAccesses += part.dramAccesses;
        for (const auto &[name, value] : part.orgStats.raw())
            merged.orgStats.bump(name, value);
    }
    return merged;
}

} // namespace acic
