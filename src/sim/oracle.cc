#include "sim/oracle.hh"

#include <algorithm>
#include <unordered_map>

#include "frontend/bundle.hh"

namespace acic {

DemandOracle
DemandOracle::build(TraceSource &trace, unsigned fetch_width)
{
    DemandOracle oracle;
    trace.reset();
    BundleWalker walker(trace, fetch_width);
    Bundle bundle;
    while (walker.next(bundle))
        oracle.seq_.push_back(bundle.blk);
    trace.reset();

    const std::uint64_t n = oracle.seq_.size();
    oracle.nextUse_.assign(n, kNeverAgain);
    // Backward next-use computation. Each distinct block also gets a
    // dense id, so the CSR passes below index arrays instead of
    // searching the sorted keys once per access.
    std::unordered_map<BlockAddr, std::pair<std::uint64_t, std::uint64_t>>
        upcoming; // block -> (next access, id)
    std::vector<std::uint64_t> ids(n);
    for (std::uint64_t i = n; i-- > 0;) {
        const auto [it, fresh] =
            upcoming.try_emplace(oracle.seq_[i], i, upcoming.size());
        if (!fresh) {
            oracle.nextUse_[i] = it->second.first;
            it->second.first = i;
        }
        ids[i] = it->second.second;
    }

    // CSR occurrence lists: counting sort of the access indices by
    // block, with sorted keys (see oracle.hh).
    oracle.keys_.reserve(upcoming.size());
    for (const auto &[blk, use] : upcoming)
        oracle.keys_.push_back(blk);
    std::sort(oracle.keys_.begin(), oracle.keys_.end());
    const std::uint64_t k = oracle.keys_.size();
    std::vector<std::uint64_t> row_of(k);
    for (std::uint64_t r = 0; r < k; ++r)
        row_of[upcoming.find(oracle.keys_[r])->second.second] = r;
    oracle.rowStart_.assign(k + 1, 0);
    for (std::uint64_t i = 0; i < n; ++i)
        ++oracle.rowStart_[row_of[ids[i]] + 1];
    for (std::uint64_t r = 0; r < k; ++r)
        oracle.rowStart_[r + 1] += oracle.rowStart_[r];
    oracle.positions_.resize(n);
    std::vector<std::uint64_t> cursor(oracle.rowStart_.begin(),
                                      oracle.rowStart_.end() - 1);
    for (std::uint64_t i = 0; i < n; ++i)
        oracle.positions_[cursor[row_of[ids[i]]]++] = i;
    return oracle;
}

std::uint64_t
DemandOracle::nextUseAfter(BlockAddr blk, std::uint64_t idx) const
{
    const auto key =
        std::lower_bound(keys_.begin(), keys_.end(), blk);
    if (key == keys_.end() || *key != blk)
        return kNeverAgain;
    const std::uint64_t row = key - keys_.begin();
    const auto begin = positions_.begin() + rowStart_[row];
    const auto end = positions_.begin() + rowStart_[row + 1];
    const auto pos = std::upper_bound(begin, end, idx);
    return pos == end ? kNeverAgain : *pos;
}

} // namespace acic
