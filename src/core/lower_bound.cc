#include "core/lower_bound.hh"

#include <algorithm>

#include "support/logging.hh"

namespace jitsched {

Tick
lowerBoundAllLevels(const Workload &w)
{
    Tick total = 0;
    for (std::size_t i = 0; i < w.numFunctions(); ++i) {
        const auto f = static_cast<FuncId>(i);
        const std::uint64_t n = w.callCount(f);
        if (n == 0)
            continue;
        const auto &prof = w.function(f);
        total += static_cast<Tick>(n) * prof.execTime(prof.highestLevel());
    }
    return total;
}

Tick
lowerBoundCandidates(const Workload &w,
                     const std::vector<CandidatePair> &cands)
{
    if (cands.size() != w.numFunctions())
        JITSCHED_PANIC("lowerBoundCandidates: candidate table has ",
                       cands.size(), " functions, workload has ",
                       w.numFunctions());
    Tick total = 0;
    for (std::size_t i = 0; i < w.numFunctions(); ++i) {
        const auto f = static_cast<FuncId>(i);
        const std::uint64_t n = w.callCount(f);
        if (n == 0)
            continue;
        const auto &prof = w.function(f);
        const Tick e_low = prof.execTime(cands[f].low);
        const Tick e_high = prof.execTime(cands[f].high);
        total += static_cast<Tick>(n) * std::min(e_low, e_high);
    }
    return total;
}

} // namespace jitsched
