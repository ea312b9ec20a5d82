/**
 * @file
 * Make-span lower bound (Sec. 5.2).
 *
 * The make-span cannot be smaller than the sum, over the call
 * sequence, of the fastest available execution time of each call: the
 * execution thread must at least run every call, even if every
 * compilation were free and instantaneous.  Together with an
 * attainable schedule (IAR), the bound brackets the unknown minimum
 * make-span.  Both bounds sum per function, n(f) times its fastest
 * time, so they cost O(functions), not O(calls).
 */

#ifndef JITSCHED_CORE_LOWER_BOUND_HH
#define JITSCHED_CORE_LOWER_BOUND_HH

#include "core/candidate_levels.hh"
#include "support/types.hh"
#include "trace/workload.hh"

namespace jitsched {

/**
 * Lower bound when the scheduler may use any level of any function:
 * every call at its function's highest level (true times).
 */
Tick lowerBoundAllLevels(const Workload &w);

/**
 * Lower bound when the scheduler is restricted to the given candidate
 * levels per function: every call at the faster candidate (the
 * cost-effective level; true times).  This is the normalization
 * baseline of Figs. 5, 6 and 8 — it moves when the cost-benefit model
 * or the level set changes, exactly as the paper describes.
 */
Tick lowerBoundCandidates(const Workload &w,
                          const std::vector<CandidatePair> &cands);

} // namespace jitsched

#endif // JITSCHED_CORE_LOWER_BOUND_HH
