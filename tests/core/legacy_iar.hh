/**
 * @file
 * A frozen copy of the IAR algorithm as it stood when every step
 * re-timed the schedule with a per-call observer over the full call
 * sequence — kept only as the reference the bounded-walk IAR
 * (core/iar.cc) is tested against (test_iar_legacy_diff.cc).  Do not
 * change its behaviour: its schedules and counters are the contract.
 */

#ifndef JITSCHED_TESTS_CORE_LEGACY_IAR_HH
#define JITSCHED_TESTS_CORE_LEGACY_IAR_HH

#include <cstddef>
#include <vector>

#include "core/candidate_levels.hh"
#include "core/iar.hh"
#include "core/schedule.hh"
#include "trace/workload.hh"

namespace jitsched {
namespace legacy {

/** The schedule plus every counter core/iar.hh's IarResult reports. */
struct IarOutcome
{
    Schedule schedule;
    std::size_t numOther = 0;
    std::size_t numAppend = 0;
    std::size_t numReplace = 0;
    std::size_t slackUpgrades = 0;
    std::size_t gapAppends = 0;
    bool refinementDiscarded = false;
};

IarOutcome iarSchedule(const Workload &w,
                       const std::vector<CandidatePair> &cands,
                       const IarConfig &cfg = {});

} // namespace legacy
} // namespace jitsched

#endif // JITSCHED_TESTS_CORE_LEGACY_IAR_HH
