/**
 * @file
 * The IAR (Init-Append-Replace) scheduling algorithm (Sec. 5.1,
 * Fig. 3) — the paper's polynomial-time approximation of optimal
 * compilation schedules.
 *
 * Step 1 (init): schedule the low-level compilation of every called
 *   function in first-appearance order; this minimizes bubbles.
 * Step 2 (append & replace): classify each function by Formulas 1
 *   and 2 into O(ther) — the high level is not worth it; A(ppend) —
 *   recompile at the high level after the initial stage (sorted by
 *   ascending high-level compile cost); or R(eplace) — compile at the
 *   high level right away.
 * Step 3 (fill slack through replacement): upgrade low-level compiles
 *   to high level where the schedule has slack (compile finishes well
 *   before the function's first call), as long as no bubble is added.
 * Step 4 (append more to fill ending gap): while the compile thread
 *   would otherwise idle before the program ends, append high-level
 *   compiles of still-unoptimized functions, most-remaining-calls
 *   first.
 *
 * Every step times the schedule with the simulator's bounded walk
 * (sim/makespan.hh): calls are walked only until the compile end,
 * and step 3 adds a light walk to the last first call.
 *
 * Complexity: O(N + M log M) for N calls and M functions.
 */

#ifndef JITSCHED_CORE_IAR_HH
#define JITSCHED_CORE_IAR_HH

#include <cstddef>
#include <vector>

#include "core/candidate_levels.hh"
#include "core/schedule.hh"
#include "sim/makespan.hh"
#include "trace/workload.hh"

namespace jitsched {

/** Tunables of the IAR algorithm. */
struct IarConfig
{
    /**
     * The K constant of Formula 2.  The paper reports results are
     * stable for K in [3, 10] and uses 5.
     */
    double k = 5.0;

    /** Enable step 3 (slack filling); on by default. */
    bool fillSlack = true;

    /** Enable step 4 (ending-gap filling); on by default. */
    bool fillEndingGap = true;

    /**
     * Maximum refinement rounds for step 3.  Each round re-times the
     * schedule once; the paper notes steps 3-4 add only marginal
     * gains, so a small constant suffices.
     */
    std::size_t maxSlackRounds = 3;
};

/** Schedule plus diagnostics about the algorithm's decisions. */
struct IarResult
{
    Schedule schedule;

    std::size_t numOther = 0;   ///< functions classified O
    std::size_t numAppend = 0;  ///< functions classified A
    std::size_t numReplace = 0; ///< functions classified R
    std::size_t slackUpgrades = 0; ///< step-3 replacements applied
    std::size_t gapAppends = 0;    ///< step-4 compiles appended

    /**
     * The step-2 refinement simulated worse than the plain init
     * schedule and was discarded.  Formulas 1 and 2 reason per
     * function; an up-front high-level compile can delay *another*
     * function's first call by more than it saves, so the final
     * schedule is guarded by one simulation against the baseline —
     * which is what makes "IAR never loses to base-only" a real
     * invariant rather than a tendency.
     */
    bool refinementDiscarded = false;

    /**
     * simulate(w, schedule) under default SimOptions (one compile
     * core, no jitter): IAR prices the schedule it returns, so
     * callers with those options need not simulate it again.
     */
    SimResult sim;
};

/**
 * Run the IAR algorithm.
 *
 * @param w the OCSP instance
 * @param cands per-function candidate (low, high) levels, e.g. from
 *              chooseCandidateLevels(); the algorithm itself uses the
 *              *true* profile times at those levels, mirroring the
 *              paper's use of collected times
 * @param cfg tunables
 */
IarResult iarSchedule(const Workload &w,
                      const std::vector<CandidatePair> &cands,
                      const IarConfig &cfg = {});

/** Convenience: IAR with oracle candidate levels. */
IarResult iarScheduleOracle(const Workload &w,
                            const IarConfig &cfg = {});

/**
 * A feasible schedule plus its simulated make-span, used as an
 * incumbent upper bound by the seeded A* search (core/astar_par.cc).
 */
struct IarBound
{
    /** The IAR schedule — valid for the workload, full coverage. */
    Schedule schedule;

    /** simulate(w, schedule).makespan — an upper bound on optimal. */
    Tick makespan = 0;
};

/**
 * Run IAR under oracle candidate levels and price the result: a
 * polynomial-time upper bound on the optimal make-span.  Any search
 * node whose f-value implies a completion at or above this bound can
 * be pruned without affecting the optimum, because the returned
 * schedule already achieves it.
 */
IarBound iarUpperBound(const Workload &w, const IarConfig &cfg = {});

} // namespace jitsched

#endif // JITSCHED_CORE_IAR_HH
