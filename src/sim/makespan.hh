/**
 * @file
 * Make-span evaluation of a static compilation schedule.
 *
 * This is the paper's measurement component (Sec. 6.1): "for a given
 * compilation schedule, computes the make-span of a call sequence
 * based on the compilation and execution times of the involved
 * functions, along with the number of cores used for compilation and
 * execution."
 *
 * Model (Sec. 3):
 *  - Compilation events are processed in schedule order on one or
 *    more compile cores (all ready at time 0).
 *  - A single execution thread runs the call sequence in order.  A
 *    call cannot start until its function has been compiled at least
 *    once; the wait is a "bubble".
 *  - A call starting at time t runs the code of the latest compilation
 *    of its function that completed at or before t.
 *  - The make-span is the time from the first compilation (t = 0) to
 *    the end of the last call.
 *
 * Once the execution clock reaches the compile end, no compilation is
 * pending: every later call starts right after the previous one and
 * runs its function's last compiled version.  So when nothing needs
 * per-call detail (no observer) and every call of a function costs
 * the same (no jitter), the walk stops at the first call whose clock
 * has reached the compile end and folds the rest as
 * sum over f of (calls of f left) * e(f, last level) — O(functions),
 * not O(calls).  Observers and jitter keep the full walk: observers
 * want every call, and jitter is drawn per call index.
 */

#ifndef JITSCHED_SIM_MAKESPAN_HH
#define JITSCHED_SIM_MAKESPAN_HH

#include <cstdint>
#include <vector>

#include "core/schedule.hh"
#include "support/types.hh"
#include "trace/workload.hh"

namespace jitsched {

/** Simulation knobs. */
struct SimOptions
{
    /** Number of compilation cores (Sec. 6.2.3 studies 1..16). */
    std::size_t compileCores = 1;

    /**
     * Per-invocation execution-time variation (Sec. 8 / Assumption
     * 1 discussion): each call's duration is multiplied by a
     * deterministic mean-one log-normal factor of this sigma.  The
     * profile's e(f,j) stays the *average* per-call time — exactly
     * the quantity the paper's analysis uses — while individual
     * calls vary the way real invocations do (parameters, contexts).
     * 0 disables the jitter.
     */
    double execJitterSigma = 0.0;

    /** Seed of the per-call jitter draws. */
    std::uint64_t jitterSeed = 1;
};

/** Everything the simulator measures for one run. */
struct SimResult
{
    /** Start of first compilation to end of last call. */
    Tick makespan = 0;

    /** Completion time of the last call. */
    Tick execEnd = 0;

    /** Completion time of the last compilation event. */
    Tick compileEnd = 0;

    /** Total execution-thread waiting time. */
    Tick totalBubble = 0;

    /** Number of calls that had to wait. */
    std::uint64_t bubbleCount = 0;

    /** Sum of call execution times actually incurred. */
    Tick totalExec = 0;

    /** Sum of compile times across all events. */
    Tick totalCompile = 0;

    /** Calls executed per optimization level. */
    std::vector<std::uint64_t> callsAtLevel;
};

/**
 * Timeline facts the IAR refinement steps (core/iar.cc) read off one
 * simulation.  They are an optional output of the same walk that
 * computes the SimResult, so asking for them never turns off the
 * tail fold.
 */
struct SimFacts
{
    /**
     * Input: also fill firstCallStart.  Starts of functions first
     * called past the fold point come from a light walk from the fold
     * point to the last first call, adding last-version execution
     * times; nothing else needs that walk, so it is opt-in.
     */
    bool wantFirstCallStarts = false;

    /** Completion time of each schedule event, in schedule order. */
    std::vector<Tick> eventCompletion;

    /**
     * Per function: calls that start strictly before the compile end.
     * The function's other calls start at or after it.
     */
    std::vector<std::uint64_t> callsBeforeCompileEnd;

    /**
     * Per function: start time of its first call, maxTick when it is
     * never called.  Empty unless wantFirstCallStarts is set.
     */
    std::vector<Tick> firstCallStart;
};

/**
 * Observer hook for per-call detail, used by the schedule timeline
 * (obs/schedule_timeline.hh), the qa oracles and tests that inspect
 * the timeline.  An observed run always walks every call.
 */
class SimObserver
{
  public:
    virtual ~SimObserver() = default;

    /** A schedule event finished compiling. */
    virtual void
    onCompiled(std::size_t event_index, const CompileEvent &ev,
               Tick completion)
    {
        (void)event_index;
        (void)ev;
        (void)completion;
    }

    /** A call executed. */
    virtual void
    onCall(std::size_t call_index, FuncId f, Tick start, Tick duration,
           Level level_used)
    {
        (void)call_index;
        (void)f;
        (void)start;
        (void)duration;
        (void)level_used;
    }
};

/**
 * Evaluate a schedule.  The schedule must be valid for the workload
 * (panics otherwise — callers are algorithm code, not users).
 */
SimResult simulate(const Workload &w, const Schedule &s,
                   const SimOptions &opts = {});

/** Evaluate a schedule while streaming per-event detail. */
SimResult simulate(const Workload &w, const Schedule &s,
                   const SimOptions &opts, SimObserver &observer);

/** Evaluate a schedule and gather the IAR timeline facts. */
SimResult simulate(const Workload &w, const Schedule &s,
                   const SimOptions &opts, SimFacts &facts);

} // namespace jitsched

#endif // JITSCHED_SIM_MAKESPAN_HH
