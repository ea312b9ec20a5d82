/**
 * @file
 * Machine-checkable invariants over the scheduler stack — the one
 * place that defines what "correct" means across solvers, the
 * make-span simulator, and their aggressive shortcuts.
 *
 * The paper's comparative study only makes sense if all seven
 * schedulers are measured against a single simulation semantics
 * (Sec. 3) and if the exact solvers really are exact (Sec. 5.3).
 * Each oracle below encodes one such cross-cutting fact:
 *
 *   schedule validity   every schedule a solver emits is legal and,
 *                       when replayed, every call runs the latest
 *                       compilation of its function that completed
 *                       at or before the call's start (checked by an
 *                       independent re-derivation, not by trusting
 *                       the simulator's own bookkeeping)
 *   decomposition       execEnd == totalExec + totalBubble, makespan
 *                       == execEnd, per-level call counts sum to N
 *   lower bound         lowerBoundAllLevels <= every make-span
 *                       (Sec. 5.2: the execution thread must at
 *                       least run every call at its fastest level)
 *   exactness           bruteForce == A* == A* without duplicate
 *                       pruning == A* at 1, 2 and 8 workers on
 *                       small instances — guards the prefix-resume
 *                       walk, duplicate-state pruning and the
 *                       hash-distributed search in
 *                       core/astar_par.cc
 *   approximation order optimal <= IAR <= base-level, and
 *                       optionally IAR <= opt-only on the shapes
 *                       where the paper's Formula-2 classification
 *                       is robust
 *   metamorphic         appending calls never decreases a fixed
 *                       schedule's make-span or the lower bound;
 *                       scaling all times by k scales both by
 *                       exactly k (the simulator is integer-exact);
 *                       more compile cores never slow a static
 *                       schedule (Sec. 6.2.3)
 *
 * Tests (tests/exec/test_differential.cc, tests/core/test_astar.cc,
 * tests/integration/test_properties.cc) and the fuzzer
 * (jitsched-fuzz) share these definitions, so there is exactly one
 * notion of a valid schedule in the tree.
 */

#ifndef JITSCHED_QA_ORACLES_HH
#define JITSCHED_QA_ORACLES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/schedule.hh"
#include "support/types.hh"
#include "trace/workload.hh"

namespace jitsched {
namespace qa {

/** One invariant violation: which oracle fired, and the evidence. */
struct Violation
{
    std::string oracle; ///< stable oracle name, e.g. "lower-bound"
    std::string detail; ///< human-readable evidence
};

/** Which oracles run and their resource guards. */
struct OracleConfig
{
    /** Run the exact solvers (brute force + two A* variants). */
    bool runExact = true;

    /**
     * Skip the exact oracles above this many *called* functions —
     * the search space is exponential (Sec. 6.2.5) and the paper's
     * own exact runs died past 6 unique methods.
     */
    std::size_t maxExactFunctions = 6;

    /** Node budget for the exhaustive search; incomplete => skip. */
    std::uint64_t bruteMaxNodes = 2'000'000;

    /** Expansion cap for every A* run; cap hit => skip. */
    std::uint64_t astarMaxExpansions = 200'000;

    /** A* node-store budget in bytes; OOM => skip. */
    std::uint64_t astarMemoryBudget = 256ull << 20;

    /**
     * Also run the parallel search (core/astar_par.cc) at 1, 2 and
     * 8 workers and require its cost to match the one-worker A* and
     * brute force bit for bit — the determinism contract of the
     * hash-distributed decomposition.  Runs only when the exact
     * oracles run (same function-count and budget guards).
     */
    bool runParallel = true;

    /**
     * Also require IAR <= opt-only.  The paper's advantage over the
     * optimizing-only scheme is an *empirical* claim for its
     * Jikes-like two-candidate setting, not a theorem; enable only
     * on shapes where it is robust (2-level, non-interpreter).
     */
    bool checkIarVsOptOnly = false;

    /** Run the metamorphic relations (append / scale / cores). */
    bool checkMetamorphic = true;

    /**
     * Deliberately invert the lower-bound comparison (assert
     * lb >= make-span).  A test-the-tester hook: a healthy stack
     * must make this fire almost immediately, proving the fuzzer
     * would notice a genuinely broken oracle.  Never set outside
     * harness self-checks.
     */
    bool invertLowerBound = false;

    /**
     * Deliberately shift the parallel search's reported make-span by
     * one tick before the differential comparison.  The astar-par
     * counterpart of invertLowerBound: a healthy stack must flag the
     * perturbed cost against both the one-worker A* and the
     * simulator, proving the parallel differential has teeth.  Never
     * set outside harness self-checks.
     */
    bool perturbAstarPar = false;
};

/** Counters describing what one oracle pass actually exercised. */
struct OracleStats
{
    std::uint64_t exactRuns = 0;    ///< instances solved exactly
    std::uint64_t exactSkipped = 0; ///< budget-skipped exact runs
};

/**
 * Independent re-derivation of the Sec. 3 semantics for one compile
 * core: compile completions by prefix sum over the event order, each
 * call starting at max(previous end, first completion of its
 * function) and running the latest completion at or before its
 * start.  Deliberately shares no code with sim/makespan.cc.
 */
Tick referenceMakespan(const Workload &w, const Schedule &s);

/**
 * Schedule validity + simulator agreement for one schedule: the
 * schedule validates, simulate() matches referenceMakespan(), the
 * time decomposition holds, every call used the right compiled
 * version, and the observer-free simulate() (which folds the tail
 * once the compile cores are idle) returns the same SimResult as the
 * observed full walk at 1, 2 and 3 compile cores.  @p who names the
 * producing solver in violation reports.
 */
void checkScheduleSemantics(const Workload &w, const Schedule &s,
                            const std::string &who,
                            std::vector<Violation> &out);

/**
 * The cross-solver quality chain on one instance:
 * lb <= [bruteForce == A* == A*-scratch <=] IAR <= base-level, with
 * every emitted schedule passing checkScheduleSemantics and every
 * solver's self-reported make-span matching the simulator.
 */
void checkQualityChain(const Workload &w, const OracleConfig &cfg,
                       std::vector<Violation> &out,
                       OracleStats *stats = nullptr);

/**
 * Metamorphic relations: append-monotonicity, exact cost scaling,
 * and compile-core monotonicity, all on fixed schedules.
 */
void checkMetamorphicRelations(const Workload &w,
                               const OracleConfig &cfg,
                               std::vector<Violation> &out);

/** Run every oracle that applies to @p w. */
std::vector<Violation> checkAll(const Workload &w,
                                const OracleConfig &cfg = {},
                                OracleStats *stats = nullptr);

/** Render violations one per line for logs and test messages. */
std::string describeViolations(const std::vector<Violation> &violations);

} // namespace qa
} // namespace jitsched

#endif // JITSCHED_QA_ORACLES_HH
