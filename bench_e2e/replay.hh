/**
 * @file
 * In-process per-layer replay: the workload's distinct frames pushed
 * through the same public functions the daemon calls, each call timed
 * and wrapped in a benchmark-side span (exported as a Chrome trace
 * through obs::TraceEventSink).
 *
 *   service.protocol   tryReadRequest, responseText
 *   trace              tryReadWorkload on the payload alone
 *   service.result_cache  ResultCache::begin on a hit
 *   core               modelCandidateLevels, lowerBoundCandidates,
 *                      iarSchedule (also on a fixed lusearch trace),
 *                      aStarOptimal, aStarParallel (one worker)
 *   sim                simulate of the IAR schedule
 *   vm                 buildEstimates + runAdaptive (the jikes policy)
 */

#ifndef JITSCHED_BENCH_E2E_REPLAY_HH
#define JITSCHED_BENCH_E2E_REPLAY_HH

#include <map>
#include <string>
#include <vector>

#include "verify.hh"
#include "workloads.hh"

namespace jitsched {
namespace e2e {

struct Replay
{
    /** Per-layer metrics, named as in BENCHMARK.json. */
    std::map<std::string, double> metrics;

    /** Per frame: in-process parse / serialize ms; -1 if not replayed. */
    std::vector<double> parseMs;
    std::vector<double> serializeMs;
};

/**
 * Replay @p plan's replay frames (answers from @p v) and write the
 * benchmark-side spans to @p trace_path.
 */
Replay replay(const Plan &plan, const Verification &v,
              const std::string &trace_path);

} // namespace e2e
} // namespace jitsched

#endif // JITSCHED_BENCH_E2E_REPLAY_HH
