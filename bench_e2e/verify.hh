/**
 * @file
 * Fail-closed verification of every response a run collected, done
 * after the timed window:
 *
 *   per response  transport ok, parses, echoes its request id, status
 *                 ok, and its deterministic block (everything between
 *                 the header and the `stats` line) is byte-identical
 *                 to the first answer to the same frame — so every
 *                 result-cache hit matches its miss.  astar-par
 *                 promises cost, not schedule identity: its repeats
 *                 must match on make-span only.
 *   per frame     the schedule validates; lowerBoundAllLevels <= the
 *                 make-span; static schedules on one compile core
 *                 report exactly qa::referenceMakespan.
 *   per instance  astar <= iar, and astar-par's cost equals astar's.
 *
 * Each violation is printed with its frame (the frame and response are
 * also written under the dump directory) and counted as a failure.
 */

#ifndef JITSCHED_BENCH_E2E_VERIFY_HH
#define JITSCHED_BENCH_E2E_VERIFY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "loadgen.hh"
#include "service/protocol.hh"
#include "workloads.hh"

namespace jitsched {
namespace e2e {

/** What one response turned out to be. */
struct Checked
{
    bool ok = false;    ///< passed every per-response check
    ServiceStats stats; ///< its volatile stats line (when it parsed)
};

struct Verification
{
    std::uint64_t attempted = 0; ///< scheduling requests sent
    std::uint64_t failed = 0;    ///< failed responses + violations
    std::uint64_t verified = 0;  ///< responses that passed every check
    std::uint64_t violations = 0;

    /** Per frame: its first ok response, when one arrived. */
    std::vector<std::optional<ServiceResponse>> reference;

    /** Mean (makespan / lower bound - 1) x 100 of Plan::qualityPolicy. */
    double gapToLbPct = 0.0;

    /** Geomean of jikes / Plan::qualityPolicy make-span per trace. */
    double potentialSpeedup = 0.0;
};

/**
 * Verify @p passes (in send order: every sample of a frame after its
 * first is compared against the first).  @p checked receives one
 * entry per sample, pass by pass.
 */
Verification verify(const Plan &plan,
                    const std::vector<const Pass *> &passes,
                    const std::string &dump_dir,
                    std::vector<std::vector<Checked>> *checked);

} // namespace e2e
} // namespace jitsched

#endif // JITSCHED_BENCH_E2E_VERIFY_HH
