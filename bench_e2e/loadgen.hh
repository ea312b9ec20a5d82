/**
 * @file
 * The load generator: one thread per connection (at most four), each
 * sending pre-serialized frames with ServiceClient::callRaw() and
 * keeping the raw response bytes for verification after the window.
 *
 * Closed loop: a connection sends its next frame when the previous
 * answer arrives, until the window closes.  Open loop: a connection
 * sends each arrival at its due time (or as soon as the previous call
 * returns, if that is later), and latency runs from the due time, so a
 * stall is charged to every request it delays.
 */

#ifndef JITSCHED_BENCH_E2E_LOADGEN_HH
#define JITSCHED_BENCH_E2E_LOADGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hh"

namespace jitsched {
namespace e2e {

/** One request as the client saw it.  Times are ns from pass start. */
struct Sample
{
    std::size_t frame = 0;
    std::int64_t dueNs = 0;  ///< open loop: scheduled; else = sentNs
    std::int64_t sentNs = 0;
    std::int64_t doneNs = 0;

    /**
     * How late the generator sent it: after the due time (open loop),
     * or after the previous answer on its connection (closed loop).
     */
    std::int64_t lateNs = 0;
    std::uint64_t traceId = 0; ///< 0 unless the pass was traced
    bool transportOk = false;
    std::string response; ///< raw response frame (empty on failure)

    double latencyMs() const { return (doneNs - dueNs) / 1e6; }
    double serviceMs() const { return (doneNs - sentNs) / 1e6; }
};

/** Everything one pass sent and got back. */
struct Pass
{
    std::vector<Sample> samples; ///< every connection's, merged
    double elapsedSec = 0.0;     ///< pass start to last answer
};

/** How a pass sends its frames. */
struct PassConfig
{
    std::uint16_t port = 0;

    /** Tag every request with a fresh `option trace-id` line. */
    bool traced = false;

    /** First trace id of the pass (traced only); ids count up. */
    std::uint64_t firstTraceId = 0;
};

/** The timed window: the plan's closed or open loop. */
Pass runWindow(const Plan &plan, double seconds, const PassConfig &cfg);

/**
 * Send each of @p frames once, dealt round-robin over the plan's
 * connections (warm-up, and completing required coverage).
 */
Pass runOnce(const Plan &plan, const std::vector<std::size_t> &frames,
             const PassConfig &cfg);

} // namespace e2e
} // namespace jitsched

#endif // JITSCHED_BENCH_E2E_LOADGEN_HH
