/**
 * @file
 * The four end-to-end workloads of bench_e2e: seeded request frames,
 * the order a closed loop cycles them in or the arrival schedule of an
 * open loop, and the daemon flags each one runs against.
 *
 * Every frame is serialized here, before any timing starts; the
 * daemon sees only these bytes.  The instances whose quality is
 * measured come from one fixed pool; the seed picks the send order and,
 * on the open loops, the arrival times, the Zipf ranking and the fresh
 * frames.
 *
 *   fig5-dacapo  the paper's Fig. 5 pairing (iar vs jikes, default
 *                model) on the nine DaCapo-shaped programs at 1/256
 *                scale, 16 call-sequence draws each.  Large frames and
 *                real solves: protocol parsing, IAR, vm replay and the
 *                simulator do the work; the result cache is off.
 *   astar-exact  small OCSP instances solved exactly, each sent as
 *                astar and as astar-par with two workers.  Exact
 *                search dominates; frames are tiny.
 *   hot-cache    an open loop of Poisson arrivals over 256 hot frames
 *                (Zipf 0.9) plus 5% fresh frames, against a daemon
 *                with a 64 MiB result cache filled in warm-up.  Hits
 *                skip the solver: protocol, cache probe and sockets
 *                dominate.
 *   hot-nocache  the same stream against the default daemon (cache
 *                off): the control that a result-cache change must
 *                leave unchanged.
 */

#ifndef JITSCHED_BENCH_E2E_WORKLOADS_HH
#define JITSCHED_BENCH_E2E_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/workload.hh"

namespace jitsched {
namespace e2e {

/** One distinct request frame. */
struct Frame
{
    std::size_t trace = 0; ///< index into Plan::traces
    std::string policy;
    std::uint64_t id = 0;  ///< request id on the wire (echoed back)
    std::string text;      ///< the serialized request frame
};

/** One open-loop arrival. */
struct Arrival
{
    std::int64_t dueNs = 0; ///< offset from the start of the window
    std::size_t frame = 0;
};

/** Everything one workload sends, and how. */
struct Plan
{
    std::string workload;

    /** Flags for jitschedd beyond --port 0. */
    std::vector<std::string> daemonArgs;

    /** Distinct OCSP instances; frames point into this. */
    std::vector<Workload> traces;

    std::vector<Frame> frames;

    /** Client connections, one load-generating thread each (<= 4). */
    std::size_t connections = 1;

    /** Closed loop: per connection, the frames it cycles through. */
    std::vector<std::vector<std::size_t>> cycle;

    /** Open loop: per connection, arrivals in due order. */
    std::vector<std::vector<Arrival>> arrivals;

    bool openLoop() const { return !arrivals.empty(); }

    /** Frames sent once, split over the connections, before timing. */
    std::vector<std::size_t> warmup;

    /**
     * Frames that must have at least one verified response.  Any the
     * warm-up and the timed window did not cover are sent once after
     * the window, untimed.
     */
    std::vector<std::size_t> required;

    /** Frames the in-process per-layer replay walks. */
    std::vector<std::size_t> replay;

    /**
     * Traces the quality metrics average over: qualityPolicy's make-span
     * against the lower bound and against the deployed default scheme
     * (jikes), the paper's Fig. 5 quantities.  They come from the fixed
     * instance pool, never from the seed, so the metrics repeat exactly
     * across seeds and runs.
     */
    std::vector<std::size_t> qualityTraces;

    /** The scheduler under test: iar, or astar on astar-exact. */
    std::string qualityPolicy = "iar";
};

/** The workload names, in the order `--workload all` runs them. */
const std::vector<std::string> &workloadNames();

/**
 * Build a workload's plan.
 *
 * @param seconds the timed window; sizes the open-loop schedule
 * @param smoke shrink every input so all four workloads finish in a
 *        few seconds (names and plumbing, not performance)
 * @return false (with *error set) for an unknown workload name
 */
bool makePlan(const std::string &workload, std::uint64_t seed,
              double seconds, bool smoke, Plan *plan,
              std::string *error);

} // namespace e2e
} // namespace jitsched

#endif // JITSCHED_BENCH_E2E_WORKLOADS_HH
