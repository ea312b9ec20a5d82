/**
 * @file
 * Fault injection for the cluster layer: a live in-process cluster
 * (real backends + one tarpit + a Router, all on loopback TCP)
 * attacked with backend kills, hung backends, and byte-mangled
 * frames.
 *
 * The contract under attack is the router's: every terminated frame
 * a client sends gets exactly one well-formed response — for valid
 * requests, byte-identical (stats line aside) to a direct library
 * call — no matter which backends are dead, hung, or flapping.  The
 * tarpit backend (accepts connections, never answers) is a
 * permanent member of the ring, so the per-try deadline and
 * failover path run on real sockets in almost every case; killed
 * backends must be ejected and, after restart, re-admitted by the
 * prober within a bounded wait.
 *
 * The `--break-oracle cluster` canary flips one byte of the direct
 * answer every routed response is compared against; a healthy
 * harness must flag the first valid round trip (test-the-tester,
 * like the other canaries).
 */

#ifndef JITSCHED_QA_CLUSTER_FUZZ_HH
#define JITSCHED_QA_CLUSTER_FUZZ_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qa/fuzz_workload.hh"
#include "qa/oracles.hh"
#include "support/rng.hh"

namespace jitsched {
namespace qa {

/** Aggregate counters from a cluster fuzz run. */
struct ClusterFuzzStats
{
    std::uint64_t cases = 0;
    std::uint64_t served = 0;      ///< valid frames answered correctly
    std::uint64_t kills = 0;       ///< backend kills injected
    std::uint64_t readmissions = 0; ///< kill -> restart -> routable
    std::uint64_t mangled = 0;     ///< byte-mangled frames sent
};

/**
 * The cluster fault injector.  Construction starts the in-process
 * cluster; each runCase() drives one adversarial scenario against
 * the router's port.
 */
class ClusterFuzzer
{
  public:
    ClusterFuzzer();
    ~ClusterFuzzer();

    ClusterFuzzer(const ClusterFuzzer &) = delete;
    ClusterFuzzer &operator=(const ClusterFuzzer &) = delete;

    /** False when the cluster failed to start (error() says why). */
    bool ok() const;
    const std::string &error() const;

    /**
     * Run one injection scenario, appending violations.  Scenario
     * choice and all payloads come from @p rng, so a failing case
     * replays from its (seed, case) pair alone.  With
     * @p break_oracle the expected answer is perturbed by one byte —
     * the run must then FAIL (harness self-check).
     */
    void runCase(Rng &rng, const FuzzDomain &domain,
                 std::vector<Violation> &out, ClusterFuzzStats *stats,
                 bool break_oracle);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace qa
} // namespace jitsched

#endif // JITSCHED_QA_CLUSTER_FUZZ_HH
