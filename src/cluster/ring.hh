/**
 * @file
 * Consistent-hash ring for fingerprint-affine request routing.
 *
 * Each backend owns many pseudo-random points on a 64-bit ring
 * (virtual nodes); a request fingerprint is owned by the backend
 * whose point follows it clockwise.  Two properties make this the
 * right structure for a cache-affine scheduling cluster (see
 * DESIGN.md Sec. 5e and Hassidim et al., arXiv:1210.4053):
 *
 *  - stability: removing a backend remaps only the keys it owned —
 *    every other backend's result-cache working set stays put;
 *  - spill order: walking the ring past the owner yields a
 *    deterministic per-key failover sequence, so when the owner is
 *    down or saturated the *same* second-choice backend sees a given
 *    workload every time, and its cache warms for exactly that
 *    spilled slice.
 *
 * The ring is a plain value type: build it once from the backend
 * list, copy it freely.  It is deliberately time-free and
 * I/O-free — health is the BackendPool's job; the ring only answers
 * "who would own this key, and who is next in line".
 */

#ifndef JITSCHED_CLUSTER_RING_HH
#define JITSCHED_CLUSTER_RING_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jitsched {
namespace cluster {

class HashRing
{
  public:
    /**
     * @param backends number of backends, ids 0..backends-1
     * @param vnodes ring points per backend; more points smooth the
     *        key distribution at O(backends * vnodes * log) build
     *        cost.  64 keeps the max/min owned-share ratio under
     *        ~1.5 for small clusters.
     */
    explicit HashRing(std::size_t backends, std::size_t vnodes = 64);

    std::size_t backends() const { return backends_; }

    /** The backend owning @p fingerprint. */
    std::size_t ownerOf(std::uint64_t fingerprint) const;

    /**
     * Owner followed by the spill order: every backend exactly once,
     * in ring order from the fingerprint's successor point.  The
     * router walks this chain when the owner is ejected or
     * saturated.
     */
    std::vector<std::size_t>
    ownerChain(std::uint64_t fingerprint) const;

  private:
    struct Point
    {
        std::uint64_t position;
        std::size_t backend;

        bool
        operator<(const Point &other) const
        {
            // Tie-break on backend id so the ring order is total and
            // identical on every router instance.
            return position != other.position
                       ? position < other.position
                       : backend < other.backend;
        }
    };

    std::size_t backends_;
    std::vector<Point> points_; ///< sorted by position
};

} // namespace cluster
} // namespace jitsched

#endif // JITSCHED_CLUSTER_RING_HH
