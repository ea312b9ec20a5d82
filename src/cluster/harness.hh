/**
 * @file
 * ClusterHarness: an N-backend scheduling cluster in one process.
 *
 * Each backend is a full ServiceEngine + ServiceServer on an
 * ephemeral loopback port; one Router fronts them.  Tests and
 * bench_cluster use the harness to drive real sockets end to end —
 * and to bounce backends mid-run: killBackend() stops a backend's
 * server (connections die, the port goes dark), restartBackend()
 * brings it back on the same port, where the router's prober finds
 * and re-admits it.
 */

#ifndef JITSCHED_CLUSTER_HARNESS_HH
#define JITSCHED_CLUSTER_HARNESS_HH

#include <memory>
#include <string>
#include <vector>

#include "cluster/router.hh"
#include "service/engine.hh"
#include "service/server.hh"

namespace jitsched {
namespace cluster {

/** Knobs of the in-process cluster. */
struct ClusterHarnessConfig
{
    /** Number of jitschedd backends. */
    std::size_t backends = 2;

    /**
     * Router knobs.  bindAddress/port are honored; the backend list
     * is filled in by the harness.
     */
    RouterConfig router;

    /**
     * Per-backend server knobs.  port must stay 0 (every backend
     * gets its own ephemeral port).
     */
    ServerConfig backend;
};

class ClusterHarness
{
  public:
    explicit ClusterHarness(ClusterHarnessConfig cfg = {});

    /** Stops everything. */
    ~ClusterHarness();

    ClusterHarness(const ClusterHarness &) = delete;
    ClusterHarness &operator=(const ClusterHarness &) = delete;

    /**
     * Start every backend, then the router in front of them.
     * @return true on success; false with *error set otherwise
     */
    bool start(std::string *error = nullptr);

    /** Stop the router, then the backends; idempotent. */
    void stop();

    std::size_t backendCount() const { return nodes_.size(); }

    /** The router (valid after start()). */
    Router &router() { return *router_; }
    std::uint16_t routerPort() const { return router_->port(); }

    ServiceServer &backendServer(std::size_t i)
    {
        return nodes_[i]->server;
    }

    std::uint16_t backendPort(std::size_t i) const
    {
        return nodes_[i]->server.port();
    }

    /**
     * Stop backend @p i: its connections die and its port stops
     * answering, exactly like a crashed daemon (minus RSTs for
     * SYNs — the port refuses instead, which the router treats the
     * same way).
     */
    void killBackend(std::size_t i);

    /** Bring a killed backend back on the port it had before. */
    bool restartBackend(std::size_t i, std::string *error = nullptr);

  private:
    struct Node
    {
        ServiceEngine engine;
        ServiceServer server;

        explicit Node(const ServerConfig &cfg)
            : engine(), server(engine, cfg)
        {
        }
    };

    ClusterHarnessConfig cfg_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::unique_ptr<Router> router_;
    bool started_ = false;
};

} // namespace cluster
} // namespace jitsched

#endif // JITSCHED_CLUSTER_HARNESS_HH
