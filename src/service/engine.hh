/**
 * @file
 * ServiceEngine: one parsed request in, one response out.
 *
 * The engine is the library-call form of the service — the daemon's
 * admission worker calls it, the CLI can call it in-process, and the
 * loopback tests compare daemon responses byte-for-byte against it.
 * It keeps no memo: every serve() runs the policy, and the daemon's
 * result cache (service/result_cache.hh) answers repeats before they
 * reach the engine.  The one shared resource is the thread pool A*
 * fans its child evaluations out on.
 */

#ifndef JITSCHED_SERVICE_ENGINE_HH
#define JITSCHED_SERVICE_ENGINE_HH

#include "exec/thread_pool.hh"
#include "service/policy.hh"
#include "service/protocol.hh"

namespace jitsched {

class ServiceEngine
{
  public:
    /**
     * @param registry policy table; must outlive the engine
     * @param pool executor for A*'s child fan-out; nullptr uses
     *        ThreadPool::global()
     */
    explicit ServiceEngine(
        const PolicyRegistry &registry = PolicyRegistry::builtin(),
        ThreadPool *pool = nullptr)
        : registry_(registry),
          pool_(pool != nullptr ? *pool : ThreadPool::global())
    {
    }

    ServiceEngine(const ServiceEngine &) = delete;
    ServiceEngine &operator=(const ServiceEngine &) = delete;

    /**
     * Serve one request synchronously.  Always returns a response —
     * unknown policies, empty workloads and solver refusals come back
     * as structured errors, never as process exits.  Fills every
     * response field except stats.queueNs (the admission queue's).
     */
    ServiceResponse serve(const ServiceRequest &req);

    const PolicyRegistry &registry() const { return registry_; }

  private:
    const PolicyRegistry &registry_;
    ThreadPool &pool_;
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_ENGINE_HH
