#include "service/engine.hh"

#include <chrono>

#include "obs/instruments.hh"
#include "obs/span.hh"

namespace jitsched {

ServiceResponse
ServiceEngine::serve(const ServiceRequest &req)
{
    const SchedulerPolicy *policy = registry_.find(req.policy);
    if (policy == nullptr) {
        std::string known;
        for (const std::string &n : registry_.names()) {
            if (!known.empty())
                known += ", ";
            known += n;
        }
        ServiceResponse resp = makeErrorResponse(
            req.id, errcode::invalidArgument,
            "unknown policy '" + req.policy + "' (known: " + known +
                ")");
        resp.stats.traceId = req.traceId;
        return resp;
    }
    if (req.workload.numCalls() == 0) {
        ServiceResponse resp =
            makeErrorResponse(req.id, errcode::invalidArgument,
                              "workload has no calls — nothing to "
                              "schedule");
        resp.stats.traceId = req.traceId;
        return resp;
    }

    const auto t0 = std::chrono::steady_clock::now();

    PolicyOutcome outcome;
    {
        obs::ScopedSpan span(req.traceId, "service.solve");
        span.tag("policy", req.policy);
        outcome = policy->run(req.workload, req.options, pool_);
    }

    const auto t1 = std::chrono::steady_clock::now();

    ServiceResponse resp;
    if (!outcome.ok) {
        resp = makeErrorResponse(req.id, errcode::solverLimit,
                                 outcome.error);
        resp.policy = req.policy;
    } else {
        resp.id = req.id;
        resp.ok = true;
        resp.policy = req.policy;
        resp.lowerBound = outcome.lowerBound;
        resp.hasSim = outcome.hasSim;
        resp.sim = outcome.sim;
        resp.hasSchedule = outcome.hasSchedule;
        resp.schedule = outcome.schedule.events();
    }
    resp.stats.traceId = req.traceId;
    resp.stats.solveNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count();
    // The per-policy latency histogram; resolved here (one registry
    // lookup per request) rather than per sample.
    JITSCHED_OBS(obs::ServiceMetrics::solveNsFor(req.policy)
                     .observe(resp.stats.solveNs));
    return resp;
}

} // namespace jitsched
