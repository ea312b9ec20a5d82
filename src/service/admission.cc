#include "service/admission.hh"

#include <utility>

#include "obs/instruments.hh"
#include "obs/span.hh"

namespace jitsched {

AdmissionQueue::AdmissionQueue(ServiceEngine &engine,
                               AdmissionConfig cfg)
    : engine_(engine), cfg_(cfg)
{
    worker_ = std::thread([this] { workerLoop(); });
}

AdmissionQueue::~AdmissionQueue()
{
    stop();
}

std::future<ServiceResponse>
AdmissionQueue::submit(ServiceRequest req)
{
    Pending p;
    p.admitted = Clock::now();
    if (req.options.deadlineMs >= 0) {
        p.deadline = p.admitted +
                     std::chrono::milliseconds(req.options.deadlineMs);
        p.has_deadline = true;
    }
    p.req = std::move(req);
    std::future<ServiceResponse> future = p.promise.get_future();

    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (stop_) {
            ServiceResponse resp = makeErrorResponse(
                p.req.id, errcode::unavailable,
                "service is shutting down");
            resp.stats.traceId = p.req.traceId;
            p.promise.set_value(std::move(resp));
            return future;
        }
        if (queue_.size() >= cfg_.maxDepth) {
            ++shed_;
            JITSCHED_OBS(
                obs::ServiceMetrics::get().requestsShed.add());
            ServiceResponse resp = makeErrorResponse(
                p.req.id, errcode::resourceExhausted,
                "admission queue full (" +
                    std::to_string(cfg_.maxDepth) +
                    " pending requests); retry later");
            resp.stats.traceId = p.req.traceId;
            p.promise.set_value(std::move(resp));
            return future;
        }
        ++accepted_;
        queue_.push_back(std::move(p));
        JITSCHED_OBS({
            obs::ServiceMetrics &m = obs::ServiceMetrics::get();
            m.requestsAccepted.add();
            m.queueDepth.set(
                static_cast<std::int64_t>(queue_.size()));
        });
    }
    wake_cv_.notify_one();
    return future;
}

void
AdmissionQueue::answer(Pending &p, ServiceResponse resp)
{
    // Error paths (shed, expired, shutdown) build their response via
    // makeErrorResponse, which never saw the request's trace id.
    resp.stats.traceId = p.req.traceId;
    resp.stats.queueNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - p.admitted)
            .count() -
        resp.stats.solveNs;
    if (resp.stats.queueNs < 0)
        resp.stats.queueNs = 0;
    JITSCHED_OBS(obs::ServiceMetrics::get().queueWaitNs.observe(
        resp.stats.queueNs));
    p.promise.set_value(std::move(resp));
}

void
AdmissionQueue::workerLoop()
{
    for (;;) {
        std::unique_lock<std::mutex> lk(mutex_);
        wake_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty() && stop_)
            return;
        Pending p = std::move(queue_.front());
        queue_.pop_front();
        JITSCHED_OBS(obs::ServiceMetrics::get().queueDepth.set(
            static_cast<std::int64_t>(queue_.size())));
        lk.unlock();

        if (p.has_deadline && Clock::now() > p.deadline) {
            {
                std::lock_guard<std::mutex> guard(mutex_);
                ++expired_;
            }
            JITSCHED_OBS(
                obs::ServiceMetrics::get().requestsExpired.add());
            answer(p,
                   makeErrorResponse(
                       p.req.id, errcode::deadlineExceeded,
                       "request waited past its " +
                           std::to_string(p.req.options.deadlineMs) +
                           " ms deadline"));
            continue;
        }
        // The admission-wait span covers submit() -> this moment;
        // the solve span nests inside engine_.serve().
        obs::SpanCollector::global().recordBetween(
            p.req.traceId, "service.admission_wait", p.admitted,
            Clock::now());
        ServiceResponse resp = engine_.serve(p.req);
        {
            std::lock_guard<std::mutex> guard(mutex_);
            ++processed_;
        }
        JITSCHED_OBS(
            obs::ServiceMetrics::get().requestsProcessed.add());
        answer(p, std::move(resp));
    }
}

void
AdmissionQueue::stop()
{
    std::deque<Pending> orphans;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (stop_ && !worker_.joinable())
            return;
        stop_ = true;
        orphans.swap(queue_);
    }
    wake_cv_.notify_all();
    if (worker_.joinable())
        worker_.join();
    for (Pending &p : orphans)
        answer(p, makeErrorResponse(
                      p.req.id, errcode::unavailable,
                      "service stopped before the request was served"));
}

void
AdmissionQueue::restart()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!stop_)
            return; // never stopped (or already restarted)
        stop_ = false;
    }
    // stop() joined the old worker before clearing any path here, so
    // the thread object is safe to reuse.
    worker_ = std::thread([this] { workerLoop(); });
}

std::uint64_t
AdmissionQueue::accepted() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return accepted_;
}

std::uint64_t
AdmissionQueue::shed() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return shed_;
}

std::uint64_t
AdmissionQueue::expired() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return expired_;
}

std::uint64_t
AdmissionQueue::processed() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return processed_;
}

} // namespace jitsched
