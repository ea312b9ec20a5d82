/**
 * @file
 * Admission control for the scheduling service.
 *
 * Many clients, one solver pipeline: requests are admitted into a
 * bounded FIFO and served one at a time, in arrival order, by a
 * single worker thread calling the shared ServiceEngine.  Repeats
 * never get this far when the daemon runs its result cache
 * (service/result_cache.hh): the connection handler answers them
 * before admission.
 *
 * Overload policy is explicit: when the queue is full the service
 * answers RESOURCE_EXHAUSTED immediately instead of stalling every
 * client, and a request that waited past its deadline is answered
 * DEADLINE_EXCEEDED without burning solver time on an answer nobody
 * is waiting for.
 */

#ifndef JITSCHED_SERVICE_ADMISSION_HH
#define JITSCHED_SERVICE_ADMISSION_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "service/engine.hh"
#include "service/protocol.hh"

namespace jitsched {

/** Knobs of the admission queue. */
struct AdmissionConfig
{
    /** Pending requests beyond this depth are shed. */
    std::size_t maxDepth = 64;
};

/**
 * Bounded admission queue + single worker thread over a
 * ServiceEngine.
 */
class AdmissionQueue
{
  public:
    /** @param engine must outlive the queue */
    explicit AdmissionQueue(ServiceEngine &engine,
                            AdmissionConfig cfg = {});

    /** Stops the worker; pending requests are answered UNAVAILABLE. */
    ~AdmissionQueue();

    AdmissionQueue(const AdmissionQueue &) = delete;
    AdmissionQueue &operator=(const AdmissionQueue &) = delete;

    /**
     * Submit a request.  The future always becomes ready: with the
     * policy's response, or with a structured RESOURCE_EXHAUSTED /
     * DEADLINE_EXCEEDED / UNAVAILABLE error.
     */
    std::future<ServiceResponse> submit(ServiceRequest req);

    /** Stop accepting and drain; idempotent. */
    void stop();

    /**
     * Restart the worker after a stop(); idempotent while running.
     * Counters are preserved across the bounce — what the restart
     * lifecycle tests assert on.
     */
    void restart();

    std::uint64_t accepted() const;  ///< requests queued
    std::uint64_t shed() const;      ///< rejected: queue full
    std::uint64_t expired() const;   ///< rejected: deadline passed
    std::uint64_t processed() const; ///< answered by the engine

  private:
    using Clock = std::chrono::steady_clock;

    struct Pending
    {
        ServiceRequest req;
        std::promise<ServiceResponse> promise;
        Clock::time_point admitted;
        Clock::time_point deadline; ///< valid when has_deadline
        bool has_deadline = false;
    };

    void workerLoop();
    void answer(Pending &p, ServiceResponse resp);

    ServiceEngine &engine_;
    const AdmissionConfig cfg_;

    mutable std::mutex mutex_;
    std::condition_variable wake_cv_;
    std::deque<Pending> queue_;
    bool stop_ = false;

    std::uint64_t accepted_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t expired_ = 0;
    std::uint64_t processed_ = 0;

    std::thread worker_;
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_ADMISSION_HH
