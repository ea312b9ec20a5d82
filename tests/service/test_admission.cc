/**
 * @file
 * Admission-queue tests: futures always become ready, requests are
 * served in arrival order, duplicates get identical answers, overload
 * is shed with RESOURCE_EXHAUSTED, stale requests expire with
 * DEADLINE_EXCEEDED, and shutdown answers everything still pending.
 */

#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "service/admission.hh"
#include "service/engine.hh"
#include "trace/paper_examples.hh"
#include "trace/synthetic.hh"

namespace jitsched {
namespace {

ServiceRequest
makeRequest(std::uint64_t id, const std::string &policy,
            Workload w)
{
    ServiceRequest req;
    req.id = id;
    req.policy = policy;
    req.workload = std::move(w);
    return req;
}

TEST(AdmissionQueue, ServesAValidRequest)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    auto future =
        queue.submit(makeRequest(1, "iar", figure1Workload()));
    const ServiceResponse resp = future.get();
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.id, 1u);
    EXPECT_EQ(resp.policy, "iar");
    EXPECT_TRUE(resp.hasSchedule);
    EXPECT_GE(resp.stats.queueNs, 0);
    EXPECT_GT(resp.stats.solveNs, 0);
    EXPECT_EQ(queue.processed(), 1u);
    EXPECT_EQ(queue.accepted(), 1u);
}

TEST(AdmissionQueue, EngineErrorsComeBackStructured)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    auto future = queue.submit(
        makeRequest(2, "no-such-policy", figure1Workload()));
    const ServiceResponse resp = future.get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errcode::invalidArgument);
}

TEST(AdmissionQueue, DuplicateRequestsAreSolvedAgainIdentically)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    const ServiceResponse first =
        queue.submit(makeRequest(1, "iar", figure1Workload())).get();
    const ServiceResponse second =
        queue.submit(makeRequest(1, "iar", figure1Workload())).get();
    ASSERT_TRUE(first.ok);
    ASSERT_TRUE(second.ok);
    // Nothing behind the queue memoizes: the repeat is a full solve
    // (the daemon's result cache answers repeats before admission)...
    EXPECT_EQ(queue.processed(), 2u);
    // ...with the same deterministic block, as duplicates must have.
    EXPECT_EQ(responseText(first, /*include_stats=*/false),
              responseText(second, /*include_stats=*/false));
}

/**
 * Records the order the worker runs requests in, by workload name.
 * The run of the workload named `gate` blocks until the test opens
 * the gate, so everything submitted meanwhile queues up behind it.
 */
class RecordingPolicy final : public SchedulerPolicy
{
  public:
    RecordingPolicy(std::shared_future<void> gate,
                    std::vector<std::string> *order)
        : gate_(std::move(gate)), order_(order)
    {
    }

    const char *name() const override { return "record"; }
    const char *describe() const override { return "run-order probe"; }

    PolicyOutcome
    run(const Workload &w, const ServiceOptions &,
        ThreadPool &) const override
    {
        if (w.name() == "gate")
            gate_.wait();
        order_->push_back(w.name());
        return {};
    }

  private:
    std::shared_future<void> gate_;
    std::vector<std::string> *order_; ///< worker thread only
};

Workload
namedWorkload(const std::string &name)
{
    SyntheticConfig cfg;
    cfg.name = name;
    cfg.numFunctions = 4;
    cfg.numCalls = 20;
    return generateSynthetic(cfg);
}

TEST(AdmissionQueue, ServesInArrivalOrder)
{
    std::promise<void> open;
    std::vector<std::string> order;
    PolicyRegistry registry;
    registry.registerPolicy(std::make_unique<RecordingPolicy>(
        open.get_future().share(), &order));
    ServiceEngine engine(registry);
    AdmissionQueue queue(engine);

    // "a" is served once before the backlog forms, so its repeat
    // below is a request the daemon has answered before.  Neither
    // that nor anything else may move it ahead of earlier arrivals.
    ASSERT_TRUE(
        queue.submit(makeRequest(1, "record", namedWorkload("a")))
            .get()
            .ok);
    std::vector<std::future<ServiceResponse>> futures;
    std::uint64_t id = 2;
    for (const char *name : {"gate", "b", "c", "a", "d", "a", "e"})
        futures.push_back(queue.submit(
            makeRequest(id++, "record", namedWorkload(name))));
    open.set_value();
    for (auto &f : futures)
        EXPECT_TRUE(f.get().ok);

    const std::vector<std::string> want = {"a", "gate", "b", "c",
                                           "a", "d",    "a", "e"};
    EXPECT_EQ(order, want);
}

TEST(AdmissionQueue, ZeroDepthQueueShedsEverything)
{
    ServiceEngine engine;
    AdmissionConfig cfg;
    cfg.maxDepth = 0;
    AdmissionQueue queue(engine, cfg);
    const ServiceResponse resp =
        queue.submit(makeRequest(3, "iar", figure1Workload())).get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errcode::resourceExhausted);
    EXPECT_EQ(queue.shed(), 1u);
    EXPECT_EQ(queue.accepted(), 0u);
}

TEST(AdmissionQueue, StaleRequestsExpire)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    // Occupy the worker with a real solve, then enqueue a request
    // whose deadline is already in the past when its turn comes.
    SyntheticConfig scfg;
    scfg.name = "occupy";
    scfg.numFunctions = 80;
    scfg.numCalls = 4000;
    auto slow =
        queue.submit(makeRequest(4, "iar", generateSynthetic(scfg)));
    ServiceRequest stale =
        makeRequest(5, "iar", figure1Workload());
    stale.options.deadlineMs = 0;
    const ServiceResponse resp = queue.submit(std::move(stale)).get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errcode::deadlineExceeded);
    EXPECT_EQ(queue.expired(), 1u);
    EXPECT_TRUE(slow.get().ok);
}

TEST(AdmissionQueue, StopAnswersInsteadOfHanging)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    queue.stop();
    const ServiceResponse resp =
        queue.submit(makeRequest(6, "iar", figure1Workload())).get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errcode::unavailable);
    queue.stop(); // idempotent
}

TEST(AdmissionQueue, ManyConcurrentSubmittersAllGetAnswers)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    std::vector<std::future<ServiceResponse>> futures;
    for (std::uint64_t i = 0; i < 32; ++i)
        futures.push_back(queue.submit(makeRequest(
            i + 1, i % 2 == 0 ? "iar" : "base-only",
            i % 4 < 2 ? figure1Workload() : figure2Workload())));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const ServiceResponse resp = futures[i].get();
        EXPECT_TRUE(resp.ok) << resp.error;
        EXPECT_EQ(resp.id, i + 1);
    }
    EXPECT_EQ(queue.processed(), 32u);
}

} // anonymous namespace
} // namespace jitsched
