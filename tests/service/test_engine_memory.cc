/**
 * @file
 * A long-running daemon must not grow with the number of distinct
 * requests it has served.  The engine keeps no per-request state, so
 * after a warm-up its heap stays flat however much fresh traffic it
 * answers; repeats are the result cache's job, and that cache is
 * bounded by its byte budget.
 */

#include <cstdint>

#include <gtest/gtest.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "service/engine.hh"
#include "trace/synthetic.hh"

namespace jitsched {
namespace {

/** Serve one small iar request no earlier request matched. */
bool
serveFresh(ServiceEngine &engine, std::uint64_t seed)
{
    SyntheticConfig cfg;
    cfg.numFunctions = 6;
    cfg.numCalls = 40;
    cfg.seed = seed;
    ServiceRequest req;
    req.id = seed;
    req.policy = "iar";
    req.workload = generateSynthetic(cfg);
    return engine.serve(req).ok;
}

TEST(ServiceEngineMemory, FreshTrafficLeavesTheHeapFlat)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer allocators bypass glibc's arenas, so "
                    "mallinfo2() would not see the growth";
#elif !defined(__GLIBC__)
    GTEST_SKIP() << "mallinfo2() is glibc-only";
#else
    ServiceEngine engine;
    std::uint64_t seed = 1;
    for (; seed <= 1'000; ++seed)
        ASSERT_TRUE(serveFresh(engine, seed)) << "seed " << seed;

    const auto before =
        static_cast<std::int64_t>(mallinfo2().uordblks);
    for (; seed <= 21'000; ++seed)
        ASSERT_TRUE(serveFresh(engine, seed)) << "seed " << seed;
    const auto after =
        static_cast<std::int64_t>(mallinfo2().uordblks);

    EXPECT_LT(after - before, std::int64_t(1) << 20)
        << "20000 distinct requests grew the heap by "
        << (after - before) << " bytes";
#endif
}

} // anonymous namespace
} // namespace jitsched
