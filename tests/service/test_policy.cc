/**
 * @file
 * Policy-registry tests: the eight built-in policies resolve by name
 * and produce sane outcomes on the paper's worked example — schedules
 * whose make-spans respect the lower bound, an A* that is at least as
 * good as IAR, and explicit refusals, with their exact text, when
 * A*'s expansion or memory budget is tiny.
 */

#include <gtest/gtest.h>

#include "service/policy.hh"
#include "trace/paper_examples.hh"
#include "trace/synthetic.hh"

namespace jitsched {
namespace {

class PolicyTest : public ::testing::Test
{
  protected:
    PolicyOutcome
    run(const std::string &name, const Workload &w,
        const ServiceOptions &opts = {})
    {
        const SchedulerPolicy *p =
            PolicyRegistry::builtin().find(name);
        EXPECT_NE(p, nullptr) << name;
        return p->run(w, opts);
    }
};

TEST_F(PolicyTest, BuiltinRegistryHoldsTheEightPolicies)
{
    const PolicyRegistry &reg = PolicyRegistry::builtin();
    EXPECT_EQ(reg.size(), 8u);
    const std::vector<std::string> expected = {
        "astar", "astar-par", "base-only", "iar",
        "jikes", "lower-bound", "opt-only", "v8"};
    EXPECT_EQ(reg.names(), expected);
    for (const std::string &name : expected) {
        const SchedulerPolicy *p = reg.find(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->name(), name);
        EXPECT_NE(std::string(p->describe()), "");
    }
    EXPECT_EQ(reg.find("no-such-policy"), nullptr);
}

TEST_F(PolicyTest, StaticPoliciesRespectTheLowerBound)
{
    const Workload w = figure1Workload();
    for (const std::string name : {"iar", "base-only", "opt-only"}) {
        SCOPED_TRACE(name);
        const PolicyOutcome out = run(name, w);
        EXPECT_TRUE(out.ok);
        EXPECT_TRUE(out.hasSchedule);
        ASSERT_TRUE(out.hasSim);
        EXPECT_GT(out.lowerBound, 0);
        EXPECT_GE(out.sim.makespan, out.lowerBound);
    }
}

TEST_F(PolicyTest, LowerBoundPolicyOmitsTheSchedule)
{
    const PolicyOutcome out = run("lower-bound", figure1Workload());
    EXPECT_TRUE(out.ok);
    EXPECT_FALSE(out.hasSchedule);
    EXPECT_FALSE(out.hasSim);
    EXPECT_GT(out.lowerBound, 0);
}

TEST_F(PolicyTest, AStarIsAtLeastAsGoodAsIar)
{
    const Workload w = figure2Workload();
    const PolicyOutcome iar = run("iar", w);
    const PolicyOutcome astar = run("astar", w);
    ASSERT_TRUE(astar.ok) << astar.error;
    ASSERT_TRUE(astar.hasSim);
    EXPECT_LE(astar.sim.makespan, iar.sim.makespan);
    EXPECT_GE(astar.sim.makespan, astar.lowerBound);
}

TEST_F(PolicyTest, AStarRefusesExplicitlyWhenBudgetIsTiny)
{
    ServiceOptions opts;
    opts.astarMaxExpansions = 1;
    const PolicyOutcome out =
        run("astar", figure2Workload(), opts);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.error, "A* gave up without an optimal schedule "
                         "(expansion cap hit after 2 expansions)");
}

TEST_F(PolicyTest, AStarRefusesExplicitlyWhenMemoryIsTiny)
{
    // 3000 functions at four levels: the root alone has 12000
    // children, more than a 1 MiB node store holds, so the first
    // expansion trips the budget.
    SyntheticConfig cfg;
    cfg.numFunctions = 3000;
    cfg.numCalls = 6000;
    cfg.numLevels = 4;
    cfg.seed = 1;
    ServiceOptions opts;
    opts.astarMemoryMb = 1;
    const PolicyOutcome out =
        run("astar", generateSynthetic(cfg), opts);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.error,
              "A* gave up without an optimal schedule (node store "
              "exceeded the memory budget after 1 expansions)");
}

TEST_F(PolicyTest, AStarParMatchesAStarAtEveryWorkerCount)
{
    const Workload w = figure2Workload();
    const PolicyOutcome seq = run("astar", w);
    ASSERT_TRUE(seq.ok) << seq.error;
    ASSERT_TRUE(seq.hasSim);
    for (const std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(threads);
        ServiceOptions opts;
        opts.astarThreads = threads;
        const PolicyOutcome par = run("astar-par", w, opts);
        ASSERT_TRUE(par.ok) << par.error;
        ASSERT_TRUE(par.hasSchedule);
        ASSERT_TRUE(par.hasSim);
        EXPECT_EQ(par.sim.makespan, seq.sim.makespan);
        EXPECT_EQ(par.lowerBound, seq.lowerBound);
    }
}

TEST_F(PolicyTest, AStarParNeverRefusesUnderATinyBudget)
{
    // Where the sequential policy refuses, the anytime policy
    // answers with its incumbent (the IAR seed or better) — a valid
    // schedule whose make-span still respects the lower bound.
    ServiceOptions opts;
    opts.astarMaxExpansions = 1;
    opts.astarThreads = 2;
    const PolicyOutcome out =
        run("astar-par", figure2Workload(), opts);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_TRUE(out.hasSchedule);
    ASSERT_TRUE(out.hasSim);
    EXPECT_GE(out.sim.makespan, out.lowerBound);
}

TEST_F(PolicyTest, OnlinePoliciesProduceInducedSchedules)
{
    const Workload w = figure2Workload();
    for (const std::string name : {"jikes", "v8"}) {
        SCOPED_TRACE(name);
        const PolicyOutcome out = run(name, w);
        EXPECT_TRUE(out.ok);
        EXPECT_TRUE(out.hasSchedule);
        ASSERT_TRUE(out.hasSim);
        EXPECT_GT(out.sim.makespan, 0);
    }
}

TEST_F(PolicyTest, PoliciesAreDeterministic)
{
    const Workload w = figure2Workload();
    for (const std::string name :
         {"iar", "astar", "base-only", "opt-only", "jikes", "v8"}) {
        SCOPED_TRACE(name);
        const PolicyOutcome a = run(name, w);
        const PolicyOutcome b = run(name, w);
        ASSERT_EQ(a.ok, b.ok);
        EXPECT_EQ(a.lowerBound, b.lowerBound);
        if (a.hasSim)
            EXPECT_EQ(a.sim.makespan, b.sim.makespan);
        if (a.hasSchedule)
            EXPECT_EQ(a.schedule.events(), b.schedule.events());
    }
}

TEST_F(PolicyTest, StaticPoliciesSimulateTheirScheduleUnderTheOptions)
{
    // The reported evaluation is exactly simulate() of the returned
    // schedule under the request's cores and jitter knobs.
    const Workload w = figure2Workload();
    ServiceOptions opts;
    opts.compileCores = 2;
    opts.jitterSigma = 0.25;
    opts.jitterSeed = 9;
    SimOptions so;
    so.compileCores = opts.compileCores;
    so.execJitterSigma = opts.jitterSigma;
    so.jitterSeed = opts.jitterSeed;
    for (const std::string name :
         {"iar", "base-only", "opt-only", "astar", "astar-par"}) {
        SCOPED_TRACE(name);
        const PolicyOutcome out = run(name, w, opts);
        ASSERT_TRUE(out.ok) << out.error;
        ASSERT_TRUE(out.hasSim);
        const SimResult want = simulate(w, out.schedule, so);
        EXPECT_EQ(out.sim.makespan, want.makespan);
        EXPECT_EQ(out.sim.compileEnd, want.compileEnd);
        EXPECT_EQ(out.sim.totalBubble, want.totalBubble);
        EXPECT_EQ(out.sim.totalExec, want.totalExec);
        EXPECT_EQ(out.sim.callsAtLevel, want.callsAtLevel);
    }
}

} // anonymous namespace
} // namespace jitsched
