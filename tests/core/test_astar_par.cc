/**
 * @file
 * Tests for the hash-distributed parallel anytime A*
 * (core/astar_par.hh) and for the one-worker search's IAR incumbent
 * pruning.  Carries the `core_par` ctest label — the thread-heavy
 * suite the TSan job runs.
 */

#include <gtest/gtest.h>

#include "core/astar.hh"
#include "core/astar_par.hh"
#include "core/brute_force.hh"
#include "sim/makespan.hh"
#include "trace/paper_examples.hh"
#include "trace/synthetic.hh"

namespace jitsched {
namespace {

Workload
synthetic(std::size_t functions, std::size_t calls,
          std::size_t levels, std::uint64_t seed)
{
    SyntheticConfig cfg;
    cfg.numFunctions = functions;
    cfg.numCalls = calls;
    cfg.numLevels = levels;
    cfg.seed = seed;
    return generateSynthetic(cfg);
}

TEST(AStarPar, SolvesFig1Optimally)
{
    const Workload w = figure1Workload();
    const AStarResult res = aStarParallel(w);
    ASSERT_EQ(res.status, AStarStatus::Optimal);
    EXPECT_EQ(res.makespan, 10);
    EXPECT_TRUE(res.schedule.validate(w));
    EXPECT_EQ(res.gapBound, 0);
    EXPECT_EQ(res.stopCause, AStarStop::None);
}

TEST(AStarPar, SolvesFig2Optimally)
{
    const AStarResult res = aStarParallel(figure2Workload());
    ASSERT_EQ(res.status, AStarStatus::Optimal);
    EXPECT_EQ(res.makespan, 12);
}

/**
 * The determinism contract: run to completion, the parallel search's
 * cost is bit-identical to the sequential optimum at every worker
 * count, on every instance.
 */
class AStarParCostTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AStarParCostTest, CostMatchesSequentialAtEveryWorkerCount)
{
    const Workload w = synthetic(4, 25, 2, GetParam());
    const AStarResult seq = aStarOptimal(w);
    ASSERT_EQ(seq.status, AStarStatus::Optimal);

    for (const std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(threads);
        AStarConfig cfg;
        cfg.threads = threads;
        const AStarResult par = aStarParallel(w, cfg);
        ASSERT_EQ(par.status, AStarStatus::Optimal);
        EXPECT_EQ(par.makespan, seq.makespan);
        EXPECT_TRUE(par.schedule.validate(w));
        EXPECT_EQ(simulate(w, par.schedule).makespan, par.makespan);
        EXPECT_EQ(par.workerExpansions.size(), threads);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AStarParCostTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(AStarPar, OneWorkerIsFullyDeterministic)
{
    // With a single worker there is no expansion-order race: every
    // counter, not just the cost, must repeat exactly.
    const Workload w = synthetic(5, 40, 2, 3);
    AStarConfig cfg;
    cfg.threads = 1;
    const AStarResult a = aStarParallel(w, cfg);
    const AStarResult b = aStarParallel(w, cfg);
    ASSERT_EQ(a.status, AStarStatus::Optimal);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.schedule.events(), b.schedule.events());
    EXPECT_EQ(a.nodesExpanded, b.nodesExpanded);
    EXPECT_EQ(a.nodesGenerated, b.nodesGenerated);
    EXPECT_EQ(a.nodesPruned, b.nodesPruned);
    EXPECT_EQ(a.nodesPrunedIncumbent, b.nodesPrunedIncumbent);
    EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(AStarPar, OneWorkerIsSeededAStarOptimal)
{
    // One engine: aStarParallel with one worker and aStarOptimal with
    // the IAR seed are the same search, counter for counter.
    for (const std::uint64_t seed : {3u, 5u, 9u}) {
        SCOPED_TRACE(seed);
        const Workload w = synthetic(5, 40, 2, seed);
        AStarConfig pcfg;
        pcfg.threads = 1;
        const AStarResult par = aStarParallel(w, pcfg);
        AStarConfig scfg;
        scfg.incumbentPruning = true;
        const AStarResult seq = aStarOptimal(w, scfg);
        ASSERT_EQ(par.status, AStarStatus::Optimal);
        ASSERT_EQ(seq.status, AStarStatus::Optimal);
        EXPECT_EQ(par.makespan, seq.makespan);
        EXPECT_EQ(par.schedule.events(), seq.schedule.events());
        EXPECT_EQ(par.nodesExpanded, seq.nodesExpanded);
        EXPECT_EQ(par.nodesGenerated, seq.nodesGenerated);
        EXPECT_EQ(par.nodesPruned, seq.nodesPruned);
        EXPECT_EQ(par.nodesPrunedIncumbent, seq.nodesPrunedIncumbent);
        EXPECT_EQ(par.evaluations, seq.evaluations);
        EXPECT_EQ(par.peakMemory, seq.peakMemory);
    }
}

TEST(AStarPar, IncumbentTrailStartsAtTheSeedAndTightens)
{
    const AStarResult res = aStarParallel(synthetic(5, 40, 2, 7));
    ASSERT_EQ(res.status, AStarStatus::Optimal);
    ASSERT_FALSE(res.incumbentTrail.empty());
    // Entry 0 is the IAR seed; each later entry strictly improves;
    // the last one is the returned make-span.
    for (std::size_t i = 1; i < res.incumbentTrail.size(); ++i)
        EXPECT_LT(res.incumbentTrail[i].makespan,
                  res.incumbentTrail[i - 1].makespan);
    EXPECT_EQ(res.incumbentTrail.back().makespan, res.makespan);
}

TEST(AStarPar, ExpansionCapReturnsTheIncumbent)
{
    const Workload w = synthetic(8, 80, 2, 7);
    AStarConfig cfg;
    cfg.threads = 2;
    cfg.maxExpansions = 5;
    const AStarResult res = aStarParallel(w, cfg);
    ASSERT_EQ(res.status, AStarStatus::Incumbent);
    EXPECT_EQ(res.stopCause, AStarStop::Expansions);
    // The anytime contract: a valid schedule, correctly priced, with
    // a non-negative optimality-gap bound.
    EXPECT_TRUE(res.schedule.validate(w));
    EXPECT_EQ(simulate(w, res.schedule).makespan, res.makespan);
    EXPECT_GE(res.gapBound, 0);
}

TEST(AStarPar, MemoryBudgetReturnsTheIncumbent)
{
    const Workload w = synthetic(10, 150, 3, 5);
    AStarConfig cfg;
    cfg.threads = 2;
    cfg.memoryBudget = 32 * 1024;
    const AStarResult res = aStarParallel(w, cfg);
    ASSERT_EQ(res.status, AStarStatus::Incumbent);
    EXPECT_EQ(res.stopCause, AStarStop::Memory);
    EXPECT_TRUE(res.schedule.validate(w));
    EXPECT_EQ(simulate(w, res.schedule).makespan, res.makespan);
    EXPECT_GE(res.peakMemory, cfg.memoryBudget);
}

TEST(AStarPar, DeadlineReturnsTheIncumbent)
{
    // Large enough that exact search cannot finish in 2 ms even
    // with incumbent pruning; the deadline must trip and still hand
    // back a valid schedule.
    const Workload w = synthetic(12, 200, 3, 11);
    AStarConfig cfg;
    cfg.threads = 2;
    cfg.anytimeDeadlineMs = 2;
    const AStarResult res = aStarParallel(w, cfg);
    ASSERT_EQ(res.status, AStarStatus::Incumbent);
    EXPECT_EQ(res.stopCause, AStarStop::Deadline);
    EXPECT_TRUE(res.schedule.validate(w));
    EXPECT_EQ(simulate(w, res.schedule).makespan, res.makespan);
    EXPECT_GE(res.gapBound, 0);
}

TEST(AStarPar, MemoryAccountingSumsThePerWorkerStructures)
{
    AStarConfig cfg;
    cfg.threads = 4;
    const AStarResult res =
        aStarParallel(synthetic(5, 40, 2, 9), cfg);
    ASSERT_EQ(res.status, AStarStatus::Optimal);
    ASSERT_EQ(res.workerExpansions.size(), 4u);
    std::uint64_t total = 0;
    for (const std::uint64_t e : res.workerExpansions)
        total += e;
    EXPECT_EQ(total, res.nodesExpanded);
    EXPECT_GT(res.bytesPerNode, 0u);
    EXPECT_GT(res.peakArenaBytes, 0u);
    EXPECT_EQ(res.peakMemory, res.peakArenaBytes +
                                  res.peakOpenBytes +
                                  res.peakTableBytes);
}

TEST(SequentialIncumbent, PruningKeepsTheCostAndShrinksTheSearch)
{
    // Satellite of the same PR: aStarOptimal() can seed the IAR
    // bound too.  Same optimum, strictly fewer (or equal) expanded
    // nodes, and on a >= 5-function instance the bound must actually
    // fire.
    const Workload w = synthetic(5, 40, 2, 3);
    const AStarResult plain = aStarOptimal(w);
    AStarConfig cfg;
    cfg.incumbentPruning = true;
    const AStarResult pruned = aStarOptimal(w, cfg);
    ASSERT_EQ(plain.status, AStarStatus::Optimal);
    ASSERT_EQ(pruned.status, AStarStatus::Optimal);
    EXPECT_EQ(pruned.makespan, plain.makespan);
    EXPECT_TRUE(pruned.schedule.validate(w));
    EXPECT_EQ(simulate(w, pruned.schedule).makespan,
              pruned.makespan);
    EXPECT_LE(pruned.nodesExpanded, plain.nodesExpanded);
    EXPECT_GT(pruned.nodesPrunedIncumbent, 0u);
}

TEST(SequentialIncumbent, PruningMatchesBruteForceOnTinyInstances)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        SCOPED_TRACE(seed);
        const Workload w = synthetic(4, 25, 2, seed);
        const BruteForceResult bf = bruteForceOptimal(w);
        ASSERT_TRUE(bf.complete);
        AStarConfig cfg;
        cfg.incumbentPruning = true;
        const AStarResult res = aStarOptimal(w, cfg);
        ASSERT_EQ(res.status, AStarStatus::Optimal);
        EXPECT_EQ(res.makespan, bf.makespan);
    }
}

TEST(AStarParDeath, EmptyCallSequence)
{
    const Workload w("empty", {}, {});
    EXPECT_EXIT(aStarParallel(w), ::testing::ExitedWithCode(1),
                "empty call sequence");
}

} // anonymous namespace
} // namespace jitsched
