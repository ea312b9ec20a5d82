/**
 * @file
 * Unit tests for the make-span simulator — anchored on the paper's
 * Fig. 1 and Fig. 2 worked examples — and for its tail fold: the
 * observer-free run stops walking calls once the clock reaches the
 * compile end, and must agree on every field with the observed run,
 * which walks every call.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/iar.hh"
#include "core/single_level.hh"
#include "qa/oracles.hh"
#include "sim/makespan.hh"
#include "trace/paper_examples.hh"
#include "trace/synthetic.hh"

namespace jitsched {
namespace {

TEST(MakespanFig1, SchemeS1Is11)
{
    const Workload w = figure1Workload();
    const SimResult r = simulate(w, figureSchemeS1());
    EXPECT_EQ(r.makespan, 11);
}

TEST(MakespanFig1, SchemeS2Is12)
{
    const Workload w = figure1Workload();
    const SimResult r = simulate(w, figureSchemeS2());
    EXPECT_EQ(r.makespan, 12);
}

TEST(MakespanFig1, SchemeS3Is10AndBest)
{
    const Workload w = figure1Workload();
    EXPECT_EQ(simulate(w, figureSchemeS3()).makespan, 10);
}

TEST(MakespanFig2, AppendedCallFlipsTheWinner)
{
    // Fig. 2: with the fifth call, s1+c21 becomes best (12) while s3
    // (without the appending, as in the paper) becomes worst (13).
    const Workload w = figure2Workload();
    EXPECT_EQ(simulate(w, figureSchemeS1Extended()).makespan, 12);
    EXPECT_EQ(simulate(w, figureSchemeS2Extended()).makespan, 13);
    EXPECT_EQ(simulate(w, figureSchemeS3()).makespan, 13);
}

TEST(MakespanFig1, BubbleAccounting)
{
    // Scheme s2 on Fig. 1: bubbles at [0,1) (the very first call
    // waits for c00), [2,4) (waiting for c11) and [6,7) (waiting for
    // c20) -> 4 units over 3 bubbles.
    const SimResult r = simulate(figure1Workload(), figureSchemeS2());
    EXPECT_EQ(r.totalBubble, 4);
    EXPECT_EQ(r.bubbleCount, 3u);
}

TEST(MakespanFig1, ExecAndCompileTotals)
{
    const SimResult r = simulate(figure1Workload(), figureSchemeS3());
    // s3 executes e00 + e10 + e20 + e11 = 1 + 3 + 3 + 2 = 9.
    EXPECT_EQ(r.totalExec, 9);
    // Compiles c00 + c10 + c20 + c11 = 1 + 1 + 3 + 3 = 8.
    EXPECT_EQ(r.totalCompile, 8);
    EXPECT_EQ(r.compileEnd, 8);
    EXPECT_EQ(r.execEnd, 10);
}

TEST(MakespanFig1, CallsAtLevel)
{
    const SimResult r = simulate(figure1Workload(), figureSchemeS3());
    ASSERT_EQ(r.callsAtLevel.size(), 2u);
    EXPECT_EQ(r.callsAtLevel[0], 3u); // f0, f1@0, f2
    EXPECT_EQ(r.callsAtLevel[1], 1u); // second f1 call
}

TEST(Makespan, LatestCompilationWins)
{
    // One function, three calls; a recompile completing between call
    // 1 and call 2 switches the version used.
    std::vector<FunctionProfile> funcs;
    funcs.emplace_back("f", 1,
                       std::vector<LevelCosts>{{2, 10}, {12, 1}});
    const Workload w("w", std::move(funcs), {0, 0, 0});
    const Schedule s({{0, 0}, {0, 1}});
    // Compiles done at 2 and 14.  Exec: [2,12) level 0, [12,22) level
    // 0 (high not ready at 12), [22,23) level 1.
    const SimResult r = simulate(w, s);
    EXPECT_EQ(r.makespan, 23);
    EXPECT_EQ(r.callsAtLevel[0], 2u);
    EXPECT_EQ(r.callsAtLevel[1], 1u);
}

TEST(Makespan, VersionReadyExactlyAtStartIsUsed)
{
    std::vector<FunctionProfile> funcs;
    funcs.emplace_back("f", 1,
                       std::vector<LevelCosts>{{2, 10}, {10, 1}});
    const Workload w("w", std::move(funcs), {0, 0});
    const Schedule s({{0, 0}, {0, 1}});
    // Compiles at 2 and 12; first exec [2,12); recompile completes at
    // 12 == second call start -> second call uses level 1.
    const SimResult r = simulate(w, s);
    EXPECT_EQ(r.makespan, 13);
    EXPECT_EQ(r.callsAtLevel[1], 1u);
}

TEST(Makespan, MoreCompileCoresShortenBubbles)
{
    const Workload w = figure1Workload();
    const Schedule s = figureSchemeS2();
    const SimResult one = simulate(w, s, {.compileCores = 1});
    const SimResult two = simulate(w, s, {.compileCores = 2});
    EXPECT_LT(two.makespan, one.makespan);
    EXPECT_LE(two.totalBubble, one.totalBubble);
}

TEST(Makespan, CompileEndCanExceedExecEnd)
{
    // A recompile appended after the last call: it runs past the end
    // of execution and must not extend the make-span.
    std::vector<FunctionProfile> funcs;
    funcs.emplace_back("f", 1,
                       std::vector<LevelCosts>{{1, 2}, {100, 1}});
    const Workload w("w", std::move(funcs), {0});
    const Schedule s({{0, 0}, {0, 1}});
    const SimResult r = simulate(w, s);
    EXPECT_EQ(r.makespan, 3);
    EXPECT_EQ(r.compileEnd, 101);
}

TEST(Makespan, ExecEndDecomposition)
{
    // execEnd == totalExec + totalBubble (execution starts at 0).
    for (const Schedule &s : {figureSchemeS1(), figureSchemeS2(),
                              figureSchemeS3()}) {
        const SimResult r = simulate(figure1Workload(), s);
        EXPECT_EQ(r.execEnd, r.totalExec + r.totalBubble);
    }
}

class RecordingObserver : public SimObserver
{
  public:
    void
    onCompiled(std::size_t idx, const CompileEvent &ev,
               Tick completion) override
    {
        compiled.push_back({idx, ev, completion});
    }

    void
    onCall(std::size_t idx, FuncId f, Tick start, Tick dur,
           Level level) override
    {
        calls.push_back({idx, f, start, dur, level});
    }

    struct Compiled
    {
        std::size_t index;
        CompileEvent ev;
        Tick completion;
    };
    struct Call
    {
        std::size_t index;
        FuncId func;
        Tick start;
        Tick dur;
        Level level;
    };
    std::vector<Compiled> compiled;
    std::vector<Call> calls;
};

TEST(Makespan, ObserverSeesFullTimeline)
{
    RecordingObserver obs;
    const Workload w = figure1Workload();
    simulate(w, figureSchemeS3(), SimOptions{}, obs);

    ASSERT_EQ(obs.compiled.size(), 4u);
    EXPECT_EQ(obs.compiled[0].completion, 1);
    EXPECT_EQ(obs.compiled[3].completion, 8);
    EXPECT_EQ(obs.compiled[3].ev.func, 1u);
    EXPECT_EQ(obs.compiled[3].ev.level, 1);

    ASSERT_EQ(obs.calls.size(), 4u);
    EXPECT_EQ(obs.calls[0].start, 1);
    EXPECT_EQ(obs.calls[1].start, 2);
    EXPECT_EQ(obs.calls[2].start, 5);
    EXPECT_EQ(obs.calls[3].start, 8);
    EXPECT_EQ(obs.calls[3].level, 1);
}

/** The facts IAR reads, collected call by call from the full walk. */
class FactsObserver : public SimObserver
{
  public:
    FactsObserver(std::size_t funcs, std::size_t events)
        : before(funcs, 0), first(funcs, maxTick), completion(events)
    {
    }

    void
    onCompiled(std::size_t idx, const CompileEvent &,
               Tick done) override
    {
        completion[idx] = done;
        end_ = std::max(end_, done);
    }

    void
    onCall(std::size_t, FuncId f, Tick start, Tick, Level) override
    {
        if (start < end_)
            ++before[f];
        if (first[f] == maxTick)
            first[f] = start;
    }

    std::vector<std::uint64_t> before;
    std::vector<Tick> first;
    std::vector<Tick> completion;

  private:
    Tick end_ = 0;
};

/**
 * The observer-free run equals the full walk on every field, and on
 * one compile core without jitter it equals the independent replay.
 * The facts the same walk gathers equal those read call by call.
 */
void
expectFoldAgrees(const Workload &w, const Schedule &s,
                 const SimOptions &opts = {})
{
    FactsObserver observed(w.numFunctions(), s.size());
    const SimResult walked = simulate(w, s, opts, observed);
    const SimResult folded = simulate(w, s, opts);
    for (const bool starts : {false, true}) {
        SimFacts facts;
        facts.wantFirstCallStarts = starts;
        EXPECT_EQ(simulate(w, s, opts, facts).makespan, walked.makespan);
        EXPECT_EQ(facts.eventCompletion, observed.completion);
        EXPECT_EQ(facts.callsBeforeCompileEnd, observed.before);
        if (starts) {
            EXPECT_EQ(facts.firstCallStart, observed.first);
        } else {
            EXPECT_TRUE(facts.firstCallStart.empty());
        }
    }
    EXPECT_EQ(folded.makespan, walked.makespan);
    EXPECT_EQ(folded.execEnd, walked.execEnd);
    EXPECT_EQ(folded.compileEnd, walked.compileEnd);
    EXPECT_EQ(folded.totalBubble, walked.totalBubble);
    EXPECT_EQ(folded.bubbleCount, walked.bubbleCount);
    EXPECT_EQ(folded.totalExec, walked.totalExec);
    EXPECT_EQ(folded.totalCompile, walked.totalCompile);
    EXPECT_EQ(folded.callsAtLevel, walked.callsAtLevel);
    if (opts.compileCores == 1 && opts.execJitterSigma == 0.0) {
        EXPECT_EQ(folded.makespan, qa::referenceMakespan(w, s));
    }
}

TEST(MakespanFold, CompileEndAfterTheLastCall)
{
    // The recompile ends at 101, after the last call ends at 7: the
    // clock never reaches the compile end, so nothing is folded.
    std::vector<FunctionProfile> funcs;
    funcs.emplace_back("f", 1,
                       std::vector<LevelCosts>{{1, 2}, {100, 1}});
    const Workload w("w", std::move(funcs), {0, 0, 0});
    const Schedule s({{0, 0}, {0, 1}});
    expectFoldAgrees(w, s);
    EXPECT_EQ(simulate(w, s).makespan, 7);
    EXPECT_EQ(simulate(w, s).callsAtLevel[1], 0u);
}

TEST(MakespanFold, CallStartingExactlyAtTheCompileEnd)
{
    // Compiles end at 2 and 12; the second call starts at 12, the
    // compile end, so it and every later call run level 1 and fold:
    // [2,12) at level 0, then three calls of 1.
    std::vector<FunctionProfile> funcs;
    funcs.emplace_back("f", 1,
                       std::vector<LevelCosts>{{2, 10}, {10, 1}});
    const Workload w("w", std::move(funcs), {0, 0, 0, 0});
    const Schedule s({{0, 0}, {0, 1}});
    expectFoldAgrees(w, s);
    const SimResult r = simulate(w, s);
    EXPECT_EQ(r.makespan, 15);
    EXPECT_EQ(r.callsAtLevel[0], 1u);
    EXPECT_EQ(r.callsAtLevel[1], 3u);
}

TEST(MakespanFold, BubbleEndingExactlyAtTheCompileEnd)
{
    // g's only compile is the last event, done at 10: its first call
    // waits until the compile end (a bubble of 8 after f's of 1) and
    // runs [10,13); the last three calls fold.
    std::vector<FunctionProfile> funcs;
    funcs.emplace_back("f", 1, std::vector<LevelCosts>{{1, 1}});
    funcs.emplace_back("g", 1, std::vector<LevelCosts>{{9, 3}});
    const Workload w("w", std::move(funcs), {0, 1, 0, 1, 0});
    const Schedule s({{0, 0}, {1, 0}});
    expectFoldAgrees(w, s);
    const SimResult r = simulate(w, s);
    EXPECT_EQ(r.totalBubble, 1 + 8);
    EXPECT_EQ(r.bubbleCount, 2u);
    EXPECT_EQ(r.makespan, 10 + 3 + 1 + 3 + 1);
}

TEST(MakespanFold, FunctionThatIsNeverCalled)
{
    // f1 is never called: compiled or not, it adds nothing to the
    // folded tail.
    std::vector<FunctionProfile> funcs;
    funcs.emplace_back("f0", 1,
                       std::vector<LevelCosts>{{1, 4}, {3, 1}});
    funcs.emplace_back("f1", 1,
                       std::vector<LevelCosts>{{2, 5}, {6, 2}});
    funcs.emplace_back("f2", 1, std::vector<LevelCosts>{{1, 2}});
    const Workload w("w", std::move(funcs), {0, 2, 0, 0, 2, 0, 0});
    expectFoldAgrees(w, Schedule({{0, 0}, {2, 0}, {0, 1}}));
    expectFoldAgrees(w, Schedule({{0, 0}, {2, 0}, {1, 0}, {0, 1}}));
    expectFoldAgrees(w, Schedule({{1, 1}, {0, 0}, {2, 0}}));
}

TEST(MakespanFold, SeveralCompileCores)
{
    SyntheticConfig cfg;
    cfg.numFunctions = 40;
    cfg.numCalls = 4000;
    cfg.numLevels = 3;
    cfg.seed = 7;
    const Workload w = generateSynthetic(cfg);
    const Schedule iar = iarScheduleOracle(w).schedule;
    const auto cands = oracleCandidateLevels(w);
    const Schedule opt = optimizingLevelSchedule(w, cands);
    for (const std::size_t cores : {1u, 2u, 3u, 8u}) {
        expectFoldAgrees(w, iar, {.compileCores = cores});
        expectFoldAgrees(w, opt, {.compileCores = cores});
    }
    expectFoldAgrees(figure1Workload(), figureSchemeS2(),
                     {.compileCores = 2});
}

TEST(MakespanFold, JitterKeepsTheFullWalk)
{
    // Jitter is drawn per call index, so a fold would misprice the
    // tail; the jittered run must still match the observed one, and
    // differ from the unjittered one.
    SyntheticConfig cfg;
    cfg.numFunctions = 30;
    cfg.numCalls = 3000;
    cfg.seed = 11;
    const Workload w = generateSynthetic(cfg);
    const Schedule s = iarScheduleOracle(w).schedule;
    const SimOptions jitter{.execJitterSigma = 0.3, .jitterSeed = 5};
    expectFoldAgrees(w, s, jitter);
    expectFoldAgrees(w, s, {.compileCores = 2, .execJitterSigma = 0.3});
    EXPECT_NE(simulate(w, s, jitter).totalExec, simulate(w, s).totalExec);
}

TEST(MakespanFold, FactsOnBaseOptAndIarSchedules)
{
    SyntheticConfig cfg;
    cfg.numFunctions = 50;
    cfg.numCalls = 5000;
    cfg.numLevels = 3;
    cfg.seed = 3;
    const Workload w = generateSynthetic(cfg);
    const auto cands = oracleCandidateLevels(w);
    expectFoldAgrees(w, baseLevelSchedule(w, cands));
    expectFoldAgrees(w, optimizingLevelSchedule(w, cands));
    expectFoldAgrees(w, iarScheduleOracle(w).schedule);
}

TEST(MakespanDeath, InvalidSchedulePanics)
{
    const Workload w = figure1Workload();
    // Missing f2's compile.
    const Schedule s({{0, 0}, {1, 0}});
    EXPECT_DEATH(simulate(w, s), "invalid schedule");
}

} // anonymous namespace
} // namespace jitsched
