/**
 * @file
 * Differential test of IAR against the frozen copy it replaced
 * (legacy_iar.hh), which re-timed the schedule with a per-call
 * observer over the whole call sequence at every step.
 *
 * The bounded-walk IAR must return the same schedule and every same
 * counter, and the SimResult it carries must equal a fresh
 * simulate() of that schedule.  The inputs are the nine Fig. 5
 * configurations at 1/256 scale over 16 call sequences each (the
 * end-to-end benchmark's pool), the nine at 1/16 scale, every
 * checked-in qa workload reproducer and a band of fuzz draws — each
 * under the default and the oracle candidate model.
 */

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/iar.hh"
#include "legacy_iar.hh"
#include "qa/fuzz_workload.hh"
#include "sim/makespan.hh"
#include "support/rng.hh"
#include "trace/dacapo.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "vm/cost_benefit.hh"

namespace jitsched {
namespace {

void
expectSameSim(const SimResult &a, const SimResult &b,
              const std::string &what)
{
    EXPECT_EQ(a.makespan, b.makespan) << what;
    EXPECT_EQ(a.execEnd, b.execEnd) << what;
    EXPECT_EQ(a.compileEnd, b.compileEnd) << what;
    EXPECT_EQ(a.totalBubble, b.totalBubble) << what;
    EXPECT_EQ(a.bubbleCount, b.bubbleCount) << what;
    EXPECT_EQ(a.totalExec, b.totalExec) << what;
    EXPECT_EQ(a.totalCompile, b.totalCompile) << what;
    EXPECT_EQ(a.callsAtLevel, b.callsAtLevel) << what;
}

/** Both IARs on one instance under one candidate table. */
void
expectSameIar(const Workload &w, const std::vector<CandidatePair> &cands,
              const IarConfig &cfg, const std::string &what)
{
    const IarResult now = iarSchedule(w, cands, cfg);
    const legacy::IarOutcome old = legacy::iarSchedule(w, cands, cfg);
    EXPECT_TRUE(now.schedule == old.schedule) << what;
    EXPECT_EQ(now.numOther, old.numOther) << what;
    EXPECT_EQ(now.numAppend, old.numAppend) << what;
    EXPECT_EQ(now.numReplace, old.numReplace) << what;
    EXPECT_EQ(now.slackUpgrades, old.slackUpgrades) << what;
    EXPECT_EQ(now.gapAppends, old.gapAppends) << what;
    EXPECT_EQ(now.refinementDiscarded, old.refinementDiscarded) << what;
    expectSameSim(now.sim, simulate(w, now.schedule), what + " sim");
}

void
expectSameIarBothModels(const Workload &w, const std::string &what,
                        const IarConfig &cfg = {})
{
    for (const ModelKind kind : {ModelKind::Default, ModelKind::Oracle}) {
        CostBenefitConfig mcfg;
        mcfg.kind = kind;
        expectSameIar(w, modelCandidateLevels(w, mcfg), cfg,
                      what + (kind == ModelKind::Default ? " default"
                                                         : " oracle"));
    }
}

TEST(IarLegacyDiff, Fig5PoolAtScale256)
{
    // The end-to-end benchmark's fig5-dacapo pool: profiles fixed per
    // program, 16 redrawn call interleavings each.
    constexpr std::uint64_t kPoolSeed = 20140301;
    std::uint64_t c = 1ull << 40;
    for (const DacapoSpec &spec : dacapoSpecs()) {
        for (int k = 0; k < 16; ++k) {
            SyntheticConfig cfg = dacapoConfig(spec, 256);
            cfg.sequenceSeed =
                Rng::caseStream(kPoolSeed, c++).next() | 1;
            const Workload w = generateSynthetic(cfg);
            expectSameIarBothModels(
                w, spec.name + " draw " + std::to_string(k));
        }
    }
}

TEST(IarLegacyDiff, Fig5ConfigsAtScale16)
{
    for (const DacapoSpec &spec : dacapoSpecs()) {
        const Workload w = makeDacapoWorkload(spec.name, 16);
        expectSameIarBothModels(w, spec.name + " 1/16");
    }
}

TEST(IarLegacyDiff, QaCorpusWorkloads)
{
    namespace fs = std::filesystem;
    std::size_t cases = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(JITSCHED_QA_CORPUS_DIR)) {
        if (entry.path().extension() != ".workload")
            continue;
        const Workload w = readWorkloadFile(entry.path().string());
        expectSameIarBothModels(w, entry.path().filename().string());
        ++cases;
    }
    EXPECT_GT(cases, 0u) << "no .workload files in "
                         << JITSCHED_QA_CORPUS_DIR;
}

TEST(IarLegacyDiff, FuzzDrawsUnderEveryStepMix)
{
    // Small instances reach the corner cases the DaCapo shapes do
    // not: uncalled functions, free interpreter tiers, one-level
    // functions, compiles that end after the last call.
    IarConfig no_slack;
    no_slack.fillSlack = false;
    IarConfig no_gap;
    no_gap.fillEndingGap = false;
    IarConfig one_round;
    one_round.maxSlackRounds = 1;
    qa::FuzzDomain domain;
    domain.maxFunctions = 12;
    domain.maxCalls = 120;
    for (std::uint64_t i = 0; i < 400; ++i) {
        Rng rng = Rng::caseStream(25, i);
        const Workload w = qa::randomWorkload(rng, domain);
        const std::string what = "fuzz case " + std::to_string(i);
        expectSameIarBothModels(w, what);
        expectSameIarBothModels(w, what + " no-slack", no_slack);
        expectSameIarBothModels(w, what + " no-gap", no_gap);
        expectSameIarBothModels(w, what + " one-round", one_round);
    }
}

} // anonymous namespace
} // namespace jitsched
