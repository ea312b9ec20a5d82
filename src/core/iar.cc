#include "core/iar.hh"

#include <algorithm>
#include <optional>

#include "obs/instruments.hh"
#include "sim/makespan.hh"
#include "support/logging.hh"

namespace jitsched {

namespace {

/** Per-function view of the two candidate levels' true costs. */
struct FuncCosts
{
    Tick cl = 0, ch = 0; ///< compile time at low / high level
    Tick el = 0, eh = 0; ///< execution time at low / high level
    std::uint64_t n = 0; ///< total calls in the sequence
    bool upgradable = false; ///< high level differs from low
};

std::vector<FuncCosts>
gatherCosts(const Workload &w, const std::vector<CandidatePair> &cands)
{
    std::vector<FuncCosts> out(w.numFunctions());
    for (std::size_t i = 0; i < w.numFunctions(); ++i) {
        const auto f = static_cast<FuncId>(i);
        const auto &prof = w.function(f);
        const CandidatePair &c = cands[i];
        out[i].cl = prof.compileTime(c.low);
        out[i].ch = prof.compileTime(c.high);
        out[i].el = prof.execTime(c.low);
        out[i].eh = prof.execTime(c.high);
        out[i].n = w.callCount(f);
        out[i].upgradable = c.high > c.low;
    }
    return out;
}

} // anonymous namespace

IarResult
iarSchedule(const Workload &w, const std::vector<CandidatePair> &cands,
            const IarConfig &cfg)
{
    if (cands.size() != w.numFunctions())
        JITSCHED_PANIC("iarSchedule: candidate table has ",
                       cands.size(), " functions, workload has ",
                       w.numFunctions());

    IarResult result;
    const std::vector<FuncCosts> costs = gatherCosts(w, cands);

    // ---------------------------------------------------------------
    // Step 1 (init): low-level compiles in first-appearance order.
    // ---------------------------------------------------------------
    Schedule cseq;
    for (const FuncId f : w.firstAppearanceOrder())
        cseq.append(f, cands[f].low);
    const std::size_t init_len = cseq.size();

    // Time the initial schedule; n1 = calls before its compile end.
    // Keep the schedule and its make-span: step 2 has no simulation
    // guard, so the refined result is checked against this baseline
    // at the end.
    const Schedule init_seq = cseq;
    SimFacts t0;
    const SimResult init_res = simulate(w, cseq, SimOptions{}, t0);

    // ---------------------------------------------------------------
    // Step 2 (append & replace): classify by Formulas 1 and 2.
    // ---------------------------------------------------------------
    enum class Category { Other, Append, Replace };
    std::vector<Category> category(w.numFunctions(), Category::Other);
    std::vector<FuncId> append_set;

    for (const FuncId f : w.firstAppearanceOrder()) {
        const FuncCosts &fc = costs[f];
        // Formula 1: skip when the high level does not pay off.
        const __int128 high_total =
            static_cast<__int128>(fc.ch) +
            static_cast<__int128>(fc.n) * fc.eh;
        const __int128 low_total =
            static_cast<__int128>(fc.cl) +
            static_cast<__int128>(fc.n) * fc.el;
        if (!fc.upgradable || high_total > low_total) {
            ++result.numOther;
            continue;
        }
        // Formula 2: a costly recompile whose early benefit is small
        // goes to the back (Append); otherwise compile high up front
        // (Replace).  n1 = calls during the initial compile stage.
        const double n1 =
            static_cast<double>(t0.callsBeforeCompileEnd[f]);
        const double lhs = static_cast<double>(fc.ch - fc.cl);
        const double rhs =
            cfg.k * n1 * static_cast<double>(fc.el - fc.eh);
        if (lhs > rhs) {
            category[f] = Category::Append;
            append_set.push_back(f);
            ++result.numAppend;
        } else {
            category[f] = Category::Replace;
            ++result.numReplace;
        }
    }

    // Ascending sort on the high-level compile time: cheap
    // recompiles first, so one expensive recompile does not delay the
    // availability of good code for everyone else.
    std::sort(append_set.begin(), append_set.end(),
              [&](FuncId a, FuncId b) {
                  if (costs[a].ch != costs[b].ch)
                      return costs[a].ch < costs[b].ch;
                  return a < b;
              });

    // Replace in the initial segment; append after it.
    for (std::size_t i = 0; i < init_len; ++i) {
        CompileEvent &ev = cseq.events()[i];
        if (category[ev.func] == Category::Replace)
            ev.level = cands[ev.func].high;
    }
    // Track where a function's appended high compile lives so step 3
    // can delete it after an in-place upgrade.
    std::vector<std::int64_t> appended_pos(w.numFunctions(), -1);
    for (const FuncId f : append_set) {
        appended_pos[f] = static_cast<std::int64_t>(cseq.size());
        cseq.append(f, cands[f].high);
    }

    // ---------------------------------------------------------------
    // Step 3 (fill slack through replacement): upgrade initial
    // compiles where the compile thread is ahead of the execution.
    // ---------------------------------------------------------------
    // The simulation of `cseq` as it stands, with its facts, when one
    // is at hand; steps 3 and 4 hand it on instead of re-timing.
    std::optional<SimResult> cseq_sim;
    SimFacts cseq_facts;
    if (cfg.fillSlack) {
        SimFacts tl;
        tl.wantFirstCallStarts = true;
        SimResult prev = simulate(w, cseq, SimOptions{}, tl);

        for (std::size_t round = 0; round < cfg.maxSlackRounds;
             ++round) {
            // suffix_min[k] = min over initial-segment events j >= k
            // of (first call start of func_j - compile completion_j):
            // the tightest slack a delay inserted at position k eats.
            std::vector<Tick> suffix_min(init_len + 1, maxTick);
            for (std::size_t j = init_len; j-- > 0;) {
                const FuncId f = cseq[j].func;
                const Tick first_start = tl.firstCallStart[f];
                Tick slack = maxTick;
                if (first_start != maxTick)
                    slack = first_start - tl.eventCompletion[j];
                suffix_min[j] = std::min(slack, suffix_min[j + 1]);
            }

            Schedule candidate = cseq;
            std::vector<FuncId> upgraded;
            Tick delay = 0;
            for (std::size_t k = 0; k < init_len; ++k) {
                CompileEvent &ev = candidate.events()[k];
                const FuncCosts &fc = costs[ev.func];
                if (!fc.upgradable ||
                    ev.level == cands[ev.func].high)
                    continue;
                const Tick delta = fc.ch - fc.cl;
                if (suffix_min[k] == maxTick ||
                    delay + delta > suffix_min[k])
                    continue;
                ev.level = cands[ev.func].high;
                delay += delta;
                upgraded.push_back(ev.func);
            }
            if (upgraded.empty())
                break;

            // Delete the now-redundant appended high compiles.
            std::vector<bool> drop(candidate.size(), false);
            for (const FuncId f : upgraded) {
                if (appended_pos[f] >= 0)
                    drop[static_cast<std::size_t>(appended_pos[f])] =
                        true;
            }
            std::vector<CompileEvent> kept;
            std::vector<std::int64_t> new_pos(w.numFunctions(), -1);
            kept.reserve(candidate.size());
            for (std::size_t i = 0; i < candidate.size(); ++i) {
                if (drop[i])
                    continue;
                if (i >= init_len)
                    new_pos[candidate[i].func] =
                        static_cast<std::int64_t>(kept.size());
                kept.push_back(candidate[i]);
            }
            candidate = Schedule(std::move(kept));

            // The condition above ignores that faster execution pulls
            // later first-calls earlier; verify and keep only if the
            // schedule did not get worse.
            // Only a further round reads first-call starts.
            SimFacts tl2;
            tl2.wantFirstCallStarts = round + 1 < cfg.maxSlackRounds;
            SimResult after = simulate(w, candidate, SimOptions{}, tl2);
            if (after.makespan > prev.makespan)
                break;
            cseq = std::move(candidate);
            appended_pos = std::move(new_pos);
            result.slackUpgrades += upgraded.size();
            prev = std::move(after);
            tl = std::move(tl2);
        }
        cseq_sim = std::move(prev);
        cseq_facts = std::move(tl);
    }

    // ---------------------------------------------------------------
    // Step 4 (append more to fill the ending gap): if all compiles
    // finish before the program does, spend the idle compile time on
    // high-level versions of still-unoptimized functions, preferring
    // the ones with the most calls left.
    // ---------------------------------------------------------------
    if (cfg.fillEndingGap) {
        if (!cseq_sim)
            cseq_sim = simulate(w, cseq, SimOptions{}, cseq_facts);
        Tick gap = cseq_sim->execEnd - cseq_sim->compileEnd;
        if (gap > 0) {
            std::vector<Level> scheduled_level(w.numFunctions(), 0);
            for (const CompileEvent &ev : cseq.events())
                scheduled_level[ev.func] =
                    std::max(scheduled_level[ev.func], ev.level);

            struct GapCand
            {
                FuncId func;
                std::uint64_t calls_after;
            };
            std::vector<GapCand> pool;
            for (const FuncId f : w.firstAppearanceOrder()) {
                if (!costs[f].upgradable)
                    continue;
                if (scheduled_level[f] >= cands[f].high)
                    continue;
                const std::uint64_t calls_after =
                    costs[f].n - cseq_facts.callsBeforeCompileEnd[f];
                if (calls_after == 0)
                    continue;
                pool.push_back({f, calls_after});
            }
            std::sort(pool.begin(), pool.end(),
                      [](const GapCand &a, const GapCand &b) {
                          if (a.calls_after != b.calls_after)
                              return a.calls_after > b.calls_after;
                          return a.func < b.func;
                      });
            for (const GapCand &gc : pool) {
                const Tick ch = costs[gc.func].ch;
                if (ch > gap)
                    continue;
                cseq.append(gc.func, cands[gc.func].high);
                gap -= ch;
                ++result.gapAppends;
                cseq_sim.reset();
            }
        }
    }

    // Final guard: Formulas 1 and 2 classify each function in
    // isolation, so a Replace decision can delay another function's
    // first call by more than the upgrade saves.  One simulation
    // against the untouched init schedule turns "never worse than
    // base-only" from an empirical tendency into an invariant.
    result.sim = init_res;
    if (cseq != init_seq) {
        if (!cseq_sim)
            cseq_sim = simulate(w, cseq, SimOptions{});
        if (cseq_sim->makespan > init_res.makespan) {
            cseq = init_seq;
            result.refinementDiscarded = true;
        } else {
            result.sim = std::move(*cseq_sim);
        }
    }

    result.schedule = std::move(cseq);
    JITSCHED_OBS({
        obs::SolverMetrics &m = obs::SolverMetrics::get();
        m.iarRuns.add();
        m.iarSlackUpgrades.add(result.slackUpgrades);
        m.iarGapAppends.add(result.gapAppends);
    });
    return result;
}

IarResult
iarScheduleOracle(const Workload &w, const IarConfig &cfg)
{
    return iarSchedule(w, oracleCandidateLevels(w), cfg);
}

IarBound
iarUpperBound(const Workload &w, const IarConfig &cfg)
{
    IarResult res = iarScheduleOracle(w, cfg);
    IarBound bound;
    bound.schedule = std::move(res.schedule);
    bound.makespan = res.sim.makespan;
    return bound;
}

} // namespace jitsched
