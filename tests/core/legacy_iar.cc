#include "legacy_iar.hh"

#include <algorithm>
#include <limits>
#include <memory>

#include "sim/makespan.hh"
#include "support/logging.hh"

namespace jitsched {
namespace legacy {

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

/**
 * Observer collecting the per-function timeline facts the IAR steps
 * need: first-call start times, and call counts before / at-or-after
 * the end of the compile sequence.  The simulator reports every
 * compilation before the first call, so the threshold (the compile
 * end) can be frozen lazily at the first onCall — one simulation
 * pass suffices.
 */
class PerCallObserver : public SimObserver
{
  public:
    PerCallObserver(std::size_t num_funcs, std::size_t num_events)
    {
        first_call_start.assign(num_funcs, maxTick);
        calls_before.assign(num_funcs, 0);
        calls_after.assign(num_funcs, 0);
        event_completion.assign(num_events, 0);
    }

    void
    onCompiled(std::size_t event_index, const CompileEvent &,
               Tick completion) override
    {
        event_completion[event_index] = completion;
        threshold_ = std::max(threshold_, completion);
    }

    void
    onCall(std::size_t, FuncId f, Tick start, Tick, Level) override
    {
        if (first_call_start[f] == maxTick)
            first_call_start[f] = start;
        if (start < threshold_)
            ++calls_before[f];
        else
            ++calls_after[f];
    }

    std::vector<Tick> first_call_start;
    std::vector<std::uint64_t> calls_before;
    std::vector<std::uint64_t> calls_after;
    std::vector<Tick> event_completion;

  private:
    Tick threshold_ = 0;
};

/** Run the simulator once, collecting the IAR timeline facts. */
SimResult
timeSchedule(const Workload &w, const Schedule &s,
             PerCallObserver *&observer_out,
             std::vector<std::unique_ptr<PerCallObserver>> &storage)
{
    storage.push_back(std::make_unique<PerCallObserver>(
        w.numFunctions(), s.size()));
    PerCallObserver &obs = *storage.back();
    const SimResult res = simulate(w, s, SimOptions{}, obs);
    observer_out = &obs;
    return res;
}

} // anonymous namespace

IarOutcome
iarSchedule(const Workload &w, const std::vector<CandidatePair> &cands,
            const IarConfig &cfg)
{
    if (cands.size() != w.numFunctions())
        JITSCHED_PANIC("iarSchedule: candidate table has ",
                       cands.size(), " functions, workload has ",
                       w.numFunctions());

    IarOutcome result;
    const std::vector<FuncCosts> costs = gatherCosts(w, cands);
    std::vector<std::unique_ptr<PerCallObserver>> observers;

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
    PerCallObserver *t0 = nullptr;
    const SimResult init_res = timeSchedule(w, cseq, t0, observers);

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
        const double n1 = static_cast<double>(t0->calls_before[f]);
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
    if (cfg.fillSlack) {
        SimResult prev;
        PerCallObserver *tl = nullptr;
        prev = timeSchedule(w, cseq, tl, observers);

        for (std::size_t round = 0; round < cfg.maxSlackRounds;
             ++round) {
            // suffix_min[k] = min over initial-segment events j >= k
            // of (first call start of func_j - compile completion_j):
            // the tightest slack a delay inserted at position k eats.
            std::vector<Tick> suffix_min(init_len + 1, maxTick);
            for (std::size_t j = init_len; j-- > 0;) {
                const FuncId f = cseq[j].func;
                const Tick first_start = tl->first_call_start[f];
                Tick slack = maxTick;
                if (first_start != maxTick)
                    slack = first_start - tl->event_completion[j];
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
            PerCallObserver *tl2 = nullptr;
            const SimResult after =
                timeSchedule(w, candidate, tl2, observers);
            if (after.makespan > prev.makespan)
                break;
            cseq = std::move(candidate);
            appended_pos = std::move(new_pos);
            result.slackUpgrades += upgraded.size();
            prev = after;
            tl = tl2;
        }
    }

    // ---------------------------------------------------------------
    // Step 4 (append more to fill the ending gap): if all compiles
    // finish before the program does, spend the idle compile time on
    // high-level versions of still-unoptimized functions, preferring
    // the ones with the most calls left.
    // ---------------------------------------------------------------
    if (cfg.fillEndingGap) {
        PerCallObserver *tl = nullptr;
        const SimResult res = timeSchedule(w, cseq, tl, observers);
        Tick gap = res.execEnd - res.compileEnd;
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
                if (tl->calls_after[f] == 0)
                    continue;
                pool.push_back({f, tl->calls_after[f]});
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
            }
        }
    }

    // Final guard: Formulas 1 and 2 classify each function in
    // isolation, so a Replace decision can delay another function's
    // first call by more than the upgrade saves.  One simulation
    // against the untouched init schedule turns "never worse than
    // base-only" from an empirical tendency into an invariant.
    if (cseq != init_seq) {
        const SimResult final_res = simulate(w, cseq, SimOptions{});
        if (final_res.makespan > init_res.makespan) {
            cseq = init_seq;
            result.refinementDiscarded = true;
        }
    }

    result.schedule = std::move(cseq);
    return result;
}

} // namespace legacy
} // namespace jitsched
