#include "sim/makespan.hh"

#include <algorithm>
#include <cmath>

#include "sim/compile_queue.hh"
#include "support/logging.hh"

namespace jitsched {

namespace {

/** One compiled version of a function, ready at `completion`. */
struct Version
{
    Tick completion;
    Tick exec; ///< per-call execution time of this version's level
    Level level;
};

/**
 * One function's group in the flat version table.  Versions sit in
 * schedule order, which per function is both completion order and
 * level order (levels strictly increase per function).
 */
struct FuncSlot
{
    /**
     * Version the previous call used; only moves forward because
     * call start times are non-decreasing.
     */
    std::uint32_t cur = 0;
    std::uint32_t end = 0;    ///< one past the function's last version
    std::uint64_t walked = 0; ///< calls the per-call loop executed
};

/** SplitMix64 finalizer, used to hash per-call jitter draws. */
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Deterministic mean-one log-normal factor for one call: hash the
 * (seed, call index) pair into two uniforms, Box-Muller them into a
 * Gaussian, and exponentiate with the -sigma^2/2 mean correction.
 */
double
jitterFactor(std::uint64_t seed, std::uint64_t call_index,
             double sigma)
{
    const std::uint64_t x =
        seed ^ (call_index * 0x9e3779b97f4a7c15ull +
                0xd1b54a32d192ed03ull);
    const std::uint64_t a = mix64(x);
    const std::uint64_t b = mix64(x + 0x9e3779b97f4a7c15ull);
    const double u1 =
        (static_cast<double>(a >> 11) + 1.0) * 0x1.0p-53; // (0,1]
    const double u2 = static_cast<double>(b >> 11) * 0x1.0p-53;
    const double g =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    return std::exp(sigma * g - 0.5 * sigma * sigma);
}

SimResult
run(const Workload &w, const Schedule &s, const SimOptions &opts,
    SimObserver *observer, SimFacts *facts)
{
    std::string err;
    if (!s.validate(w, &err))
        JITSCHED_PANIC("simulate: invalid schedule for '", w.name(),
                       "': ", err);

    SimResult res;
    res.callsAtLevel.assign(w.maxLevels(), 0);

    // --- Compilation side: schedule events in order on the cores.
    //
    // Versions go into one flat table grouped per function; a
    // counting pass over the events sizes the groups.
    const auto &events = s.events();
    const std::size_t num_funcs = w.numFunctions();
    std::vector<FuncSlot> slots(num_funcs);
    for (const CompileEvent &ev : events)
        ++slots[ev.func].end;
    std::uint32_t offset = 0;
    for (FuncSlot &slot : slots) {
        const std::uint32_t count = slot.end;
        slot.cur = slot.end = offset;
        offset += count;
    }
    std::vector<Version> versions(events.size());
    if (facts != nullptr)
        facts->eventCompletion.resize(events.size());
    CompileQueue queue(opts.compileCores);
    for (std::size_t i = 0; i < events.size(); ++i) {
        const CompileEvent &ev = events[i];
        const FunctionProfile &prof = w.function(ev.func);
        const Tick done = queue.submit(0, prof.compileTime(ev.level));
        versions[slots[ev.func].end++] = {done, prof.execTime(ev.level),
                                          ev.level};
        if (observer != nullptr)
            observer->onCompiled(i, ev, done);
        if (facts != nullptr)
            facts->eventCompletion[i] = done;
    }
    res.compileEnd = queue.allDone();
    res.totalCompile = queue.busyTime();

    // --- Execution side: one thread, calls in order.
    //
    // Without an observer or jitter the walk stops once the clock
    // reaches the compile end; the tail is folded below.
    const bool fold = observer == nullptr && opts.execJitterSigma == 0.0;
    const Tick fold_at = fold ? res.compileEnd : maxTick;
    if (facts != nullptr) {
        facts->callsBeforeCompileEnd.assign(num_funcs, 0);
        facts->firstCallStart.clear();
        if (facts->wantFirstCallStarts)
            facts->firstCallStart.assign(num_funcs, maxTick);
    }
    Tick now = 0;
    const auto &calls = w.calls();
    std::size_t i = 0;
    for (; i < calls.size() && now < fold_at; ++i) {
        const FuncId f = calls[i];
        FuncSlot &slot = slots[f];
        // A call waits for its function's first version.  Once the
        // cursor has moved past it, the version in use completed at
        // or before an earlier call's start, so max() leaves `now`.
        std::uint32_t v = slot.cur;
        const Tick start = std::max(now, versions[v].completion);
        if (start > now) {
            res.totalBubble += start - now;
            ++res.bubbleCount;
        }

        // Latest compilation completed at or before `start` wins.
        while (v + 1 < slot.end && versions[v + 1].completion <= start)
            ++v;
        slot.cur = v;

        const Level level = versions[v].level;
        Tick dur = versions[v].exec;
        if (opts.execJitterSigma > 0.0) {
            const double jittered =
                static_cast<double>(dur) *
                jitterFactor(opts.jitterSeed, i,
                             opts.execJitterSigma);
            dur = std::max<Tick>(
                1, static_cast<Tick>(std::llround(jittered)));
        }
        if (observer != nullptr)
            observer->onCall(i, f, start, dur, level);
        if (facts != nullptr) {
            if (start < res.compileEnd)
                ++facts->callsBeforeCompileEnd[f];
            if (facts->wantFirstCallStarts && slot.walked == 0)
                facts->firstCallStart[f] = start;
        }
        ++slot.walked;
        now = start + dur;
        res.totalExec += dur;
        ++res.callsAtLevel[level];
    }

    if (i < calls.size()) {
        // The compile cores are idle from here on: every remaining
        // call starts without a bubble and runs its function's last
        // version.  Time the first calls still missing with a light
        // walk, then fold the tail per function.
        if (facts != nullptr && facts->wantFirstCallStarts) {
            const std::size_t last_first = static_cast<std::size_t>(
                w.firstCallIndex(w.firstAppearanceOrder().back()));
            Tick t = now;
            for (std::size_t j = i; j <= last_first; ++j) {
                const FuncId f = calls[j];
                if (facts->firstCallStart[f] == maxTick)
                    facts->firstCallStart[f] = t;
                t += versions[slots[f].end - 1].exec;
            }
        }
        for (std::size_t f = 0; f < num_funcs; ++f) {
            const FuncSlot &slot = slots[f];
            const std::uint64_t left =
                w.callCount(static_cast<FuncId>(f)) - slot.walked;
            if (left == 0)
                continue;
            const Version &last = versions[slot.end - 1];
            const Tick exec = static_cast<Tick>(left) * last.exec;
            now += exec;
            res.totalExec += exec;
            res.callsAtLevel[last.level] += left;
        }
    }

    res.execEnd = now;
    res.makespan = res.execEnd;
    return res;
}

} // anonymous namespace

SimResult
simulate(const Workload &w, const Schedule &s, const SimOptions &opts)
{
    return run(w, s, opts, nullptr, nullptr);
}

SimResult
simulate(const Workload &w, const Schedule &s, const SimOptions &opts,
         SimObserver &observer)
{
    return run(w, s, opts, &observer, nullptr);
}

SimResult
simulate(const Workload &w, const Schedule &s, const SimOptions &opts,
         SimFacts &facts)
{
    return run(w, s, opts, nullptr, &facts);
}

} // namespace jitsched
