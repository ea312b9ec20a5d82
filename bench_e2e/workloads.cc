#include "workloads.hh"

#include <cmath>

#include "service/protocol.hh"
#include "support/rng.hh"
#include "trace/dacapo.hh"
#include "trace/synthetic.hh"

namespace jitsched {
namespace e2e {

namespace {

// Rng::caseStream() index bases, one per independent draw family, so
// that adding instances to one family never shifts another's draws.
constexpr std::uint64_t kDacapoCases = 1ull << 40;
constexpr std::uint64_t kAstarCases = 2ull << 40;
constexpr std::uint64_t kHotCases = 3ull << 40;
constexpr std::uint64_t kFreshCases = 4ull << 40;
constexpr std::uint64_t kOrderCase = 5ull << 40;

// The fixed instance pool every seed draws its stream from.  The
// quality metrics and the A* counters are compared exactly between
// commits, so the instances they average over must not move with the
// seed.  It also steadies the timings: exact-search cost is
// heavy-tailed (p99 ~20x p50), and with a seeded A* pool the slowest 1%
// of each draw moved the p99, mean and peak memory by 40% from seed to
// seed.
constexpr std::uint64_t kPoolSeed = 20140301;

/** Append a frame for trace @p trace; returns its index. */
std::size_t
addFrame(Plan &plan, std::size_t trace, const std::string &policy,
         const ServiceOptions &options)
{
    ServiceRequest req;
    req.id = plan.frames.size() + 1;
    req.policy = policy;
    req.options = options;
    req.workload = plan.traces[trace];
    Frame f;
    f.trace = trace;
    f.policy = policy;
    f.id = req.id;
    f.text = requestText(req);
    plan.frames.push_back(std::move(f));
    return plan.frames.size() - 1;
}

std::size_t
addTrace(Plan &plan, Workload w)
{
    plan.traces.push_back(std::move(w));
    return plan.traces.size() - 1;
}

std::vector<std::size_t>
allFrames(const Plan &plan)
{
    std::vector<std::size_t> out(plan.frames.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = i;
    return out;
}

/** Deal a seeded shuffle of @p frames round-robin over the loop. */
void
dealCycle(Plan &plan, std::vector<std::size_t> frames, std::uint64_t seed)
{
    Rng rng = Rng::caseStream(seed, kOrderCase);
    rng.shuffle(frames);
    plan.cycle.assign(plan.connections, {});
    for (std::size_t i = 0; i < frames.size(); ++i)
        plan.cycle[i % plan.connections].push_back(frames[i]);
}

void
planFig5(Plan &plan, std::uint64_t seed, bool smoke)
{
    // The paper's Fig. 5: IAR against the deployed Jikes scheme under
    // the default (estimating) cost-benefit model.
    const std::size_t scale = smoke ? 4096 : 256;
    const std::size_t draws = smoke ? 1 : 16;
    ServiceOptions opts;
    opts.model = ModelKind::Default;
    std::uint64_t c = kDacapoCases;
    for (const DacapoSpec &spec : dacapoSpecs()) {
        for (std::size_t k = 0; k < draws; ++k) {
            SyntheticConfig cfg = dacapoConfig(spec, scale);
            // Another run of the same program: profiles fixed, call
            // interleaving redrawn (0 would mean "derive from seed").
            cfg.sequenceSeed = Rng::caseStream(kPoolSeed, c++).next() | 1;
            const std::size_t t = addTrace(plan, generateSynthetic(cfg));
            addFrame(plan, t, "iar", opts);
            addFrame(plan, t, "jikes", opts);
            plan.qualityTraces.push_back(t);
        }
    }
    plan.connections = 2;
    dealCycle(plan, allFrames(plan), seed);
    plan.warmup = allFrames(plan);
    plan.required = allFrames(plan);
    plan.replay = allFrames(plan);
}

void
planAstar(Plan &plan, std::uint64_t seed, bool smoke)
{
    // Six functions on two levels keep every instance inside the
    // astar policy's default expansion and memory budgets; three
    // levels at six or seven functions trip them on 3-20% of draws.
    const std::size_t instances = smoke ? 16 : 1024;
    ServiceOptions seq;
    ServiceOptions par;
    par.astarThreads = 2;
    std::vector<std::size_t> timed;
    std::vector<std::size_t> untimed;
    for (std::size_t i = 0; i < instances; ++i) {
        SyntheticConfig cfg;
        cfg.name = "astar-" + std::to_string(i);
        cfg.numFunctions = 6;
        cfg.numCalls = 40;
        cfg.numLevels = 2;
        cfg.numPhases = 2;
        cfg.seed = Rng::caseStream(kPoolSeed, kAstarCases + i).next();
        const std::size_t t = addTrace(plan, generateSynthetic(cfg));
        timed.push_back(addFrame(plan, t, "astar", seq));
        timed.push_back(addFrame(plan, t, "astar-par", par));
        // Sent once after the window, untimed: the IAR bound astar is
        // verified against, and the default scheme potential_speedup
        // divides by.
        untimed.push_back(addFrame(plan, t, "iar", seq));
        untimed.push_back(addFrame(plan, t, "jikes", seq));
        plan.qualityTraces.push_back(t);
    }
    plan.qualityPolicy = "astar";
    plan.connections = 1;
    dealCycle(plan, timed, seed);
    // The same 32 instances warm every seed's daemon, so set-up time
    // does not depend on which instances a seed happens to put first.
    const std::size_t warm = std::min<std::size_t>(64, timed.size());
    plan.warmup.assign(timed.begin(),
                       timed.begin() + static_cast<std::ptrdiff_t>(warm));
    plan.required = allFrames(plan);
    plan.replay = timed;
}

Workload
hotTrace(const std::string &name, std::uint64_t seed)
{
    SyntheticConfig cfg;
    cfg.name = name;
    cfg.numFunctions = 60;
    cfg.numCalls = 1500;
    cfg.seed = seed;
    return generateSynthetic(cfg);
}

void
planHot(Plan &plan, std::uint64_t seed, double seconds, bool smoke,
        bool cache)
{
    static const char *const kPolicies[] = {"iar", "lower-bound",
                                            "base-only", "jikes"};
    const std::size_t hot_traces = smoke ? 8 : 64;
    const double rate = smoke ? 200.0 : 1500.0;
    const double fresh_share = 0.05;
    const ServiceOptions opts;

    std::vector<std::size_t> hot;
    for (std::size_t i = 0; i < hot_traces; ++i) {
        const std::size_t t = addTrace(
            plan, hotTrace("hot-" + std::to_string(i),
                           Rng::caseStream(kPoolSeed, kHotCases + i).next()));
        for (const char *p : kPolicies)
            hot.push_back(addFrame(plan, t, p, opts));
        plan.qualityTraces.push_back(t);
    }
    plan.warmup = hot;
    plan.required = hot;
    plan.replay = hot;

    // Zipf rank -> frame: a seeded permutation, so which policy is
    // hottest changes with the seed.
    std::vector<std::size_t> by_rank = hot;
    Rng order = Rng::caseStream(seed, kOrderCase);
    order.shuffle(by_rank);
    const ZipfSampler zipf(by_rank.size(), 0.9);

    plan.connections = 4;
    plan.arrivals.assign(plan.connections, {});
    Rng rng = Rng::caseStream(seed, kOrderCase + 1);
    double t = 0.0;
    std::uint64_t fresh = 0;
    for (;;) {
        t += -std::log(1.0 - rng.nextDouble()) / rate;
        if (t >= seconds)
            break;
        Arrival a;
        a.dueNs = static_cast<std::int64_t>(t * 1e9);
        const std::size_t conn = rng.nextBelow(plan.connections);
        if (rng.nextDouble() < fresh_share) {
            // A frame never seen before: a miss, then an insert.
            const std::size_t tr = addTrace(
                plan,
                hotTrace("fresh-" + std::to_string(fresh),
                         Rng::caseStream(seed, kFreshCases + fresh)
                             .next()));
            ++fresh;
            a.frame =
                addFrame(plan, tr, kPolicies[rng.nextBelow(4)], opts);
        } else {
            a.frame = by_rank[zipf.sample(rng)];
        }
        plan.arrivals[conn].push_back(a);
    }
    if (cache)
        plan.daemonArgs = {"--result-cache-mb", "64"};
    else
        plan.daemonArgs = {"--result-cache-mb", "0"};
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig5-dacapo", "astar-exact", "hot-cache", "hot-nocache"};
    return names;
}

bool
makePlan(const std::string &workload, std::uint64_t seed,
         double seconds, bool smoke, Plan *plan, std::string *error)
{
    *plan = Plan{};
    plan->workload = workload;
    // Pin the result cache off where the workload wants daemon
    // defaults, so an exported JITSCHED_RESULT_CACHE_MB cannot leak
    // into the measurement.
    plan->daemonArgs = {"--result-cache-mb", "0"};
    if (workload == "fig5-dacapo") {
        planFig5(*plan, seed, smoke);
    } else if (workload == "astar-exact") {
        planAstar(*plan, seed, smoke);
    } else if (workload == "hot-cache") {
        planHot(*plan, seed, seconds, smoke, true);
    } else if (workload == "hot-nocache") {
        planHot(*plan, seed, seconds, smoke, false);
    } else {
        *error = "unknown workload '" + workload + "'";
        return false;
    }
    return true;
}

} // namespace e2e
} // namespace jitsched
