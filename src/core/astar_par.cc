#include "core/astar_par.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "core/iar.hh"
#include "core/prefix_sim.hh"
#include "core/search_util.hh"
#include "exec/mpsc_queue.hh"
#include "obs/instruments.hh"
#include "support/logging.hh"

namespace jitsched {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * A stored search-tree node; paths share prefixes through `parent`.
 * Written once by its owning worker and never changed after, so any
 * worker holding a descendant may read it.  The root is the only
 * node without a parent (and without an event).  A generated node
 * travels to its owner's inbox in the same form.
 */
struct Node
{
    const Node *parent = nullptr;
    CompileEvent event;
    Tick f = 0; ///< b(v) + e(v)
    PrefixSimState state;
};

/** Bytes charged per stored node: the node plus container overhead. */
constexpr std::uint64_t nodeBytes = sizeof(Node) + 16;

/** Priority-queue entry (small, by design: the queue is the hot set). */
struct OpenEntry
{
    Tick f;
    std::int64_t index; ///< into the owning worker's node store

    bool
    operator>(const OpenEntry &other) const
    {
        if (f != other.f)
            return f > other.f;
        // Depth-first among equal-f nodes: newer (deeper) nodes pop
        // first, so complete schedules surface as soon as their
        // total cost matches the current bound.  Optimality is
        // unaffected — only the order among equally-promising nodes.
        return index < other.index;
    }
};

/**
 * Per-function last compiled level of one node, rebuilt from its
 * parent chain.  Walking child -> root, the first event seen per
 * function is its last (highest) level.  Entries are -1 between
 * uses; the undo list clears them in O(depth), not O(#functions).
 */
struct SigScratch
{
    std::vector<LevelSig> sig;
    std::vector<FuncId> touched;

    /** Load the signature of @p n; returns its compiled-function count. */
    std::size_t
    load(const Node *n)
    {
        for (; n->parent != nullptr; n = n->parent) {
            if (sig[n->event.func] < 0) {
                sig[n->event.func] = n->event.level;
                touched.push_back(n->event.func);
            }
        }
        return touched.size();
    }

    void
    clear()
    {
        for (const FuncId f : touched)
            sig[f] = -1;
        touched.clear();
    }
};

/** Per-worker search state; all but the inbox touched by its owner only. */
struct Worker
{
    Worker(std::size_t num_functions, bool dedup)
        : table(dedup ? num_functions : 0)
    {
        scratch.sig.assign(num_functions, LevelSig{-1});
    }

    std::deque<Node> nodes; ///< stable: descendants point into it
    std::priority_queue<OpenEntry, std::vector<OpenEntry>,
                        std::greater<OpenEntry>>
        open;
    DuplicateTable table;
    SigScratch scratch;

    /**
     * Any worker pushes, the owner pops.  Kept on cache lines of its
     * own, away from the counters the owner bumps per child.
     */
    alignas(64) MpscQueue<Node> inbox;

    alignas(64) std::uint64_t expanded = 0;
    std::uint64_t generated = 0;
    std::uint64_t prunedDup = 0;
    std::uint64_t prunedInc = 0;
    std::uint64_t routed = 0;
    std::uint64_t evals = 0;
    std::uint64_t maxInboxDepth = 0;

    std::size_t openHighWater = 0;
    std::uint64_t peakArena = 0;
    std::uint64_t peakOpen = 0;
    std::uint64_t peakTable = 0;
};

/** State shared by every worker. */
struct Shared
{
    const Workload &w;
    const AStarConfig &cfg;
    const PrefixEvaluator evaluator;
    std::size_t numWorkers = 1;
    std::size_t numF = 0;
    bool dedup = false;
    Tick lb = 0;
    Clock::time_point t0;
    std::int64_t deadlineMs = 0; ///< 0 = none

    std::vector<std::unique_ptr<Worker>> workers;

    /**
     * Nodes generated but not yet fully expanded or pruned.  A sender
     * increments for each child *before* delivering it and
     * decrements for the expanded parent only afterwards, so the
     * counter can never transiently hit zero while work exists; once
     * zero it stays zero — quiescence, and the incumbent is optimal.
     */
    std::atomic<std::int64_t> live{0};

    /** Best-known complete cost in f units (maxTick = none yet). */
    std::atomic<Tick> incumbentF{maxTick};

    /** Improvement bookkeeping, off the hot path. */
    std::mutex incMutex;
    const Node *best = nullptr; ///< guarded by incMutex
    std::uint64_t improvements = 0;
    std::vector<AStarResult::IncumbentEvent> trail;

    /** 0 = keep running; otherwise the AStarStop cause. */
    std::atomic<int> stop{0};

    std::atomic<std::uint64_t> expansions{0};

    /** Per-worker accounted bytes (relaxed; budget enforcement). */
    std::vector<std::atomic<std::uint64_t>> memBytes;

    Shared(const Workload &workload, const AStarConfig &config)
        : w(workload), cfg(config), evaluator(workload)
    {
    }
};

void
raiseStop(Shared &sh, AStarStop cause)
{
    int expected = 0;
    sh.stop.compare_exchange_strong(expected,
                                    static_cast<int>(cause),
                                    std::memory_order_relaxed);
}

double
secondsSince(const Clock::time_point &t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Update worker memory peaks; raise the Memory stop on overrun. */
void
account(Shared &sh, Worker &me, std::uint32_t self)
{
    const std::uint64_t arena_mem = me.nodes.size() * nodeBytes;
    me.openHighWater = std::max(me.openHighWater, me.open.size());
    const std::uint64_t open_mem =
        me.openHighWater * sizeof(OpenEntry);
    const std::uint64_t table_mem = sh.dedup ? me.table.bytes() : 0;
    me.peakArena = std::max(me.peakArena, arena_mem);
    me.peakOpen = std::max(me.peakOpen, open_mem);
    me.peakTable = std::max(me.peakTable, table_mem);
    const std::uint64_t mine = arena_mem + open_mem + table_mem;
    sh.memBytes[self].store(mine, std::memory_order_relaxed);

    std::uint64_t total = 0;
    for (const auto &b : sh.memBytes)
        total += b.load(std::memory_order_relaxed);
    if (total > sh.cfg.memoryBudget)
        raiseStop(sh, AStarStop::Memory);
}

/**
 * Store one generated node on its owning worker unless the incumbent
 * or the duplicate table rules it out.  @p sig is the node's
 * signature (its event applied).  The sender has already counted the
 * node in sh.live; pruning releases that count here.
 */
void
deliver(Shared &sh, Worker &me, std::uint32_t self, const Node &n,
        const LevelSig *sig)
{
    if (n.f >= sh.incumbentF.load(std::memory_order_relaxed)) {
        ++me.prunedInc;
        sh.live.fetch_sub(1, std::memory_order_acq_rel);
        return;
    }
    if (sh.dedup && me.table.seen(n.state, sig)) {
        ++me.prunedDup;
        sh.live.fetch_sub(1, std::memory_order_acq_rel);
        return;
    }
    const auto idx = static_cast<std::int64_t>(me.nodes.size());
    me.nodes.push_back(n);
    me.open.push({n.f, idx});
    ++me.generated;
    account(sh, me, self);
}

/** Record a closed leaf that beats the incumbent (raced re-check). */
void
tryImprove(Shared &sh, std::uint32_t self, const Node *complete,
           Tick total)
{
    std::lock_guard<std::mutex> g(sh.incMutex);
    if (total >= sh.incumbentF.load(std::memory_order_relaxed))
        return;
    sh.incumbentF.store(total, std::memory_order_relaxed);
    sh.best = complete;
    ++sh.improvements;
    sh.trail.push_back({secondsSince(sh.t0), sh.lb + total, self});
}

void
expand(Shared &sh, Worker &me, std::uint32_t self, const Node &node)
{
    ++me.expanded;
    const std::uint64_t total_expanded =
        sh.expansions.fetch_add(1, std::memory_order_relaxed) + 1;
    if (sh.cfg.maxExpansions != 0 &&
        total_expanded > sh.cfg.maxExpansions)
        raiseStop(sh, AStarStop::Expansions);

    std::vector<LevelSig> &sig = me.scratch.sig;
    const std::size_t compiled = me.scratch.load(&node);

    // Closing evaluation: leaves are priced inline and never stored
    // — an improvement tightens the global incumbent immediately,
    // which is what makes the search anytime.
    if (compiled == sh.w.numCalledFunctions()) {
        ++me.evals;
        const Tick total = sh.evaluator.complete(node.state, sig.data());
        if (total < sh.incumbentF.load(std::memory_order_relaxed))
            tryImprove(sh, self, &node, total);
        else
            ++me.prunedInc;
    }

    // Children: append any (function, level) with level strictly
    // above the function's last compiled level, in a fixed order.
    const Workload &w = sh.w;
    for (std::size_t i = 0; i < sh.numF; ++i) {
        const auto func = static_cast<FuncId>(i);
        if (w.callCount(func) == 0)
            continue;
        const LevelSig last = sig[i];
        for (int l = last + 1;
             l < static_cast<int>(w.function(func).numLevels()); ++l) {
            const CompileEvent ev{func, static_cast<Level>(l)};
            ++me.evals;
            const PrefixStep step =
                sh.evaluator.append(node.state, sig.data(), ev);
            if (step.f >=
                sh.incumbentF.load(std::memory_order_relaxed)) {
                ++me.prunedInc;
                continue;
            }
            const Node child{&node, ev, step.f, step.state};
            sig[i] = static_cast<LevelSig>(l);
            std::uint32_t owner = self;
            if (sh.numWorkers > 1)
                owner = static_cast<std::uint32_t>(
                    DuplicateTable::stateHash(step.state, sig.data(),
                                              sh.numF) %
                    sh.numWorkers);

            // Count the child live BEFORE delivering it (and before
            // this parent's own decrement) — the termination
            // counter's core invariant.
            sh.live.fetch_add(1, std::memory_order_acq_rel);
            if (owner == self) {
                deliver(sh, me, self, child, sig.data());
            } else {
                MpscQueue<Node> &inbox = sh.workers[owner]->inbox;
                inbox.push(child);
                ++me.routed;
                me.maxInboxDepth = std::max<std::uint64_t>(
                    me.maxInboxDepth, inbox.depth());
            }
            sig[i] = last;
        }
    }
    me.scratch.clear();

    // The expanded node is no longer live; its children are.
    sh.live.fetch_sub(1, std::memory_order_acq_rel);
}

void
workerMain(Shared &sh, std::uint32_t self)
{
    Worker &me = *sh.workers[self];
    Node msg;

    const Clock::time_point deadline =
        sh.t0 + std::chrono::milliseconds(sh.deadlineMs);

    for (;;) {
        // Drain the inbox first so the open list always reflects
        // every delivered node before the next best-first pop.
        while (me.inbox.pop(msg)) {
            me.scratch.load(&msg);
            deliver(sh, me, self, msg, me.scratch.sig.data());
            me.scratch.clear();
        }

        if (sh.stop.load(std::memory_order_relaxed) != 0)
            return;
        if (sh.deadlineMs > 0 && Clock::now() >= deadline) {
            raiseStop(sh, AStarStop::Deadline);
            return;
        }

        if (me.open.empty()) {
            // Quiescent?  live == 0 can only be read after every
            // in-flight child was delivered and pruned/expanded, so
            // a zero here is global and final.
            if (sh.live.load(std::memory_order_acquire) == 0)
                return;
            std::this_thread::yield();
            continue;
        }

        // The whole open list is dominated by the incumbent: the
        // top is the minimum, so every entry has f >= incumbent and
        // none can lead to an improvement.  Drop them all — this is
        // how a search quiesces once its optimum is in hand.
        const Tick inc =
            sh.incumbentF.load(std::memory_order_relaxed);
        if (me.open.top().f >= inc) {
            const auto dropped =
                static_cast<std::int64_t>(me.open.size());
            me.prunedInc += static_cast<std::uint64_t>(dropped);
            me.open = {};
            sh.live.fetch_sub(dropped, std::memory_order_acq_rel);
            continue;
        }

        const std::int64_t idx = me.open.top().index;
        me.open.pop();
        expand(sh, me, self, me.nodes[static_cast<std::size_t>(idx)]);
    }
}

/**
 * The engine behind both entry points.
 *
 * @param seeded     start from the IAR incumbent; a budget trip then
 *                   returns Incumbent instead of a refusal
 * @param deadline_ms anytime deadline (0 = none)
 */
AStarResult
search(const Workload &w, const AStarConfig &cfg,
       std::size_t num_workers, bool seeded, std::int64_t deadline_ms)
{
    if (w.numCalls() == 0)
        JITSCHED_FATAL("A* search: empty call sequence");

    Shared sh(w, cfg);
    sh.numWorkers = num_workers;
    sh.numF = w.numFunctions();
    sh.dedup = cfg.duplicateDetection &&
               sh.numF <= cfg.duplicateMaxFunctions;
    sh.deadlineMs = deadline_ms;
    sh.t0 = Clock::now();

    const std::vector<Tick> &best_exec = sh.evaluator.bestExec();
    for (const FuncId f : w.calls())
        sh.lb += best_exec[f];

    AStarResult res;
    res.bytesPerNode = nodeBytes;

    // Incumbent seed: the IAR schedule priced through the search's
    // own cost model, so f units match exactly.
    Schedule seed_schedule;
    if (seeded) {
        IarBound seed = iarUpperBound(w);
        const Tick seed_f =
            evalComplete(w, seed.schedule.events(), best_exec);
        seed_schedule = std::move(seed.schedule);
        sh.incumbentF.store(seed_f, std::memory_order_relaxed);
        sh.trail.push_back({0.0, sh.lb + seed_f, 0});
        res.evaluations = 1;
    }

    sh.workers.reserve(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i)
        sh.workers.push_back(std::make_unique<Worker>(sh.numF, sh.dedup));
    sh.memBytes =
        std::vector<std::atomic<std::uint64_t>>(num_workers);

    // Root (empty prefix, f = 0) on worker 0.
    {
        Worker &w0 = *sh.workers[0];
        w0.nodes.push_back(Node{nullptr, CompileEvent{}, 0,
                                sh.evaluator.rootState()});
        w0.open.push({0, 0});
        w0.generated = 1;
        account(sh, w0, 0);
    }
    sh.live.store(1, std::memory_order_relaxed);

    // Worker 0 runs on the calling thread.
    {
        std::vector<std::thread> threads;
        threads.reserve(num_workers - 1);
        for (std::size_t i = 1; i < num_workers; ++i)
            threads.emplace_back(workerMain, std::ref(sh),
                                 static_cast<std::uint32_t>(i));
        workerMain(sh, 0);
        for (std::thread &t : threads)
            t.join();
    }

    // ---- Single-threaded epilogue (joins synchronize all state).

    const Tick incumbent_f =
        sh.incumbentF.load(std::memory_order_relaxed);
    const auto stop_cause =
        static_cast<AStarStop>(sh.stop.load(std::memory_order_relaxed));

    if (stop_cause == AStarStop::None) {
        // Quiescence: nothing alive can beat the incumbent, so it is
        // optimal.  An unseeded search always closes a leaf first.
        if (incumbent_f == maxTick)
            JITSCHED_PANIC("A* open list exhausted without a goal");
        res.status = AStarStatus::Optimal;
    } else if (seeded) {
        // Remaining frontier: open lists plus undelivered messages.
        // Every unexplored complete schedule sits below one of these
        // nodes (or below an incumbent-pruned node, bounded by the
        // incumbent itself), so min-alive f bounds the optimum from
        // below.
        Tick min_alive = incumbent_f;
        for (const auto &wk : sh.workers) {
            if (!wk->open.empty())
                min_alive = std::min(min_alive, wk->open.top().f);
            Node msg;
            while (wk->inbox.pop(msg))
                min_alive = std::min(min_alive, msg.f);
        }
        res.status = AStarStatus::Incumbent;
        res.stopCause = stop_cause;
        res.gapBound = incumbent_f - min_alive;
    } else {
        res.status = stop_cause == AStarStop::Memory
                         ? AStarStatus::OutOfMemory
                         : AStarStatus::ExpansionCap;
    }

    if (res.status == AStarStatus::Optimal ||
        res.status == AStarStatus::Incumbent) {
        res.makespan = sh.lb + incumbent_f;
        if (sh.best == nullptr) {
            // No leaf beat the seed: the IAR schedule is the answer.
            res.schedule = std::move(seed_schedule);
        } else {
            std::vector<CompileEvent> events;
            for (const Node *n = sh.best; n->parent != nullptr;
                 n = n->parent)
                events.push_back(n->event);
            std::reverse(events.begin(), events.end());
            res.schedule = Schedule(std::move(events));
        }
    }

    res.incumbentImprovements = sh.improvements;
    res.incumbentTrail = std::move(sh.trail);
    res.workerExpansions.resize(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i) {
        const Worker &wk = *sh.workers[i];
        res.workerExpansions[i] = wk.expanded;
        res.nodesExpanded += wk.expanded;
        res.nodesGenerated += wk.generated;
        res.nodesPruned += wk.prunedDup;
        res.nodesPrunedIncumbent += wk.prunedInc;
        res.nodesRouted += wk.routed;
        res.evaluations += wk.evals;
        res.maxInboxDepth =
            std::max(res.maxInboxDepth, wk.maxInboxDepth);
        res.peakArenaBytes += wk.peakArena;
        res.peakOpenBytes += wk.peakOpen;
        res.peakTableBytes += wk.peakTable;
    }
    // Sum of per-worker peaks: a (slight) over-estimate of the true
    // simultaneous high-water mark, consistent with what the budget
    // check enforces.  Exact with one worker.
    res.peakMemory =
        res.peakArenaBytes + res.peakOpenBytes + res.peakTableBytes;

#ifndef JITSCHED_OBS_DISABLED
    {
        obs::SolverMetrics &m = obs::SolverMetrics::get();
        m.astarSearches.add();
        m.astarNodesExpanded.add(res.nodesExpanded);
        m.astarNodesGenerated.add(res.nodesGenerated);
        m.astarNodesPruned.add(res.nodesPruned);
        m.astarNodesPrunedIncumbent.add(res.nodesPrunedIncumbent);
        m.astarNodesRouted.add(res.nodesRouted);
        m.astarIncumbentImprovements.add(res.incumbentImprovements);
        m.astarEvaluations.add(res.evaluations);
        m.astarPeakMemoryBytes.setMax(
            static_cast<std::int64_t>(res.peakMemory));
        m.astarPeakArenaBytes.setMax(
            static_cast<std::int64_t>(res.peakArenaBytes));
        m.astarMaxInboxDepth.setMax(
            static_cast<std::int64_t>(res.maxInboxDepth));
        m.astarWorkers.set(static_cast<std::int64_t>(num_workers));
    }
#endif

    return res;
}

} // anonymous namespace

AStarResult
aStarOptimal(const Workload &w, const AStarConfig &cfg)
{
    return search(w, cfg, 1, cfg.incumbentPruning, 0);
}

AStarResult
aStarParallel(const Workload &w, const AStarConfig &cfg)
{
    std::size_t num_workers = cfg.threads;
    if (num_workers == 0)
        num_workers =
            std::max<std::size_t>(1, std::thread::hardware_concurrency());
    return search(w, cfg, num_workers, true, cfg.anytimeDeadlineMs);
}

} // namespace jitsched
