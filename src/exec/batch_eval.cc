#include "exec/batch_eval.hh"

#include <chrono>
#include <unordered_map>

#include "obs/instruments.hh"
#include "support/logging.hh"

namespace {

/** Time one simulate() into the batch histogram (volatile metric —
 * never feeds results, so determinism is untouched). */
jitsched::SimResult
timedSimulate(const jitsched::Workload &w,
              const jitsched::Schedule &s,
              const jitsched::SimOptions &opts)
{
#ifndef JITSCHED_OBS_DISABLED
    // Branch on the runtime switch before touching the clock so a
    // disabled registry costs one relaxed load, not two syscalls.
    if (jitsched::obs::MetricsRegistry::enabled()) {
        const auto t0 = std::chrono::steady_clock::now();
        jitsched::SimResult result = jitsched::simulate(w, s, opts);
        jitsched::obs::ExecMetrics::get().batchSimNs.observe(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        return result;
    }
#endif
    return jitsched::simulate(w, s, opts);
}

} // anonymous namespace

namespace jitsched {

std::vector<SimResult>
BatchEvaluator::evaluate(const std::vector<EvalJob> &jobs)
{
    std::vector<SimResult> results(jobs.size());
    if (jobs.empty())
        return results;
    JITSCHED_OBS(obs::ExecMetrics::get().batchJobs.add(jobs.size()));

    // Phase 1 (sequential, job order): fingerprint every job, probe
    // the cache, and deduplicate within the batch.  `compute` holds
    // the indices that actually need a simulate(); `alias[i]` points
    // a duplicate job at the batch index that computes its result.
    // Workload fingerprints are memoized per object within the call —
    // batches typically reference a handful of workloads many times.
    std::vector<EvalKey> keys(jobs.size());
    std::vector<std::size_t> compute;
    std::vector<std::int64_t> alias(jobs.size(), -1);
    std::unordered_map<const Workload *, std::uint64_t> wl_fp;
    struct KeyHash
    {
        std::size_t
        operator()(const EvalKey &k) const
        {
            return static_cast<std::size_t>(
                k.workload ^ (k.schedule * 0x9e3779b97f4a7c15ull) ^
                (k.options << 1));
        }
    };
    std::unordered_map<EvalKey, std::size_t, KeyHash> first_index;

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const EvalJob &job = jobs[i];
        if (job.workload == nullptr)
            JITSCHED_PANIC("BatchEvaluator: job ", i,
                           " has no workload");
        auto fp = wl_fp.find(job.workload);
        if (fp == wl_fp.end())
            fp = wl_fp.emplace(job.workload,
                               hashWorkload(*job.workload))
                     .first;
        keys[i] = EvalKey{fp->second, hashSchedule(job.schedule),
                          hashSimOptions(job.opts)};

        if (cache_ != nullptr) {
            if (const auto cached = cache_->lookup(keys[i])) {
                results[i] = *cached;
                continue;
            }
        }
        const auto [it, fresh] = first_index.emplace(keys[i], i);
        if (fresh)
            compute.push_back(i);
        else
            alias[i] = static_cast<std::int64_t>(it->second);
    }

    // Phase 2 (parallel): run the outstanding simulations as one
    // bulk submission.  Each task writes only its own slot, so
    // results are independent of the pool's concurrency.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(compute.size());
    for (const std::size_t i : compute) {
        tasks.push_back([&results, &jobs, i] {
            const EvalJob &job = jobs[i];
            results[i] =
                timedSimulate(*job.workload, job.schedule, job.opts);
        });
    }
    pool_.submitBatch(tasks);

    // Phase 3 (sequential, job order): publish fresh results to the
    // cache and fill in the intra-batch duplicates.
    if (cache_ != nullptr) {
        for (const std::size_t i : compute)
            cache_->insert(keys[i], results[i]);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (alias[i] >= 0)
            results[i] = results[static_cast<std::size_t>(alias[i])];
    }
    return results;
}

SimResult
BatchEvaluator::evaluateOne(const Workload &w, const Schedule &s,
                            const SimOptions &opts)
{
    JITSCHED_OBS(obs::ExecMetrics::get().batchJobs.add());
    if (cache_ != nullptr) {
        const EvalKey key = makeEvalKey(w, s, opts);
        if (const auto cached = cache_->lookup(key))
            return *cached;
        const SimResult result = timedSimulate(w, s, opts);
        cache_->insert(key, result);
        return result;
    }
    return timedSimulate(w, s, opts);
}

BatchEvaluator &
BatchEvaluator::global()
{
    static EvalCache cache;
    static BatchEvaluator evaluator(ThreadPool::global(), &cache);
    return evaluator;
}

} // namespace jitsched
