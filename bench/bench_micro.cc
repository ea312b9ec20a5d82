/**
 * @file
 * google-benchmark microbenchmarks of the building blocks: the
 * make-span simulator, the IAR scheduler (its O(N + M log M) claim),
 * the online adaptive runtime, the compile queue, the Zipf sampler,
 * the n-gram predictor, and the wire protocol's request reader and
 * workload writer (reported in bytes/s).
 */

#include <benchmark/benchmark.h>

#include "core/iar.hh"
#include "predictor/ngram.hh"
#include "service/protocol.hh"
#include "sim/compile_queue.hh"
#include "sim/makespan.hh"
#include "trace/dacapo.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "vm/adaptive_runtime.hh"
#include "vm/cost_benefit.hh"

namespace jitsched {
namespace {

Workload
workloadOfSize(std::size_t calls)
{
    SyntheticConfig cfg;
    cfg.numFunctions = std::max<std::size_t>(64, calls / 100);
    cfg.numCalls = calls;
    cfg.seed = 5;
    cfg.targetLevel0ExecTime =
        static_cast<Tick>(calls) * 800; // ~0.8 us per call
    return generateSynthetic(cfg);
}

void
BM_Simulate(benchmark::State &state)
{
    const Workload w =
        workloadOfSize(static_cast<std::size_t>(state.range(0)));
    const Schedule s = iarScheduleOracle(w).schedule;
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulate(w, s).makespan);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_Simulate)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void
BM_IarSchedule(benchmark::State &state)
{
    const Workload w =
        workloadOfSize(static_cast<std::size_t>(state.range(0)));
    const auto cands = oracleCandidateLevels(w);
    for (auto _ : state) {
        benchmark::DoNotOptimize(iarSchedule(w, cands).schedule);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_IarSchedule)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void
BM_AdaptiveRuntime(benchmark::State &state)
{
    const Workload w =
        workloadOfSize(static_cast<std::size_t>(state.range(0)));
    const TimeEstimates est = buildDefaultEstimates(w);
    AdaptiveConfig cfg;
    cfg.samplePeriod = defaultSamplePeriod(w);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            runAdaptive(w, est, cfg).sim.makespan);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_AdaptiveRuntime)->Arg(10'000)->Arg(100'000);

void
BM_CompileQueue(benchmark::State &state)
{
    const auto cores = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        CompileQueue q(cores);
        for (Tick i = 0; i < 10'000; ++i)
            benchmark::DoNotOptimize(q.submit(i, 100));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_CompileQueue)->Arg(1)->Arg(4)->Arg(16);

void
BM_ZipfSample(benchmark::State &state)
{
    const ZipfSampler zipf(
        static_cast<std::size_t>(state.range(0)), 1.0);
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(zipf.sample(rng));
    }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100'000);

void
BM_SyntheticGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        SyntheticConfig cfg;
        cfg.numFunctions = 500;
        cfg.numCalls = static_cast<std::size_t>(state.range(0));
        cfg.seed = 11;
        benchmark::DoNotOptimize(generateSynthetic(cfg).numCalls());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_SyntheticGeneration)->Arg(100'000);

void
BM_NGramTrain(benchmark::State &state)
{
    const Workload w = workloadOfSize(100'000);
    for (auto _ : state) {
        NGramPredictor p(3);
        p.train(w.calls());
        benchmark::DoNotOptimize(p.contextCount());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 100'000);
}
BENCHMARK(BM_NGramTrain);

void
BM_NGramExtrapolate(benchmark::State &state)
{
    const Workload w = workloadOfSize(100'000);
    NGramPredictor p(3);
    p.train(w.calls());
    const std::vector<FuncId> prefix(w.calls().begin(),
                                     w.calls().begin() + 1024);
    Rng rng(13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            p.extrapolateStochastic(prefix, 50'000, rng).size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 50'000);
}
BENCHMARK(BM_NGramExtrapolate);

/** An iar request frame over lusearch at 1/256 scale (~290 KB). */
ServiceRequest
lusearchRequest()
{
    ServiceRequest req;
    req.id = 1;
    req.policy = "iar";
    req.workload = makeDacapoWorkload("lusearch", 256);
    return req;
}

void
BM_ParseRequest(benchmark::State &state)
{
    const std::string frame = requestText(lusearchRequest());
    for (auto _ : state) {
        auto req = tryReadRequest(frame);
        benchmark::DoNotOptimize(req);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_ParseRequest)->Unit(benchmark::kMicrosecond);

void
BM_WriteWorkload(benchmark::State &state)
{
    const Workload w = lusearchRequest().workload;
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::string text;
        appendWorkloadText(text, w);
        bytes = text.size();
        benchmark::DoNotOptimize(text.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * bytes));
}
BENCHMARK(BM_WriteWorkload)->Unit(benchmark::kMicrosecond);

} // anonymous namespace
} // namespace jitsched

BENCHMARK_MAIN();
