#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <sstream>

#include "core/astar.hh"
#include "core/astar_par.hh"
#include "core/iar.hh"
#include "core/lower_bound.hh"
#include "obs/span.hh"
#include "obs/trace_event.hh"
#include "service/result_cache.hh"
#include "sim/makespan.hh"
#include "support/stats.hh"
#include "trace/dacapo.hh"
#include "trace/trace_io.hh"
#include "vm/adaptive_runtime.hh"
#include "vm/cost_benefit.hh"

namespace jitsched {
namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

// Span trace ids: one track per replayed frame, one per instance, and
// one for the lusearch probe.
constexpr std::uint64_t kFrameTrack = 0xbe00000000000000ull;
constexpr std::uint64_t kTraceTrack = 0xbf00000000000000ull;
constexpr std::uint64_t kProbeTrack = 0xbd00000000000001ull;

/** Times calls into the library and records a span around each. */
class Timed
{
  public:
    /** Run @p fn as span @p name on track @p track; returns its ms. */
    template <typename Fn>
    double
    operator()(std::uint64_t track, const char *name, Fn &&fn)
    {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        spans.recordBetween(track, name, t0, t1);
        return std::chrono::duration<double, std::milli>(t1 - t0)
            .count();
    }

    obs::SpanCollector spans;
};

} // anonymous namespace

Replay
replay(const Plan &plan, const Verification &v,
       const std::string &trace_path)
{
    Replay out;
    out.parseMs.assign(plan.frames.size(), -1.0);
    out.serializeMs.assign(plan.frames.size(), -1.0);
    Timed timed;

    // --- service.protocol, trace, service.result_cache: per frame.
    std::vector<double> parse_ms, read_ms, ser_ms, probe_us;
    double parse_bytes = 0.0;
    std::vector<std::size_t> traces;  // first-seen order
    std::vector<ServiceOptions> trace_opts(plan.traces.size());
    std::vector<char> seen(plan.traces.size(), 0);
    std::vector<char> has_astar(plan.traces.size(), 0);
    std::vector<char> has_par(plan.traces.size(), 0);
    ResultCacheConfig rc_cfg;
    rc_cfg.capacityBytes = std::size_t(64) << 20;
    ResultCache cache(rc_cfg);
    for (const std::size_t i : plan.replay) {
        const Frame &f = plan.frames[i];
        const std::uint64_t track = kFrameTrack | f.id;
        std::optional<ServiceRequest> req;
        out.parseMs[i] = timed(track, "bench.service.parse", [&] {
            std::istringstream is(f.text);
            req = tryReadRequest(is);
        });
        if (!req)
            continue; // cannot happen: the frames are ours
        parse_ms.push_back(out.parseMs[i]);
        parse_bytes += static_cast<double>(f.text.size());

        const std::size_t payload = f.text.find("\npayload\n") + 9;
        read_ms.push_back(timed(track, "bench.trace.read_workload", [&] {
            std::istringstream is(f.text.substr(payload));
            (void)tryReadWorkload(is, nullptr, "end");
        }));

        if (!seen[f.trace]) {
            seen[f.trace] = 1;
            traces.push_back(f.trace);
            trace_opts[f.trace] = req->options;
        }
        has_astar[f.trace] |= f.policy == "astar";
        has_par[f.trace] |= f.policy == "astar-par";

        const auto &resp = v.reference[i];
        if (!resp)
            continue;
        out.serializeMs[i] = timed(track, "bench.service.serialize", [&] {
            (void)responseText(*resp);
        });
        ser_ms.push_back(out.serializeMs[i]);

        // Store the answer, then time the hit probe that finds it.
        ResultCache::Probe leader = cache.begin(*req);
        if (leader.kind == ResultCache::Probe::Kind::Leader)
            cache.publish(leader, true, responseBodyText(*resp));
        probe_us.push_back(
            1000.0 * timed(track, "bench.service.result_cache_probe",
                           [&] { (void)cache.begin(*req); }));
    }

    // --- core, sim, vm: per distinct instance.
    std::vector<double> cand_ms, lb_ms;
    double iar_ms = 0.0, sim_ms = 0.0, adaptive_ms = 0.0;
    double calls = 0.0;
    double astar_ms = 0.0, par_ms = 0.0;
    double astar_nodes = 0.0, astar_evals = 0.0, par_nodes = 0.0;
    double par_pruned = 0.0, bytes_per_node = 0.0, astar_runs = 0.0;
    double astar_peak = 0.0, par_peak = 0.0;
    for (const std::size_t t : traces) {
        const Workload &w = plan.traces[t];
        const std::uint64_t track = kTraceTrack | t;
        CostBenefitConfig mcfg;
        mcfg.kind = trace_opts[t].model;
        std::vector<CandidatePair> cands;
        cand_ms.push_back(timed(track, "bench.core.candidates", [&] {
            cands = modelCandidateLevels(w, mcfg);
        }));
        lb_ms.push_back(timed(track, "bench.core.lower_bound", [&] {
            (void)lowerBoundCandidates(w, cands);
        }));
        IarResult iar;
        iar_ms += timed(track, "bench.core.iar",
                        [&] { iar = iarSchedule(w, cands); });
        calls += static_cast<double>(w.numCalls());
        sim_ms += timed(track, "bench.sim.simulate",
                        [&] { (void)simulate(w, iar.schedule); });
        adaptive_ms += timed(track, "bench.vm.adaptive", [&] {
            AdaptiveConfig acfg;
            acfg.samplePeriod = defaultSamplePeriod(w);
            (void)runAdaptive(w, buildEstimates(w, mcfg), acfg);
        });

        // The astar / astar-par policies' own configurations.
        AStarConfig acfg;
        acfg.memoryBudget = trace_opts[t].astarMemoryMb << 20;
        acfg.maxExpansions = trace_opts[t].astarMaxExpansions;
        if (has_astar[t]) {
            AStarResult r;
            astar_ms += timed(track, "bench.core.astar",
                              [&] { r = aStarOptimal(w, acfg); });
            astar_nodes += static_cast<double>(r.nodesExpanded);
            astar_evals += static_cast<double>(r.evaluations);
            bytes_per_node += static_cast<double>(r.bytesPerNode);
            astar_runs += 1.0;
            astar_peak = std::max(astar_peak,
                                  static_cast<double>(r.peakMemory));
        }
        if (has_par[t]) {
            // One worker, where the daemon's astar-par runs two: two
            // workers race to the optimum, so their counters move from
            // run to run, and these are compared exactly.
            AStarConfig pcfg = acfg;
            pcfg.threads = 1;
            AStarResult r;
            par_ms += timed(track, "bench.core.astar_par",
                            [&] { r = aStarParallel(w, pcfg); });
            par_nodes += static_cast<double>(r.nodesExpanded);
            par_pruned += static_cast<double>(r.nodesPrunedIncumbent);
            par_peak = std::max(par_peak,
                                static_cast<double>(r.peakMemory));
        }
    }

    // Table 2's worst case, IAR on lusearch at the fig5-dacapo scale:
    // one fixed program, timed on every workload.
    std::vector<double> lusearch_ms;
    {
        const Workload w = makeDacapoWorkload("lusearch", 256);
        CostBenefitConfig mcfg;
        mcfg.kind = ModelKind::Default;
        const std::vector<CandidatePair> cands =
            modelCandidateLevels(w, mcfg);
        for (int k = 0; k < 5; ++k)
            lusearch_ms.push_back(
                timed(kProbeTrack, "bench.core.iar.lusearch",
                      [&] { (void)iarSchedule(w, cands); }));
    }

    const double n_traces = static_cast<double>(traces.size());
    auto per = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double mib = 1024.0 * 1024.0;
    auto &m = out.metrics;
    m["service.protocol.parse_ms_p50"] = percentile(parse_ms, 50.0);
    m["service.protocol.parse_mb_per_s"] =
        per(parse_bytes / 1e6,
            std::accumulate(parse_ms.begin(), parse_ms.end(), 0.0) /
                1000.0);
    m["service.protocol.serialize_ms_p50"] = percentile(ser_ms, 50.0);
    m["trace.read_workload_ms_p50"] = percentile(read_ms, 50.0);
    m["service.result_cache.probe_us_p50"] = percentile(probe_us, 50.0);
    m["core.candidates.ms_p50"] = percentile(cand_ms, 50.0);
    m["core.lower_bound.ms_p50"] = percentile(lb_ms, 50.0);
    m["core.iar.ms_per_trace"] = per(iar_ms, n_traces);
    m["core.iar.ms_per_trace.lusearch"] = percentile(lusearch_ms, 50.0);
    m["core.iar.ns_per_call"] = per(iar_ms * 1e6, calls);
    m["sim.simulate.ns_per_call"] = per(sim_ms * 1e6, calls);
    m["vm.adaptive.ms_per_trace"] = per(adaptive_ms, n_traces);
    m["core.astar.nodes_expanded"] = astar_nodes;
    m["core.astar.evaluations"] = astar_evals;
    m["core.astar.expansions_per_s"] =
        per(astar_nodes, astar_ms / 1000.0);
    m["core.astar.bytes_per_node"] = per(bytes_per_node, astar_runs);
    m["core.astar.peak_mb"] = astar_peak / mib;
    m["core.astar_par.nodes_expanded"] = par_nodes;
    m["core.astar_par.nodes_pruned_incumbent"] = par_pruned;
    m["core.astar_par.expansions_per_s"] =
        per(par_nodes, par_ms / 1000.0);
    m["core.astar_par.peak_mb"] = par_peak / mib;

    obs::TraceEventSink sink;
    timed.spans.exportTo(sink);
    sink.writeFile(trace_path);
    return out;
}

} // namespace e2e
} // namespace jitsched
