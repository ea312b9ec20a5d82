/**
 * @file
 * bench_e2e — the end-to-end benchmark of the scheduling service.
 *
 * For each workload (workloads.hh) it spawns a fresh jitschedd, sets
 * it up (spawn to first PONG, then one warm-up pass) five times and
 * keeps the last, drives a timed window over loopback from at most
 * four connections, reads the daemon's CPU time and peak RSS from
 * /proc, verifies every response after the window (verify.hh), and
 * prints every end-to-end metric with its unit.
 *
 * With --trace 1 it measures the layers instead: the untraced window
 * again (per-request stats lines), a rerun against `jitschedd
 * --trace-out` with a trace id on every request (spans validated by
 * jitsched-trace-check, then aggregated), and an in-process replay of
 * the distinct frames (replay.hh).  It prints a latency budget per
 * workload and every per-layer metric.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and the metrics.  The same values, with the git sha, core count,
 * build type and seed, go to a BENCH record file in --out-dir.
 *
 * Usage:
 *   bench_e2e --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
 *             [--out-dir DIR] [--git-sha SHA]
 *   bench_e2e --smoke --expect FILE --benchmark-json FILE [--out-dir DIR]
 *
 * Exit status: 0 when every response verified and nothing failed.
 */

#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "daemon.hh"
#include "loadgen.hh"
#include "obs/span.hh"
#include "replay.hh"
#include "service/client.hh"
#include "support/stats.hh"
#include "verify.hh"
#include "workloads.hh"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

using namespace jitsched;
using namespace jitsched::e2e;

namespace {

using Clock = std::chrono::steady_clock;

/** One metric's name and unit, and which set it belongs to. */
struct MetricDef
{
    const char *name;
    const char *unit;
    bool endToEnd;
};

/**
 * Every metric the benchmark prints, in print order.  Each workload
 * reports all of them, so every time below is measured on every
 * workload: solve times per policy are kept for iar and jikes, which
 * all four serve, the result-cache probe is timed in-process, and IAR
 * on lusearch is timed on one fixed trace.  Only the A* counters read
 * 0 where no A* runs.
 */
const std::vector<MetricDef> &
metricDefs()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s", true},
        {"throughput_rps", "req/s", true},
        {"latency_p50_ms", "ms", true},
        {"latency_p90_ms", "ms", true},
        {"latency_p99_ms", "ms", true},
        {"cpu_ms_per_req", "ms", true},
        {"peak_rss_mb", "MiB", true},
        {"gap_to_lb_pct", "%", true},
        {"potential_speedup", "x", true},

        {"service.protocol.parse_ms_p50", "ms", false},
        {"service.protocol.parse_mb_per_s", "MB/s", false},
        {"service.protocol.serialize_ms_p50", "ms", false},
        {"trace.read_workload_ms_p50", "ms", false},
        {"service.admission.wait_ms_p50", "ms", false},
        {"service.admission.wait_ms_p99", "ms", false},
        {"service.admission.shed", "count", false},
        {"service.admission.expired", "count", false},
        {"service.engine.solve_ms_p50", "ms", false},
        {"service.engine.solve_ms_p99", "ms", false},
        {"service.engine.solve_ms_p50.iar", "ms", false},
        {"service.engine.solve_ms_p99.iar", "ms", false},
        {"service.engine.solve_ms_p50.jikes", "ms", false},
        {"service.engine.solve_ms_p99.jikes", "ms", false},
        {"service.result_cache.hit_rate", "ratio", false},
        {"service.result_cache.probe_us_p50", "us", false},
        {"service.unattributed_ms_p50", "ms", false},
        {"service.span.admission_wait_ms_p50", "ms", false},
        {"service.span.solve_ms_p50", "ms", false},
        {"service.span.serialize_ms_p50", "ms", false},
        {"core.iar.ms_per_trace", "ms", false},
        {"core.iar.ms_per_trace.lusearch", "ms", false},
        {"core.iar.ns_per_call", "ns", false},
        {"core.candidates.ms_p50", "ms", false},
        {"core.lower_bound.ms_p50", "ms", false},
        {"core.astar.nodes_expanded", "count", false},
        {"core.astar.evaluations", "count", false},
        {"core.astar.expansions_per_s", "1/s", false},
        {"core.astar.bytes_per_node", "B", false},
        {"core.astar.peak_mb", "MiB", false},
        {"core.astar_par.nodes_expanded", "count", false},
        {"core.astar_par.nodes_pruned_incumbent", "count", false},
        {"core.astar_par.expansions_per_s", "1/s", false},
        {"core.astar_par.peak_mb", "MiB", false},
        {"sim.simulate.ns_per_call", "ns", false},
        {"vm.adaptive.ms_per_trace", "ms", false},
        {"exec.eval_cache.hit_rate", "ratio", false},
        {"qa.verified", "count", false},
        {"qa.violations", "count", false},
        {"obs.trace_overhead_pct", "%", false},
        {"loadgen.late_ms_p99", "ms", false},
        {"loadgen.samples", "count", false},
    };
    return defs;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 18.0;
    bool trace = false;
    bool smoke = false;
    std::string outDir = "bench_e2e-out";
    std::string gitSha = "unknown";
    std::string expect;        ///< smoke: expected metric names file
    std::string benchmarkJson; ///< smoke: BENCHMARK.json to agree with
};

/** A workload run's outcome. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics; ///< every metricDefs() name
};

[[noreturn]] void
usage(int rc)
{
    std::cerr
        << "usage: bench_e2e --workload NAME|all [--seed N] "
           "[--seconds S] [--trace 0|1]\n"
           "                 [--out-dir DIR] [--git-sha SHA]\n"
           "       bench_e2e --smoke --expect FILE --benchmark-json "
           "FILE [--out-dir DIR]\n"
           "workloads: fig5-dacapo astar-exact hot-cache hot-nocache\n";
    std::exit(rc);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
selfDir()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return ".";
    std::string path(buf, static_cast<std::size_t>(n));
    return path.substr(0, path.rfind('/'));
}

/** Run @p argv to completion; true when it exited 0. */
bool
runTool(const std::vector<std::string> &argv_s)
{
    std::vector<char *> argv;
    for (const std::string &a : argv_s)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    pid_t pid = -1;
    if (::posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(),
                      environ) != 0)
        return false;
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/** A counter from a STATS scrape (`counter <name> <value>`), or 0. */
double
scrapeCounter(std::uint16_t port, const std::string &name)
{
    ServiceClient client;
    if (!client.connect("127.0.0.1", port))
        return 0.0;
    const auto resp = client.stats(1);
    if (!resp || !resp->ok)
        return 0.0;
    for (const std::string &line : resp->lines) {
        std::istringstream ls(line);
        std::string type, key;
        double value = 0.0;
        if (ls >> type >> key >> value && key == name)
            return value;
    }
    return 0.0;
}

/**
 * Open loop: the median over one-second windows (by due time) of each
 * window's p99.  A whole-run p99 is set by the few host stalls a run
 * happens to catch; the windowed median is not.  Falls back to the
 * whole-run p99 when no window holds 100 samples.
 */
double
windowedP99(const std::vector<std::pair<std::int64_t, double>> &due_lat)
{
    std::map<std::int64_t, std::vector<double>> windows;
    for (const auto &[due, lat] : due_lat)
        windows[due / 1'000'000'000].push_back(lat);
    std::vector<double> p99s;
    for (const auto &[sec, lats] : windows)
        if (lats.size() >= 100)
            p99s.push_back(percentile(lats, 99.0));
    if (p99s.empty()) {
        std::vector<double> all;
        for (const auto &[due, lat] : due_lat)
            all.push_back(lat);
        return percentile(all, 99.0);
    }
    return percentile(p99s, 50.0);
}

/** Per-span-name durations (ms) of the traced requests in a trace file. */
std::map<std::string, std::vector<double>>
spanDurations(const std::string &path,
              const std::unordered_set<std::string> &trace_ids)
{
    std::map<std::string, std::vector<double>> out;
    std::ifstream in(path);
    std::string line;
    auto field = [&](const std::string &key) -> std::string {
        const std::string tag = "\"" + key + "\": ";
        const auto at = line.find(tag);
        if (at == std::string::npos)
            return {};
        std::size_t b = at + tag.size();
        if (line[b] == '"') {
            ++b;
            return line.substr(b, line.find('"', b) - b);
        }
        return line.substr(b, line.find_first_of(",}", b) - b);
    };
    while (std::getline(in, line)) {
        if (field("ph") != "X" || !trace_ids.count(field("trace")))
            continue;
        out[field("name")].push_back(std::stod(field("dur")) / 1000.0);
    }
    return out;
}

/**
 * Keep every core busy for @p seconds.  On the 4-core VM the baseline
 * was recorded on, a vCPU that has been idle runs 2-5x slow for up to
 * two seconds; without this the first set-up pays that ramp.
 */
void
heatCpus(double seconds)
{
    const unsigned n =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    const auto end = Clock::now() + std::chrono::microseconds(
                                        static_cast<long>(seconds * 1e6));
    std::vector<std::thread> spinners;
    for (unsigned i = 0; i < n; ++i)
        spinners.emplace_back([end] {
            volatile std::uint64_t x = 0;
            while (Clock::now() < end)
                for (int k = 0; k < 4096; ++k)
                    x = x + 1;
        });
    for (std::thread &t : spinners)
        t.join();
}

/** Frames of plan.required no pass has an ok answer for yet. */
std::vector<std::size_t>
uncovered(const Plan &plan, const std::vector<const Pass *> &passes)
{
    std::vector<char> ok(plan.frames.size(), 0);
    for (const Pass *pass : passes)
        for (const Sample &s : pass->samples)
            if (s.response.find("\nstatus ok\n") != std::string::npos)
                ok[s.frame] = 1;
    std::vector<std::size_t> out;
    for (const std::size_t i : plan.required)
        if (!ok[i])
            out.push_back(i);
    return out;
}

/** What one measured daemon produced. */
struct Measured
{
    std::vector<Pass> warmups; ///< one per set-up, in order
    Pass window;
    Pass completion;
    std::vector<double> setupSec;
    double cpuSec = 0.0;
    double peakRssMb = 0.0;
    double shed = 0.0;
    double expired = 0.0;
    bool daemonOk = true;
};

/**
 * Set a daemon up @p setups times (spawn to first PONG, then the
 * warm-up pass), keep the last one, and run the timed window on it.
 */
Measured
measure(const Plan &plan, const std::string &bin_dir,
        const std::string &out_dir, std::vector<std::string> extra_args,
        int setups, double seconds, const PassConfig &traced)
{
    Measured m;
    std::vector<std::string> args = plan.daemonArgs;
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::unique_ptr<Daemon> daemon;
    std::string error;
    for (int k = 0; k < setups; ++k) {
        if (daemon && !daemon->stop(30.0, &error)) {
            std::cerr << "bench_e2e: " << error << "\n";
            m.daemonOk = false;
        }
        daemon = std::make_unique<Daemon>(
            bin_dir + "/jitschedd", args,
            out_dir + "/" + plan.workload + "-jitschedd-" +
                std::to_string(k) + ".log");
        const auto t0 = Clock::now();
        if (!daemon->start(20.0, &error)) {
            std::cerr << "bench_e2e: " << error << "\n";
            m.daemonOk = false;
            return m;
        }
        PassConfig warm;
        warm.port = daemon->port();
        m.warmups.push_back(runOnce(plan, plan.warmup, warm));
        m.setupSec.push_back(secondsSince(t0));
    }

    PassConfig cfg = traced;
    cfg.port = daemon->port();
    const double cpu0 = daemon->cpuSeconds();
    m.window = runWindow(plan, seconds, cfg);
    m.cpuSec = daemon->cpuSeconds() - cpu0;
    m.peakRssMb = daemon->peakRssMb();
    m.shed = scrapeCounter(cfg.port, "service.requests.shed");
    m.expired = scrapeCounter(cfg.port, "service.requests.expired");

    std::vector<const Pass *> so_far;
    for (const Pass &w : m.warmups)
        so_far.push_back(&w);
    so_far.push_back(&m.window);
    PassConfig once;
    once.port = cfg.port;
    m.completion = runOnce(plan, uncovered(plan, so_far), once);
    if (!daemon->stop(30.0, &error)) {
        std::cerr << "bench_e2e: " << error << "\n";
        m.daemonOk = false;
    }
    return m;
}

std::vector<const Pass *>
passesOf(const Measured &m)
{
    std::vector<const Pass *> out;
    for (const Pass &w : m.warmups)
        out.push_back(&w);
    out.push_back(&m.window);
    out.push_back(&m.completion);
    return out;
}

/** Client-side latency of every window sample; failures never meet
 * any limit, so they count as infinitely slow. */
std::vector<double>
latencies(const Pass &window, const std::vector<Checked> &checked)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < window.samples.size(); ++i)
        out.push_back(checked[i].ok
                          ? window.samples[i].latencyMs()
                          : std::numeric_limits<double>::infinity());
    return out;
}

/** The end-to-end metrics of an untraced measurement. */
void
endToEnd(const Plan &plan, const Measured &m, const Verification &v,
         const std::vector<Checked> &checked, Result &r)
{
    const std::vector<double> lat = latencies(m.window, checked);
    std::size_t ok = 0;
    for (const Checked &c : checked)
        ok += c.ok;
    auto &x = r.metrics;
    x["setup_s"] = percentile(m.setupSec, 50.0);
    x["throughput_rps"] =
        m.window.elapsedSec > 0.0 ? ok / m.window.elapsedSec : 0.0;
    x["latency_p50_ms"] = percentile(lat, 50.0);
    x["latency_p90_ms"] = percentile(lat, 90.0);
    if (plan.openLoop()) {
        std::vector<std::pair<std::int64_t, double>> due_lat;
        for (std::size_t i = 0; i < lat.size(); ++i)
            due_lat.emplace_back(m.window.samples[i].dueNs, lat[i]);
        x["latency_p99_ms"] = windowedP99(due_lat);
    } else {
        x["latency_p99_ms"] = percentile(lat, 99.0);
    }
    x["cpu_ms_per_req"] =
        m.window.samples.empty()
            ? 0.0
            : 1000.0 * m.cpuSec /
                  static_cast<double>(m.window.samples.size());
    x["peak_rss_mb"] = m.peakRssMb;
    x["gap_to_lb_pct"] = v.gapToLbPct;
    x["potential_speedup"] = v.potentialSpeedup;
}

/** Print the latency budget; returns service.unattributed_ms_p50. */
double
budget(const Plan &plan, const Pass &window,
       const std::vector<Checked> &checked, const Replay &rp,
       double latency_p50)
{
    // The open loops' fresh frames are not replayed; they are charged
    // the median parse time of the frames that were.
    std::vector<double> replayed;
    for (const double ms : rp.parseMs)
        if (ms >= 0.0)
            replayed.push_back(ms);
    const double parse_fallback = percentile(replayed, 50.0);
    std::vector<double> svc, wait, solve, parse, ser, unattributed,
        residual;
    for (std::size_t i = 0; i < window.samples.size(); ++i) {
        if (!checked[i].ok)
            continue;
        const Sample &s = window.samples[i];
        const double q = checked[i].stats.queueNs / 1e6;
        const double sv = checked[i].stats.solveNs / 1e6;
        const double pa = rp.parseMs[s.frame] >= 0.0 ? rp.parseMs[s.frame]
                                                     : parse_fallback;
        const double se =
            rp.serializeMs[s.frame] >= 0.0 ? rp.serializeMs[s.frame] : 0.0;
        svc.push_back(s.serviceMs());
        wait.push_back(q);
        solve.push_back(sv);
        parse.push_back(pa);
        ser.push_back(se);
        unattributed.push_back(s.serviceMs() - q - sv);
        residual.push_back(s.serviceMs() - q - sv - pa - se);
    }
    const double parts[] = {
        percentile(parse, 50.0), percentile(wait, 50.0),
        percentile(solve, 50.0), percentile(ser, 50.0),
        percentile(residual, 50.0)};
    const char *names[] = {"parse (in-process tryReadRequest)",
                           "admission wait (stats queue-ns)",
                           "solve (stats solve-ns)",
                           "serialize (in-process responseText)",
                           "unattributed (socket, framing, other)"};
    double sum = 0.0;
    std::cout << "latency budget, " << plan.workload
              << " (p50 of each part, ms):\n";
    for (int i = 0; i < 5; ++i) {
        sum += parts[i];
        std::cout << "  " << std::left << std::setw(40) << names[i]
                  << std::right << std::fixed << std::setprecision(4)
                  << parts[i] << "\n";
    }
    const double svc_p50 = percentile(svc, 50.0);
    std::cout << "  " << std::left << std::setw(40) << "sum" << std::right
              << sum << "\n"
              << "  " << std::left << std::setw(40)
              << "service time p50 (send to answer)" << std::right
              << svc_p50 << "  (parts cover "
              << std::setprecision(1) << 100.0 * sum / svc_p50 << "%)\n"
              << std::setprecision(4) << "  " << std::left
              << std::setw(40) << "latency_p50_ms (client)" << std::right
              << latency_p50 << "\n";
    std::cout.unsetf(std::ios::floatfield);
    return percentile(unattributed, 50.0);
}

/**
 * The per-layer metrics of a traced run.  @p checked and
 * @p traced_checked are the two windows' verdicts; @p completion
 * those of the untraced daemon's completion pass (astar-exact's iar
 * and jikes answers).
 */
void
perLayer(const Plan &plan, const Measured &untraced,
         const Measured &traced, const std::vector<Checked> &checked,
         const std::vector<Checked> &completion,
         const std::vector<Checked> &traced_checked,
         const Verification &v, const Replay &rp,
         const std::map<std::string, std::vector<double>> &spans,
         Result &r)
{
    auto &x = r.metrics;
    for (const auto &[name, value] : rp.metrics)
        x[name] = value;

    // Requests the daemon admitted and solved: result-cache answers
    // never reach the admission queue (their queue-ns reads 0).
    std::vector<double> wait, solve;
    std::map<std::string, std::vector<double>> solve_by_policy;
    double served = 0.0, cached = 0.0, hits = 0.0, lookups = 0.0;
    auto tally = [&](const Pass &pass, const std::vector<Checked> &ch,
                     bool window) {
        for (std::size_t i = 0; i < pass.samples.size(); ++i) {
            if (!ch[i].ok)
                continue;
            const ServiceStats &st = ch[i].stats;
            if (st.resultCache == 0)
                solve_by_policy[plan.frames[pass.samples[i].frame].policy]
                    .push_back(st.solveNs / 1e6);
            if (!window)
                continue;
            served += 1.0;
            hits += static_cast<double>(st.cacheHits);
            lookups += static_cast<double>(st.cacheHits + st.cacheMisses);
            if (st.resultCache != 0) {
                cached += 1.0;
            } else {
                wait.push_back(st.queueNs / 1e6);
                solve.push_back(st.solveNs / 1e6);
            }
        }
    };
    const Pass &w = untraced.window;
    tally(w, checked, true);
    tally(untraced.completion, completion, false);
    x["service.admission.wait_ms_p50"] = percentile(wait, 50.0);
    x["service.admission.wait_ms_p99"] = percentile(wait, 99.0);
    x["service.admission.shed"] = untraced.shed;
    x["service.admission.expired"] = untraced.expired;
    x["service.engine.solve_ms_p50"] = percentile(solve, 50.0);
    x["service.engine.solve_ms_p99"] = percentile(solve, 99.0);
    for (const char *pol : {"iar", "jikes"}) {
        x[std::string("service.engine.solve_ms_p50.") + pol] =
            percentile(solve_by_policy[pol], 50.0);
        x[std::string("service.engine.solve_ms_p99.") + pol] =
            percentile(solve_by_policy[pol], 99.0);
    }
    x["service.result_cache.hit_rate"] =
        served > 0.0 ? cached / served : 0.0;
    x["exec.eval_cache.hit_rate"] = lookups > 0.0 ? hits / lookups : 0.0;

    auto span_p50 = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : percentile(it->second, 50.0);
    };
    x["service.span.admission_wait_ms_p50"] =
        span_p50("service.admission_wait");
    x["service.span.solve_ms_p50"] = span_p50("service.solve");
    x["service.span.serialize_ms_p50"] = span_p50("service.serialize");

    const double untraced_p50 = percentile(latencies(w, checked), 50.0);
    const double traced_p50 =
        percentile(latencies(traced.window, traced_checked), 50.0);
    x["obs.trace_overhead_pct"] =
        untraced_p50 > 0.0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0)
                           : 0.0;
    x["service.unattributed_ms_p50"] =
        budget(plan, w, checked, rp, untraced_p50);

    std::vector<double> late;
    for (const Sample &s : w.samples)
        late.push_back(s.lateNs / 1e6);
    x["loadgen.late_ms_p99"] = percentile(late, 99.0);
    x["loadgen.samples"] = static_cast<double>(w.samples.size());
    x["qa.verified"] = static_cast<double>(v.verified);
    x["qa.violations"] = static_cast<double>(v.violations);
}

Result
runWorkload(const Args &a, const std::string &workload,
            const std::string &bin_dir)
{
    Result r;
    Plan plan;
    std::string error;
    if (!makePlan(workload, a.seed, a.seconds, a.smoke, &plan, &error)) {
        std::cerr << "bench_e2e: " << error << "\n";
        usage(2);
    }
    // Traced runs need the per-layer numbers, not set-up medians.
    const int setups = a.trace || a.smoke ? 1 : 5;
    heatCpus(a.smoke ? 0.1 : 1.0);
    const Measured untraced =
        measure(plan, bin_dir, a.outDir, {}, setups, a.seconds, {});
    std::vector<const Pass *> passes = passesOf(untraced);

    Measured traced;
    std::string trace_file;
    bool trace_ok = true;
    if (a.trace) {
        trace_file =
            a.outDir + "/" + plan.workload + "-jitschedd.trace.json";
        ::unlink(trace_file.c_str());
        PassConfig tcfg;
        tcfg.traced = true;
        tcfg.firstTraceId = 0xe2e0000000000001ull;
        traced = measure(plan, bin_dir, a.outDir,
                         {"--trace-out", trace_file}, 1, a.seconds, tcfg);
        for (const Pass *pass : passesOf(traced))
            passes.push_back(pass);
        trace_ok = runTool({bin_dir + "/jitsched-trace-check", trace_file});
        if (!trace_ok)
            std::cerr << "bench_e2e: " << trace_file
                      << " failed jitsched-trace-check\n";
    }

    std::vector<std::vector<Checked>> checked;
    const Verification v = verify(plan, passes, a.outDir, &checked);
    r.attempted = v.attempted;
    r.failed = v.failed;
    r.correct = v.failed == 0 && v.violations == 0 && untraced.daemonOk &&
                traced.daemonOk && trace_ok;

    // checked[] follows passes: set-up warm-ups, window, completion.
    const std::size_t window_at = untraced.warmups.size();
    endToEnd(plan, untraced, v, checked[window_at], r);
    if (a.trace) {
        const std::size_t traced_at = window_at + 2 +
                                      traced.warmups.size();
        std::unordered_set<std::string> ids;
        for (const Sample &s : traced.window.samples)
            ids.insert(obs::traceIdHex(s.traceId));
        const Replay rp = replay(plan, v,
                                 a.outDir + "/" + plan.workload +
                                     "-replay.trace.json");
        perLayer(plan, untraced, traced, checked[window_at],
                 checked[window_at + 1], checked[traced_at], v, rp,
                 spanDurations(trace_file, ids), r);
    }
    return r;
}

/** Shortest round-trip decimal of @p v: every digit as measured. */
std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/** The metrics a run reports: end-to-end, or per-layer when traced. */
std::vector<MetricDef>
reported(bool trace)
{
    std::vector<MetricDef> out;
    for (const MetricDef &d : metricDefs())
        if (d.endToEnd != trace)
            out.push_back(d);
    return out;
}

/** `{"correct": ..., "metrics": {...}}` with @p prefix on names. */
std::string
resultJson(const std::vector<std::pair<std::string, Result>> &results,
           bool trace, bool prefix)
{
    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::ostringstream metrics;
    bool first = true;
    for (const auto &[workload, r] : results) {
        attempted += r.attempted;
        failed += r.failed;
        correct = correct && r.correct;
        for (const MetricDef &d : reported(trace)) {
            const auto it = r.metrics.find(d.name);
            const double value = it == r.metrics.end() ? 0.0 : it->second;
            // Only failed requests make a latency infinite.  JSON has
            // no inf, and any number would read as a measurement.
            if (!std::isfinite(value))
                correct = false;
            metrics << (first ? "" : ", ") << "\""
                    << (prefix ? workload + "/" : "") << d.name
                    << "\": {\"value\": "
                    << (std::isfinite(value) ? number(value) : "null")
                    << ", \"unit\": \"" << d.unit << "\"}";
            first = false;
        }
    }
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {" << metrics.str() << "}}";
    return os.str();
}

/** The BENCH record: the result plus what it was measured on. */
void
writeRecord(const Args &a, const std::string &workload,
            const Result &r)
{
    const std::string path = a.outDir + "/e2e-" + workload + "-seed" +
                             std::to_string(a.seed) + "-trace" +
                             (a.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << "{\"schema\": \"jitsched-bench-record/1\", \"bench\": \"e2e\""
        << ", \"workload\": \"" << workload << "\""
        << ", \"git_sha\": \"" << a.gitSha << "\""
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"build_type\": \"" << BENCH_E2E_BUILD_TYPE << "\""
        << ", \"seed\": " << a.seed << ", \"seconds\": "
        << number(a.seconds) << ", \"trace\": " << (a.trace ? 1 : 0)
        << ", \"result\": " << resultJson({{workload, r}}, a.trace, false)
        << "}\n";
}

void
printTable(const std::string &workload, const Result &r, bool trace)
{
    std::cout << "== " << workload << (trace ? " (per layer)" : "")
              << ": " << r.attempted << " requests, " << r.failed
              << " failed, " << (r.correct ? "verified" : "NOT VERIFIED")
              << "\n";
    for (const MetricDef &d : reported(trace)) {
        const auto it = r.metrics.find(d.name);
        std::cout << "  " << std::left << std::setw(42) << d.name
                  << std::right << std::setw(16)
                  << (it == r.metrics.end() ? 0.0 : it->second) << " "
                  << d.unit << "\n";
    }
}

/** "<set> <name> <unit>" lines, from BENCHMARK.json's two lists. */
std::set<std::string>
benchmarkJsonNames(const std::string &path)
{
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::set<std::string> out;
    for (const char *set : {"end_to_end", "per_layer"}) {
        const auto at = text.find(std::string("\"") + set + "\"");
        if (at == std::string::npos)
            continue;
        const auto open = text.find('[', at);
        const auto close = text.find(']', open);
        const std::string list = text.substr(open, close - open);
        static const std::regex entry(
            R"re(\{[^}]*"name"\s*:\s*"([^"]+)")re"
            R"re([^}]*"unit"\s*:\s*"([^"]+)"[^}]*\})re");
        for (auto it = std::sregex_iterator(list.begin(), list.end(),
                                            entry);
             it != std::sregex_iterator(); ++it)
            out.insert(std::string(set) + " " + (*it)[1].str() + " " +
                       (*it)[2].str());
    }
    return out;
}

/** Report the differences between two name sets; true when equal. */
bool
sameNames(const std::string &what, const std::set<std::string> &want,
          const std::set<std::string> &got)
{
    bool same = true;
    for (const std::string &n : want)
        if (!got.count(n)) {
            std::cerr << "smoke: " << what << " lists '" << n
                      << "' but the run did not print it\n";
            same = false;
        }
    for (const std::string &n : got)
        if (!want.count(n)) {
            std::cerr << "smoke: the run printed '" << n
                      << "' which " << what << " does not list\n";
            same = false;
        }
    return same;
}

/**
 * --smoke: every workload at toy size in traced mode, then the metric
 * names each printed against the expectations file and BENCHMARK.json.
 */
int
smoke(Args a, const std::string &bin_dir)
{
    a.trace = true;
    a.seconds = 0.3;
    bool ok = true;
    for (const std::string &workload : workloadNames()) {
        const Result r = runWorkload(a, workload, bin_dir);
        std::set<std::string> printed;
        for (const MetricDef &d : metricDefs())
            if (r.metrics.count(d.name))
                printed.insert(std::string(d.endToEnd ? "end_to_end"
                                                      : "per_layer") +
                               " " + d.name + " " + d.unit);
        std::set<std::string> expected;
        std::ifstream in(a.expect);
        for (std::string line; std::getline(in, line);)
            if (!line.empty() && line[0] != '#')
                expected.insert(line);
        const bool names =
            sameNames(a.expect, expected, printed) &&
            sameNames(a.benchmarkJson, benchmarkJsonNames(a.benchmarkJson),
                      printed);
        std::cout << "smoke " << workload << ": " << r.attempted
                  << " requests, " << r.failed << " failed, "
                  << r.metrics.size() << " metrics"
                  << (names ? "" : ", NAME MISMATCH") << "\n";
        ok = ok && names && r.correct && r.failed == 0;
    }
    std::cout << (ok ? "smoke: ok" : "smoke: FAILED") << std::endl;
    return ok ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = next();
        else if (arg == "--seed")
            a.seed = std::stoull(next());
        else if (arg == "--seconds")
            a.seconds = std::stod(next());
        else if (arg == "--trace")
            a.trace = next() != "0";
        else if (arg == "--out-dir")
            a.outDir = next();
        else if (arg == "--git-sha")
            a.gitSha = next();
        else if (arg == "--smoke")
            a.smoke = true;
        else if (arg == "--expect")
            a.expect = next();
        else if (arg == "--benchmark-json")
            a.benchmarkJson = next();
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else
            usage(2);
    }
    if (a.seconds <= 0.0 || (!a.smoke && a.workload.empty()))
        usage(2);
    ::mkdir(a.outDir.c_str(), 0755);
    const std::string bin_dir = selfDir();
    if (a.smoke)
        return smoke(a, bin_dir);

    std::vector<std::string> workloads = {a.workload};
    if (a.workload == "all")
        workloads = workloadNames();
    std::vector<std::pair<std::string, Result>> results;
    for (const std::string &workload : workloads) {
        // A hung daemon or client must not outlive the run's time
        // budget; the daemons die with us (PR_SET_PDEATHSIG).
        ::alarm(175);
        results.emplace_back(workload, runWorkload(a, workload, bin_dir));
        writeRecord(a, workload, results.back().second);
        printTable(workload, results.back().second, a.trace);
    }
    ::alarm(0);
    bool correct = true;
    for (const auto &[workload, r] : results)
        correct = correct && r.correct && r.failed == 0;
    std::cout << resultJson(results, a.trace, results.size() > 1)
              << std::endl;
    return correct ? 0 : 1;
}
