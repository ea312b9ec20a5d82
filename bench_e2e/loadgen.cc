#include "loadgen.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "obs/span.hh"
#include "service/client.hh"

namespace jitsched {
namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

/** The frame with `option trace-id` inserted after its header line. */
std::string
withTraceId(const std::string &frame, std::uint64_t id)
{
    const std::size_t body = frame.find('\n') + 1;
    std::string out;
    out.reserve(frame.size() + 40);
    out.append(frame, 0, body);
    out += "option trace-id " + obs::traceIdHex(id) + "\n";
    out.append(frame, body, std::string::npos);
    return out;
}

std::int64_t
nsSince(Clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

/**
 * One connection's requests.  @p next(i, &frame, &due_ns) names the
 * i-th request, or returns false when the connection is done; it may
 * block until the request is due.
 */
template <typename Next>
std::vector<Sample>
connectionLoop(const Plan &plan, const PassConfig &cfg,
               Clock::time_point start,
               std::atomic<std::uint64_t> &trace_ids, Next &&next)
{
    ClientConfig ccfg;
    ccfg.connectTimeoutMs = 5000;
    ccfg.readTimeoutMs = 60000;
    ccfg.writeTimeoutMs = 60000;
    ServiceClient client(ccfg);
    bool connected = client.connect("127.0.0.1", cfg.port);
    std::vector<Sample> out;
    std::size_t frame = 0;
    std::int64_t due = 0;
    std::int64_t free_since = nsSince(start);
    for (std::size_t i = 0; next(i, &frame, &due); ++i) {
        Sample s;
        s.frame = frame;
        s.dueNs = due;
        std::string traced;
        if (cfg.traced) {
            s.traceId = trace_ids.fetch_add(1, std::memory_order_relaxed);
            traced = withTraceId(plan.frames[frame].text, s.traceId);
        }
        if (!connected)
            connected = client.connect("127.0.0.1", cfg.port);
        s.sentNs = nsSince(start);
        if (connected) {
            auto resp = client.callRaw(cfg.traced
                                           ? traced
                                           : plan.frames[frame].text);
            if (resp) {
                s.transportOk = true;
                s.response = std::move(*resp);
            } else {
                client.disconnect();
                connected = false;
            }
        }
        s.doneNs = nsSince(start);
        s.lateNs = s.sentNs - (s.dueNs < 0 ? free_since : s.dueNs);
        if (s.dueNs < 0)
            s.dueNs = s.sentNs;
        free_since = s.doneNs;
        out.push_back(std::move(s));
    }
    return out;
}

/** Run @p per_connection(c) on its own thread per connection. */
template <typename PerConnection>
Pass
runConnections(const Plan &plan, PerConnection &&per_connection)
{
    std::vector<std::vector<Sample>> parts(plan.connections);
    std::vector<std::thread> threads;
    threads.reserve(plan.connections);
    for (std::size_t c = 0; c < plan.connections; ++c)
        threads.emplace_back(
            [&, c] { parts[c] = per_connection(c); });
    for (std::thread &t : threads)
        t.join();
    Pass pass;
    std::int64_t last = 0;
    for (auto &part : parts) {
        for (Sample &s : part) {
            last = std::max(last, s.doneNs);
            pass.samples.push_back(std::move(s));
        }
    }
    pass.elapsedSec = static_cast<double>(last) / 1e9;
    return pass;
}

} // anonymous namespace

Pass
runWindow(const Plan &plan, double seconds, const PassConfig &cfg)
{
    std::atomic<std::uint64_t> trace_ids{cfg.firstTraceId};
    const auto start = Clock::now();
    const auto end =
        start + std::chrono::nanoseconds(
                    static_cast<std::int64_t>(seconds * 1e9));
    return runConnections(plan, [&](std::size_t c) {
        if (plan.openLoop()) {
            const std::vector<Arrival> &mine = plan.arrivals[c];
            return connectionLoop(
                plan, cfg, start, trace_ids,
                [&](std::size_t i, std::size_t *frame, std::int64_t *due) {
                    if (i >= mine.size())
                        return false;
                    std::this_thread::sleep_until(
                        start + std::chrono::nanoseconds(mine[i].dueNs));
                    *frame = mine[i].frame;
                    *due = mine[i].dueNs;
                    return true;
                });
        }
        const std::vector<std::size_t> &mine = plan.cycle[c];
        return connectionLoop(
            plan, cfg, start, trace_ids,
            [&](std::size_t i, std::size_t *frame, std::int64_t *due) {
                if (mine.empty() || Clock::now() >= end)
                    return false;
                *frame = mine[i % mine.size()];
                *due = -1; // closed loop: due when sent
                return true;
            });
    });
}

Pass
runOnce(const Plan &plan, const std::vector<std::size_t> &frames,
        const PassConfig &cfg)
{
    std::atomic<std::uint64_t> trace_ids{cfg.firstTraceId};
    const auto start = Clock::now();
    return runConnections(plan, [&](std::size_t c) {
        return connectionLoop(
            plan, cfg, start, trace_ids,
            [&](std::size_t i, std::size_t *frame, std::int64_t *due) {
                const std::size_t k = c + i * plan.connections;
                if (k >= frames.size())
                    return false;
                *frame = frames[k];
                *due = -1;
                return true;
            });
    });
}

} // namespace e2e
} // namespace jitsched
