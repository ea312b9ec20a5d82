/**
 * @file
 * Loopback integration tests for jitschedd's serving core: a real
 * TCP server on an ephemeral port, concurrent clients submitting a
 * mix of valid, malformed and duplicate requests.  Valid responses
 * must be byte-identical to direct library calls (modulo the
 * volatile stats line), malformed frames must get structured errors
 * without killing the connection, and duplicates must be answered
 * from the result cache when the daemon runs one.
 */

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/instruments.hh"
#include "service/client.hh"
#include "service/engine.hh"
#include "service/server.hh"
#include "trace/paper_examples.hh"
#include "trace/trace_io.hh"

namespace jitsched {
namespace {

/** Drop the volatile `stats` line; everything else is deterministic. */
std::string
stripStats(const std::string &frame)
{
    std::string out;
    std::istringstream is(frame);
    for (std::string line; std::getline(is, line);)
        if (line.rfind("stats ", 0) != 0)
            out += line + "\n";
    return out;
}

ServiceRequest
makeRequest(std::uint64_t id, const std::string &policy,
            Workload w)
{
    ServiceRequest req;
    req.id = id;
    req.policy = policy;
    req.workload = std::move(w);
    return req;
}

std::string
malformedFrame(std::uint64_t id)
{
    return "jitsched-request " + std::to_string(id) + "\n" +
           "policy iar\n"
           "payload\n"
           "workload broken\n"
           "levels not-a-number\n"
           "end\n";
}

class LoopbackTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string error;
        ASSERT_TRUE(server_.start(&error)) << error;
        ASSERT_NE(server_.port(), 0);
    }

    /** What a direct library call answers for @p req (no stats). */
    std::string
    directAnswer(const ServiceRequest &req)
    {
        // A separate engine: the reference path must not share state
        // with the server under test.
        ServiceResponse resp = reference_.serve(req);
        resp.stats = {};
        return responseText(resp, /*include_stats=*/false);
    }

    ServiceEngine engine_;
    ServiceServer server_{engine_};
    ServiceEngine reference_;
};

TEST_F(LoopbackTest, SingleRequestMatchesDirectLibraryCall)
{
    const ServiceRequest req =
        makeRequest(11, "iar", figure1Workload());
    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server_.port(), &error))
        << error;
    const auto raw = client.callRaw(requestText(req), &error);
    ASSERT_TRUE(raw.has_value()) << error;
    EXPECT_EQ(stripStats(*raw), directAnswer(req));
}

TEST_F(LoopbackTest, StatsScrapeReturnsTheRegistrySnapshot)
{
    // Prime the registry key set the way jitschedd does at startup,
    // then serve one real request so the service counters move.
    obs::registerStandardInstruments(engine_.registry().names());
    EXPECT_EQ(server_.connectionsDropped(), 0u);

    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server_.port(), &error))
        << error;
    const auto raw = client.callRaw(
        requestText(makeRequest(21, "iar", figure1Workload())),
        &error);
    ASSERT_TRUE(raw.has_value()) << error;

    // STATS rides the same connection, after the solve.
    const auto stats = client.stats(22, &error);
    ASSERT_TRUE(stats.has_value()) << error;
    EXPECT_TRUE(stats->ok) << stats->code << " " << stats->error;
    EXPECT_EQ(stats->id, 22u);
    ASSERT_FALSE(stats->lines.empty());

    bool saw_frames = false, saw_solve_hist = false;
    std::uint64_t frames_served = 0;
    for (const std::string &line : stats->lines) {
        std::istringstream ls(line);
        std::string type, name;
        ls >> type >> name;
        if (name == "service.frames.served") {
            saw_frames = true;
            ls >> frames_served;
        }
        if (name == "service.solve_ns.iar")
            saw_solve_hist = true;
    }
    EXPECT_TRUE(saw_frames);
    EXPECT_TRUE(saw_solve_hist);
    // The registry is process-global, so other suites may have
    // contributed; this connection alone served at least one frame.
    EXPECT_GE(frames_served, 1u);

    // A second scrape still works — the connection survives STATS.
    const auto again = client.stats(23, &error);
    ASSERT_TRUE(again.has_value()) << error;
    EXPECT_TRUE(again->ok);
}

TEST_F(LoopbackTest, MalformedFrameGetsStructuredErrorAndKeepsConnection)
{
    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server_.port(), &error))
        << error;

    const auto raw = client.callRaw(malformedFrame(5), &error);
    ASSERT_TRUE(raw.has_value()) << error;
    std::istringstream is(*raw);
    const auto resp = tryReadResponse(is);
    ASSERT_TRUE(resp.has_value());
    EXPECT_FALSE(resp->ok);
    EXPECT_EQ(resp->code, errcode::invalidArgument);

    // The same connection still serves valid requests afterwards.
    const ServiceRequest req =
        makeRequest(6, "lower-bound", figure2Workload());
    const auto ok = client.call(req, &error);
    ASSERT_TRUE(ok.has_value()) << error;
    EXPECT_TRUE(ok->ok);
    EXPECT_EQ(ok->id, 6u);
}

TEST_F(LoopbackTest, GarbageBeforeAnEndLineIsSurvivable)
{
    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server_.port(), &error))
        << error;
    const auto raw =
        client.callRaw("complete nonsense\nnot a frame\nend\n",
                       &error);
    ASSERT_TRUE(raw.has_value()) << error;
    std::istringstream is(*raw);
    const auto resp = tryReadResponse(is);
    ASSERT_TRUE(resp.has_value());
    EXPECT_FALSE(resp->ok);
    EXPECT_EQ(resp->code, errcode::invalidArgument);
}

TEST_F(LoopbackTest, DuplicateRequestsAreAnsweredFromTheCache)
{
    // The fixture's daemon runs cache-off, the default; repeats are
    // the result cache's job, so this one turns it on.
    ServerConfig cfg;
    cfg.resultCacheBytes = std::size_t(4) << 20;
    ServiceServer cached(engine_, cfg);
    std::string error;
    ASSERT_TRUE(cached.start(&error)) << error;
    ServiceClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", cached.port(), &error))
        << error;

    const ServiceRequest req = makeRequest(1, "iar", figure1Workload());
    const auto first = client.callRaw(requestText(req), &error);
    ASSERT_TRUE(first.has_value()) << error;
    const auto second = client.callRaw(requestText(req), &error);
    ASSERT_TRUE(second.has_value()) << error;

    std::istringstream is(*second);
    const auto resp = tryReadResponse(is);
    ASSERT_TRUE(resp.has_value());
    ASSERT_TRUE(resp->ok);
    EXPECT_EQ(resp->stats.resultCache, 1u);
    EXPECT_EQ(cached.admission().processed(), 1u);
    EXPECT_EQ(stripStats(*second), stripStats(*first));
    EXPECT_EQ(stripStats(*second), directAnswer(req));
}

TEST_F(LoopbackTest, EightConcurrentClientsMixedTraffic)
{
    constexpr std::size_t kClients = 8;
    constexpr std::size_t kRequestsPerClient = 6;

    // Every client's valid answers must match these reference bytes.
    const ServiceRequest reqFig1Iar =
        makeRequest(101, "iar", figure1Workload());
    const ServiceRequest reqFig2Iar =
        makeRequest(102, "iar", figure2Workload());
    const ServiceRequest reqFig1Base =
        makeRequest(103, "base-only", figure1Workload());
    const std::string wantFig1Iar = directAnswer(reqFig1Iar);
    const std::string wantFig2Iar = directAnswer(reqFig2Iar);
    const std::string wantFig1Base = directAnswer(reqFig1Base);

    std::atomic<std::uint64_t> mismatches{0};
    std::atomic<std::uint64_t> malformed_ok{0};
    std::atomic<std::uint64_t> transport_errors{0};

    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ServiceClient client;
            std::string error;
            if (!client.connect("127.0.0.1", server_.port(),
                                &error)) {
                ++transport_errors;
                return;
            }
            for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
                const std::size_t kind = (c + i) % 4;
                if (kind == 3) {
                    // Malformed frame; expect a structured error and
                    // a connection that keeps working.
                    const auto raw = client.callRaw(
                        malformedFrame(900 + c), &error);
                    if (!raw) {
                        ++transport_errors;
                        return;
                    }
                    std::istringstream is(*raw);
                    const auto resp = tryReadResponse(is);
                    if (resp && !resp->ok &&
                        resp->code == errcode::invalidArgument)
                        ++malformed_ok;
                    continue;
                }
                // Valid traffic: three request shapes, repeated by
                // every client — duplicates by construction.
                const ServiceRequest &req =
                    kind == 0 ? reqFig1Iar
                    : kind == 1 ? reqFig2Iar
                                : reqFig1Base;
                const std::string &want =
                    kind == 0 ? wantFig1Iar
                    : kind == 1 ? wantFig2Iar
                                : wantFig1Base;
                const auto raw =
                    client.callRaw(requestText(req), &error);
                if (!raw) {
                    ++transport_errors;
                    return;
                }
                if (stripStats(*raw) != want)
                    ++mismatches;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    EXPECT_EQ(transport_errors, 0u);
    EXPECT_EQ(mismatches, 0u);
    // Every malformed frame (kind == 3 per client/request grid) was
    // answered with INVALID_ARGUMENT.
    std::uint64_t expected_malformed = 0;
    for (std::size_t c = 0; c < kClients; ++c)
        for (std::size_t i = 0; i < kRequestsPerClient; ++i)
            expected_malformed += ((c + i) % 4 == 3) ? 1 : 0;
    EXPECT_EQ(malformed_ok, expected_malformed);
    // Cache-off: every valid frame, duplicates included, was solved
    // by the engine behind the admission queue.
    EXPECT_EQ(server_.admission().processed(),
              kClients * kRequestsPerClient - expected_malformed);

    // The server survived all of it.
    EXPECT_EQ(server_.framesServed(),
              kClients * kRequestsPerClient);
    const ServiceRequest probe =
        makeRequest(999, "iar", figure1Workload());
    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server_.port(), &error))
        << error;
    const auto raw = client.callRaw(requestText(probe), &error);
    ASSERT_TRUE(raw.has_value()) << error;
    EXPECT_EQ(stripStats(*raw), directAnswer(probe));
}

TEST_F(LoopbackTest, StopIsIdempotentAndRefusesNewWork)
{
    server_.stop();
    server_.stop();
    ServiceClient client;
    std::string error;
    EXPECT_FALSE(
        client.connect("127.0.0.1", server_.port(), &error));
}

TEST_F(LoopbackTest, StopDoesNotHangOnIdleConnections)
{
    // Idle clients that connect and never send (or hang up) used to
    // pin stop() forever: handlers blocked in read(2) were joined
    // but their sockets never shut down.
    std::vector<std::unique_ptr<ServiceClient>> idlers;
    std::string error;
    for (int i = 0; i < 3; ++i) {
        auto c = std::make_unique<ServiceClient>();
        ASSERT_TRUE(c->connect("127.0.0.1", server_.port(), &error))
            << error;
        idlers.push_back(std::move(c));
    }
    // One of them serves a request first, guaranteeing at least one
    // connection is parked inside a handler's read, not just queued.
    const auto resp = idlers[0]->call(
        makeRequest(1, "iar", figure1Workload()), &error);
    ASSERT_TRUE(resp.has_value()) << error;

    std::promise<void> stopped;
    auto done = stopped.get_future();
    std::thread stopper([&] {
        server_.stop();
        stopped.set_value();
    });
    EXPECT_EQ(done.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "stop() hangs while idle clients hold connections";
    stopper.join();
}

TEST(ServiceServerLimits, OversizedFrameGetsErrorAndDisconnect)
{
    ServiceEngine engine;
    ServerConfig cfg;
    cfg.maxFrameBytes = 1024;
    ServiceServer server(engine, cfg);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    // Way past the cap with no `end` line in sight: the server must
    // answer a structured error instead of buffering forever, then
    // drop the connection (it cannot resynchronize).
    std::string flood;
    while (flood.size() < 4096)
        flood += "option padding padding\n";
    const auto raw = client.callRaw(flood, &error);
    ASSERT_TRUE(raw.has_value()) << error;
    std::istringstream is(*raw);
    const auto resp = tryReadResponse(is);
    ASSERT_TRUE(resp.has_value());
    EXPECT_FALSE(resp->ok);
    EXPECT_EQ(resp->code, errcode::invalidArgument);
    EXPECT_NE(resp->error.find("exceeds"), std::string::npos)
        << resp->error;

    EXPECT_FALSE(client.callRaw("jitsched-request 1\nend\n", &error)
                     .has_value());
    server.stop();
}

TEST(ServiceServerLimits, NewlineFreeStreamIsBounded)
{
    // A stream with no newline at all exercises the LineReader cap
    // rather than the frame accumulator.
    ServiceEngine engine;
    ServerConfig cfg;
    cfg.maxFrameBytes = 1024;
    ServiceServer server(engine, cfg);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    const auto raw =
        client.callRaw(std::string(8192, 'x'), &error);
    ASSERT_TRUE(raw.has_value()) << error;
    std::istringstream is(*raw);
    const auto resp = tryReadResponse(is);
    ASSERT_TRUE(resp.has_value());
    EXPECT_FALSE(resp->ok);
    EXPECT_EQ(resp->code, errcode::invalidArgument);
    server.stop();
}

TEST_F(LoopbackTest, PingIsAnsweredInline)
{
    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server_.port(), &error))
        << error;
    EXPECT_TRUE(client.ping(7, &error)) << error;

    // A ping is a framing no-op: scheduling requests on the same
    // connection keep working around it.
    const ServiceRequest req =
        makeRequest(8, "iar", figure1Workload());
    const auto raw = client.callRaw(requestText(req), &error);
    ASSERT_TRUE(raw.has_value()) << error;
    EXPECT_EQ(stripStats(*raw), directAnswer(req));
    EXPECT_TRUE(client.ping(9, &error)) << error;
}

TEST(ServiceServerLifecycle, RestartComesBackOnTheSamePort)
{
    // The contract the cluster layer's backend bounce rests on: a
    // stopped server restarts on the port its first bind chose, with
    // its counters intact.
    ServiceEngine engine;
    ServiceServer server(engine);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const std::uint16_t port = server.port();
    ASSERT_NE(port, 0);

    EXPECT_FALSE(server.start(&error))
        << "second start while running must refuse";

    {
        ServiceClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", port, &error))
            << error;
        EXPECT_TRUE(client.ping(1, &error)) << error;
    }
    const std::uint64_t frames_before_stop = server.framesServed();
    EXPECT_GE(frames_before_stop, 1u);

    server.stop();
    {
        ClientConfig cfg;
        cfg.connectTimeoutMs = 500;
        ServiceClient down(cfg);
        EXPECT_FALSE(down.connect("127.0.0.1", port, &error))
            << "stopped server still accepts connections";
    }

    ASSERT_TRUE(server.start(&error)) << error;
    EXPECT_EQ(server.port(), port);

    ServiceClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", port, &error)) << error;
    const auto raw = client.callRaw(
        requestText(makeRequest(2, "iar", figure1Workload())),
        &error);
    ASSERT_TRUE(raw.has_value()) << error;
    EXPECT_GE(server.framesServed(), frames_before_stop + 1);
    server.stop();
}

TEST(ServiceServerLifecycle, RestartSurvivesRepeatedBounces)
{
    ServiceEngine engine;
    ServiceServer server(engine);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const std::uint16_t port = server.port();

    for (int round = 0; round < 3; ++round) {
        server.stop();
        ASSERT_TRUE(server.start(&error))
            << "round " << round << ": " << error;
        ASSERT_EQ(server.port(), port) << "round " << round;

        ServiceClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", port, &error))
            << error;
        EXPECT_TRUE(client.ping(100 + round, &error)) << error;
    }
    server.stop();
}

} // anonymous namespace
} // namespace jitsched
