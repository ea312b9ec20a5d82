/**
 * @file
 * jitschedd — the scheduling-as-a-service daemon.
 *
 * Binds a loopback TCP port, prints the bound address, and serves
 * scheduling requests until SIGINT/SIGTERM.  All the interesting
 * machinery lives in the library (service/server.hh); this file is
 * argument parsing and signal plumbing.
 *
 * Usage:
 *   jitschedd [--address A] [--port P] [--handlers N]
 *             [--queue-depth D] [--result-cache-mb M]
 *             [--snapshot-file FILE] [--trace-out FILE]
 */

#include <signal.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "obs/instruments.hh"
#include "obs/span.hh"
#include "obs/trace_event.hh"
#include "service/server.hh"
#include "support/logging.hh"
#include "support/strutil.hh"

using namespace jitsched;

namespace {

[[noreturn]] void
usage(int rc)
{
    std::cerr <<
        "usage: jitschedd [options]\n"
        "  --address A          bind address (default 127.0.0.1)\n"
        "  --port P             bind port; 0 = ephemeral (default 0)\n"
        "  --handlers N         connection handler threads (default 4)\n"
        "  --queue-depth D      admission queue depth (default 64)\n"
        "  --result-cache-mb M  request-level result cache budget in MiB;\n"
        "                       0 disables (default: JITSCHED_RESULT_CACHE_MB,\n"
        "                       else 0)\n"
        "  --snapshot-file FILE warm-restart snapshot: loaded at startup,\n"
        "                       written on clean shutdown and on the\n"
        "                       SNAPSHOT verb (default:\n"
        "                       JITSCHED_RESULT_CACHE_SNAPSHOT, else none)\n"
        "  --trace-out FILE     at shutdown, write collected request\n"
        "                       spans as Chrome/Perfetto trace JSON\n"
        "  --help               this text\n";
    std::exit(rc);
}

std::uint64_t
intArg(const std::string &flag, const std::string &value)
{
    const auto v = parseInt(value);
    if (!v || *v < 0)
        JITSCHED_FATAL(flag, " needs a non-negative integer, got '",
                       value, "'");
    return static_cast<std::uint64_t>(*v);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    ServerConfig cfg;
    // Env defaults first; flags below override.
    cfg.resultCacheBytes =
        parseResultCacheMbEnv(std::getenv("JITSCHED_RESULT_CACHE_MB"))
        << 20;
    if (const char *snap =
            std::getenv("JITSCHED_RESULT_CACHE_SNAPSHOT"))
        cfg.snapshotPath = snap;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                JITSCHED_FATAL(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--address") {
            cfg.bindAddress = next();
        } else if (arg == "--port") {
            cfg.port = static_cast<std::uint16_t>(
                intArg(arg, next()));
        } else if (arg == "--handlers") {
            cfg.handlerThreads =
                static_cast<std::size_t>(intArg(arg, next()));
            if (cfg.handlerThreads == 0)
                JITSCHED_FATAL("--handlers must be >= 1");
        } else if (arg == "--queue-depth") {
            cfg.admission.maxDepth =
                static_cast<std::size_t>(intArg(arg, next()));
        } else if (arg == "--result-cache-mb") {
            cfg.resultCacheBytes =
                static_cast<std::size_t>(intArg(arg, next())) << 20;
        } else if (arg == "--snapshot-file") {
            cfg.snapshotPath = next();
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else {
            std::cerr << "jitschedd: unknown option '" << arg
                      << "'\n";
            usage(2);
        }
    }

    // Block the shutdown signals before any thread exists so every
    // thread the server spawns inherits the mask and only the main
    // thread's sigwait() sees them.
    sigset_t wait_set;
    sigemptyset(&wait_set);
    sigaddset(&wait_set, SIGINT);
    sigaddset(&wait_set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &wait_set, nullptr);

    ServiceEngine engine;
    // Pre-create the standard instrument inventory so a STATS scrape
    // of a fresh daemon already carries the complete key set.
    obs::registerStandardInstruments(engine.registry().names());
    ServiceServer server(engine, cfg);
    std::string error;
    if (!server.start(&error))
        JITSCHED_FATAL("cannot start: ", error);

    // One line on stdout so scripts can scrape the ephemeral port.
    std::cout << "jitschedd listening on " << server.bindAddress()
              << ":" << server.port() << std::endl;
    if (cfg.resultCacheBytes > 0)
        std::cout << "result-cache: " << (cfg.resultCacheBytes >> 20)
                  << " MiB"
                  << (cfg.snapshotPath.empty()
                          ? std::string()
                          : ", snapshot " + cfg.snapshotPath)
                  << std::endl;
    {
        const auto &pols = engine.registry().names();
        std::cout << "policies:";
        for (const std::string &p : pols)
            std::cout << " " << p;
        std::cout << std::endl;
    }

    int sig = 0;
    while (sigwait(&wait_set, &sig) != 0) {
    }

    std::cout << "jitschedd: shutting down ("
              << server.framesServed() << " frames over "
              << server.connectionsAccepted() << " connections)"
              << std::endl;
    server.stop();

    if (!trace_out.empty()) {
        // Stopped first, so every in-flight request's spans landed.
        // An idle daemon writes nothing: --trace-smoke only checks
        // files that exist.
        obs::SpanCollector &spans = obs::SpanCollector::global();
        if (spans.snapshot().empty()) {
            std::cout << "jitschedd: no spans collected; skipping "
                      << trace_out << std::endl;
        } else {
            obs::TraceEventSink sink;
            spans.exportTo(sink);
            sink.writeFile(trace_out);
            std::cout << "jitschedd: wrote " << sink.size()
                      << " trace events to " << trace_out
                      << std::endl;
        }
    }
    return 0;
}
