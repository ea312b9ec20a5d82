/**
 * @file
 * The scheduling service's request/response wire protocol.
 *
 * Text, line-oriented, built on the workload grammar of
 * trace/trace_io.hh so any trace a client can save to disk it can
 * also submit over a socket.  `#` comments and blank lines are
 * tolerated everywhere; every frame ends with a lone `end` line,
 * which is what lets a connection recover framing after a malformed
 * request.
 *
 * Request frame:
 *
 *   jitsched-request <id>
 *   policy <name>
 *   option <key> <value>        (zero or more)
 *   payload
 *   <workload text grammar>     (trace/trace_io.hh)
 *   end
 *
 * Option keys: compile-cores, model (oracle|default), jitter-sigma,
 * jitter-seed, astar-max-expansions, astar-memory-mb, deadline-ms,
 * trace-id (1..16 hex digits, nonzero — the request's distributed
 * trace id, minted at first contact by jitsched-cli or the router
 * and deliberately excluded from requestFingerprint(), so tracing a
 * request never changes cache merging or cluster affinity).
 *
 * Response frame:
 *
 *   jitsched-response <id>
 *   status ok                   | status error <CODE>
 *   error <message>             (error frames only)
 *   policy <name>
 *   lower-bound <ticks>
 *   makespan <ticks>            ┐
 *   compile-end <ticks>         │
 *   exec-end <ticks>            │
 *   total-bubble <ticks>        │ present when the policy
 *   bubble-count <n>            │ evaluated a schedule
 *   total-exec <ticks>          │
 *   total-compile <ticks>       │
 *   calls-at-level <n0> <n1> …  ┘
 *   schedule <K>                present when a schedule exists,
 *   <func> <level>              followed by K event lines
 *   stats queue-ns <q> solve-ns <s> [result-cache <r>]
 *     [trace-id <hex>]
 *   end
 *
 * Everything above the `stats` line is a pure function of the request
 * — byte-identical to a direct library call.  The `stats` line is the
 * only volatile part (queueing, wall time, result-cache service, and
 * the echoed trace id when the request carried one), so clients
 * comparing results strip exactly that line.  Parsers ignore stats
 * keys they do not know, so the `cache-hits <h> cache-misses <m>`
 * pair that older daemons put first still parses.  `result-cache`
 * appears only when the response came out of the request-level
 * result cache (1 = served from the store, 2 = collapsed onto a
 * concurrent identical solve); a cache-off daemon never emits the
 * token.
 *
 * Besides scheduling requests, a connection can scrape the daemon's
 * metrics registry (obs/metrics.hh) with a STATS frame:
 *
 *   jitsched-stats <id> [prom]
 *   end
 *
 * answered by
 *
 *   jitsched-stats-response <id>
 *   status ok                   | status error <CODE>
 *   [format prom]               (prom requests only)
 *   snapshot <N>                followed by N raw snapshot lines in
 *   <type> <name> <values...>   MetricsRegistry::snapshotText() form
 *   end
 *
 * With the `prom` argument the N snapshot lines are instead
 * MetricsRegistry::snapshotProm() Prometheus text exposition.
 * Because exposition comment lines start with '#', the N lines after
 * `snapshot` are read raw (no comment stripping) — they are counted,
 * not grammar.
 *
 * The server answers STATS frames inline on the connection handler,
 * bypassing the admission queue — scrapes keep working while the
 * queue is shedding load, which is exactly when they matter.
 *
 * The in-memory flight recorder (obs/flight_recorder.hh) is scraped
 * with a DUMP frame, also answered inline:
 *
 *   jitsched-dump <id>
 *   end
 *
 * answered by
 *
 *   jitsched-dump-response <id>
 *   status ok                   | status error <CODE>
 *   error <message>             (error frames only)
 *   records <N>                 followed by N record lines:
 *   record trace <hex> request <id> policy <p> status <s>
 *     queue-ns <q> solve-ns <n> bytes <b> hops <h> cached <0|1>
 *   end
 *
 * The result cache (service/result_cache.hh) is snapshotted to its
 * configured file on demand with a SNAPSHOT frame, also answered
 * inline:
 *
 *   jitsched-snapshot <id>
 *   end
 *
 * answered by
 *
 *   jitsched-snapshot-response <id>
 *   status ok                   | status error <CODE>
 *   error <message>             (error frames only)
 *   entries <N>                 entries written
 *   bytes <B>                   key+body payload bytes written
 *   end
 *
 * A daemon without a result cache or snapshot path answers
 * `status error INVALID_ARGUMENT` — the verb reports the
 * misconfiguration instead of silently writing nothing.
 *
 * Liveness is probed with a PING frame:
 *
 *   jitsched-ping <id>
 *   end
 *
 * answered by
 *
 *   jitsched-pong <id>
 *   status ok                   | status error <CODE>
 *   error <message>             (error frames only)
 *   end
 *
 * Like STATS, PING is answered inline on the connection handler and
 * bypasses the admission queue: a health check must answer while the
 * daemon is shedding load — a loaded backend is still a live
 * backend.  The cluster router's health-state machine
 * (cluster/backend.hh) is driven entirely by this verb.
 */

#ifndef JITSCHED_SERVICE_PROTOCOL_HH
#define JITSCHED_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/schedule.hh"
#include "obs/flight_recorder.hh"
#include "service/policy.hh"
#include "sim/makespan.hh"
#include "trace/workload.hh"

namespace jitsched {

/** One scheduling query. */
struct ServiceRequest
{
    /** Client-chosen id, echoed in the response. */
    std::uint64_t id = 0;

    /** Policy name (see service/policy.hh). */
    std::string policy;

    /** Solver options. */
    ServiceOptions options;

    /**
     * Distributed trace id; 0 means untraced.  Carried as the
     * optional `option trace-id <hex>` line, lives outside
     * ServiceOptions on purpose: requestFingerprint(),
     * ServiceOptions::operator== and the result-cache key must never
     * see it (tracing a request must not split a cached answer or
     * move the request to another backend).
     */
    std::uint64_t traceId = 0;

    /** The OCSP instance to schedule. */
    Workload workload;
};

/** Machine-readable error codes carried on `status error` lines. */
namespace errcode {
inline constexpr const char *invalidArgument = "INVALID_ARGUMENT";
inline constexpr const char *deadlineExceeded = "DEADLINE_EXCEEDED";
inline constexpr const char *resourceExhausted = "RESOURCE_EXHAUSTED";
inline constexpr const char *solverLimit = "SOLVER_LIMIT";
inline constexpr const char *unavailable = "UNAVAILABLE";
} // namespace errcode

/** Volatile per-request serving statistics (the `stats` line). */
struct ServiceStats
{
    /**
     * Always 0, never on the wire: the engine keeps no memo.  Left
     * for the end-to-end benchmark, which still reads them.
     */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0; ///< always 0, like cacheHits

    std::int64_t queueNs = 0;      ///< admission -> processing start
    std::int64_t solveNs = 0;      ///< processing wall time

    /**
     * How the result cache served this response: 0 = not served from
     * it (miss, or cache off — the token is then omitted from the
     * wire), 1 = answered from the store, 2 = collapsed onto a
     * concurrent identical solve (singleflight follower).
     */
    std::uint64_t resultCache = 0;

    std::uint64_t traceId = 0;     ///< echoed trace id; 0 untraced
};

/** One scheduling answer. */
struct ServiceResponse
{
    std::uint64_t id = 0;

    bool ok = false;

    /** Error code (errcode::*); empty on ok. */
    std::string code;

    /** Human-readable error message; empty on ok. */
    std::string error;

    /** Policy that served the request (empty if never resolved). */
    std::string policy;

    Tick lowerBound = 0;

    /** Whether `sim` is populated. */
    bool hasSim = false;

    /** Make-span evaluation (subset of SimResult serialized). */
    SimResult sim;

    /** Whether `schedule` is populated. */
    bool hasSchedule = false;

    /** The compilation schedule, as bare events. */
    std::vector<CompileEvent> schedule;

    /** Volatile serving statistics. */
    ServiceStats stats;
};

/** A metrics scrape: no payload, just the echoed id. */
struct StatsRequest
{
    std::uint64_t id = 0;

    /** Ask for Prometheus text exposition instead of snapshotText. */
    bool prom = false;
};

/** A registry snapshot, one raw snapshot line per entry. */
struct StatsResponse
{
    std::uint64_t id = 0;

    bool ok = false;

    /** Error code (errcode::*); empty on ok. */
    std::string code;

    /** Human-readable error message; empty on ok. */
    std::string error;

    /** Lines are snapshotProm() exposition, not snapshotText(). */
    bool prom = false;

    /** Snapshot lines, e.g. `counter exec.cache.hits 12`. */
    std::vector<std::string> lines;
};

/** Request frame as a string (what the client sends). */
std::string requestText(const ServiceRequest &req);

/**
 * Append the `policy` line and the `option` lines that decide the
 * answer — every option but deadline-ms and trace-id — in
 * requestText()'s order.  Shared with the result cache's key
 * (ResultCache::keyMaterial), so the two cannot drift apart.
 */
void appendPolicyAndOptions(std::string &out, const ServiceRequest &req);

/**
 * Parse one request frame held in memory, in a single pass over its
 * bytes; parsing ends at the frame's `end` line and ignores anything
 * after it.  This is what the server and router call on the frame
 * they have already read.
 * @param error receives a description of the first problem
 * @return the request, or nullopt on malformed input
 */
std::optional<ServiceRequest>
tryReadRequest(std::string_view frame, std::string *error = nullptr);

/**
 * Stream form of the above: reads through the frame's `end` line,
 * leaving the rest of the stream unread, then parses those lines.
 * Same accept set and error strings.
 */
std::optional<ServiceRequest>
tryReadRequest(std::istream &is, std::string *error = nullptr);

/**
 * Serialize a response frame.
 * @param include_stats when false the volatile `stats` line is
 *        omitted — the deterministic block clients compare on
 */
void writeResponse(std::ostream &os, const ServiceResponse &resp,
                   bool include_stats = true);

/** Response frame as a string. */
std::string responseText(const ServiceResponse &resp,
                         bool include_stats = true);

/**
 * Serialize just the volatile `stats ...` line (newline included) —
 * what writeResponse() appends and what the result cache stitches
 * onto a stored body to rebuild a full frame.
 */
void writeStatsLine(std::ostream &os, const ServiceStats &stats);

/** Parse one response frame, consuming through its `end` line. */
std::optional<ServiceResponse>
tryReadResponse(std::istream &is, std::string *error = nullptr);

/** Build an error response. */
ServiceResponse makeErrorResponse(std::uint64_t id,
                                  const std::string &code,
                                  const std::string &message);

/** A liveness probe: no payload, just the echoed id. */
struct PingRequest
{
    std::uint64_t id = 0;
};

/** The probe's answer. */
struct PongResponse
{
    std::uint64_t id = 0;

    bool ok = false;

    /** Error code (errcode::*); empty on ok. */
    std::string code;

    /** Human-readable error message; empty on ok. */
    std::string error;
};

/** Stats-request frame as a string. */
std::string statsRequestText(const StatsRequest &req);

/** Parse one stats-request frame, consuming through `end`. */
std::optional<StatsRequest>
tryReadStatsRequest(std::istream &is, std::string *error = nullptr);

/** Serialize a stats-response frame. */
void writeStatsResponse(std::ostream &os, const StatsResponse &resp);

/** Stats-response frame as a string. */
std::string statsResponseText(const StatsResponse &resp);

/** Parse one stats-response frame, consuming through `end`. */
std::optional<StatsResponse>
tryReadStatsResponse(std::istream &is, std::string *error = nullptr);

/**
 * Build an ok stats response from snapshotText() or (@p prom)
 * snapshotProm() output.
 */
StatsResponse makeStatsResponse(std::uint64_t id,
                                const std::string &snapshot_text,
                                bool prom = false);

/** A flight-recorder scrape: no payload, just the echoed id. */
struct DumpRequest
{
    std::uint64_t id = 0;
};

/** The flight recorder's retained records, oldest first. */
struct DumpResponse
{
    std::uint64_t id = 0;

    bool ok = false;

    /** Error code (errcode::*); empty on ok. */
    std::string code;

    /** Human-readable error message; empty on ok. */
    std::string error;

    /** Retained records (seq is not carried over the wire). */
    std::vector<obs::FlightRecord> records;
};

/** Dump-request frame as a string. */
std::string dumpRequestText(const DumpRequest &req);

/** Parse one dump-request frame, consuming through `end`. */
std::optional<DumpRequest>
tryReadDumpRequest(std::istream &is, std::string *error = nullptr);

/** Dump-response frame as a string. */
std::string dumpResponseText(const DumpResponse &resp);

/** Parse one dump-response frame, consuming through `end`. */
std::optional<DumpResponse>
tryReadDumpResponse(std::istream &is, std::string *error = nullptr);

/** Build an ok dump response from a recorder snapshot. */
DumpResponse
makeDumpResponse(std::uint64_t id,
                 const std::vector<obs::FlightRecord> &records);

/** A result-cache snapshot trigger: no payload, just the echoed id. */
struct SnapshotRequest
{
    std::uint64_t id = 0;
};

/** What the snapshot wrote. */
struct SnapshotResponse
{
    std::uint64_t id = 0;

    bool ok = false;

    /** Error code (errcode::*); empty on ok. */
    std::string code;

    /** Human-readable error message; empty on ok. */
    std::string error;

    /** Entries written to the snapshot file. */
    std::uint64_t entries = 0;

    /** Key + body payload bytes written. */
    std::uint64_t bytes = 0;
};

/** Snapshot-request frame as a string. */
std::string snapshotRequestText(const SnapshotRequest &req);

/** Parse one snapshot-request frame, consuming through `end`. */
std::optional<SnapshotRequest>
tryReadSnapshotRequest(std::istream &is, std::string *error = nullptr);

/** Snapshot-response frame as a string. */
std::string snapshotResponseText(const SnapshotResponse &resp);

/** Parse one snapshot-response frame, consuming through `end`. */
std::optional<SnapshotResponse>
tryReadSnapshotResponse(std::istream &is, std::string *error = nullptr);

/** Build an ok snapshot response. */
SnapshotResponse makeSnapshotResponse(std::uint64_t id,
                                      std::uint64_t entries,
                                      std::uint64_t bytes);

/** Ping frame as a string. */
std::string pingRequestText(const PingRequest &req);

/** Parse one ping frame, consuming through `end`. */
std::optional<PingRequest>
tryReadPingRequest(std::istream &is, std::string *error = nullptr);

/** Pong frame as a string. */
std::string pongResponseText(const PongResponse &resp);

/** Parse one pong frame, consuming through `end`. */
std::optional<PongResponse>
tryReadPongResponse(std::istream &is, std::string *error = nullptr);

/** Build an ok pong for @p id. */
PongResponse makePongResponse(std::uint64_t id);

/**
 * First token of the frame's first meaningful line (empty when there
 * is none), as a view into @p frame — how the connection handlers
 * route a frame to its verb without attempting a full parse.
 */
std::string_view frameTag(std::string_view frame);

/**
 * True when @p raw_line (after comment/whitespace stripping) is the
 * `end` frame terminator — the framing test connection handlers use.
 */
bool isFrameEnd(std::string_view raw_line);

/**
 * Content fingerprint of a request: policy + options + workload —
 * the cluster router's affinity key.  Requests that differ only in
 * what the canonical frame drops (id, deadline-ms, trace-id, and
 * jitter-seed while jitter-sigma is 0) have identical fingerprints,
 * so a repeat lands on the backend whose result cache holds its
 * answer.  Tracing is an observer: an observed request must route
 * exactly like an unobserved one.
 */
std::uint64_t requestFingerprint(const ServiceRequest &req);

} // namespace jitsched

#endif // JITSCHED_SERVICE_PROTOCOL_HH
