/**
 * @file
 * Request-scoped tracing: trace ids, spans, and the process-wide
 * span collector.
 *
 * A trace id is a nonzero 64-bit token minted at first contact
 * (jitsched-cli or the router) and propagated over the wire as the
 * optional `option trace-id <hex>` request line.  It is deliberately
 * fingerprint-neutral: neither requestFingerprint() nor the result
 * cache's key sees it, so cached answers and consistent-hash
 * affinity behave identically whether or not a request is traced
 * (DESIGN.md Sec. 5g).
 *
 * A span is one named interval attributed to a trace:
 *
 *   service.admission_wait   submit -> dequeue in the AdmissionQueue
 *   service.solve            PolicyRegistry solver run
 *   service.serialize        response serialization
 *   cluster.route_attempt    one router try (tagged backend+outcome)
 *
 * Spans land in the SpanCollector: a bounded in-memory ring guarded
 * by one mutex (3-4 records per request; contention is negligible
 * next to a solve).  exportTo() replays the ring into the existing
 * TraceEventSink, giving every trace id its own virtual thread track
 * so slices of one request nest strictly even when worker threads
 * interleave requests — the property jitsched-trace-check enforces.
 *
 * Memory bound: capacity() spans, each a name + small tag vector;
 * the default 65536-slot ring stays under ~16 MiB worst case and
 * overwrites oldest-first (dropped() counts evictions).
 */

#ifndef JITSCHED_OBS_SPAN_HH
#define JITSCHED_OBS_SPAN_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jitsched {
namespace obs {

class TraceEventSink;

/** Mint a fresh nonzero trace id (time + pid + counter mixed). */
std::uint64_t mintTraceId();

/** Lowercase hex rendering of a trace id, no 0x prefix. */
std::string traceIdHex(std::uint64_t id);

/**
 * Strict parse of a wire trace id: 1..16 hex digits (either case),
 * nonzero.  Anything else — empty, 0, overlong, stray characters —
 * returns nullopt so the protocol layer can reject the frame.
 */
std::optional<std::uint64_t> parseTraceIdHex(std::string_view s);

/** One completed interval attributed to a trace. */
struct Span
{
    std::uint64_t traceId = 0;
    std::string name;        ///< span taxonomy name, e.g. service.solve
    std::int64_t startNs = 0; ///< since the collector's epoch
    std::int64_t durNs = 0;
    std::vector<std::pair<std::string, std::string>> tags;
};

/**
 * Bounded ring of completed spans.  record() is one lock + slot
 * move; snapshot() returns spans oldest-first; exportTo() writes
 * Chrome slices with one virtual tid per trace id.
 */
class SpanCollector
{
  public:
    explicit SpanCollector(std::size_t capacity = 65536);

    /** Append one span (no-op when the collector is disabled). */
    void record(Span s);

    /**
     * Convenience: record [t0, t1) measured on the steady clock.
     * Skipped when traceId is 0 or the collector is disabled.
     */
    void recordBetween(
        std::uint64_t traceId, std::string name,
        std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1,
        std::vector<std::pair<std::string, std::string>> tags = {});

    /** Spans currently retained, oldest first. */
    std::vector<Span> snapshot() const;

    /** Drop every retained span (tests). */
    void clear();

    std::size_t capacity() const { return capacity_; }

    /** Spans evicted because the ring was full. */
    std::uint64_t dropped() const;

    /**
     * Replay retained spans into @p sink: pid 1, one virtual tid per
     * trace id (first-seen order), cat "span", thread named
     * `trace <hex>`.  Tags become slice args, plus the trace id.
     */
    void exportTo(TraceEventSink &sink) const;

    /** Nanoseconds since this collector's epoch (steady clock). */
    std::int64_t nowNs() const;

    /** Nanoseconds between the epoch and @p tp. */
    std::int64_t
    sinceEpochNs(std::chrono::steady_clock::time_point tp) const;

    /** The process-wide collector the service and router feed. */
    static SpanCollector &global();

    /**
     * Run-time switch for span recording (flight recorder is not
     * affected — it is always on).  @return the previous setting.
     */
    static bool setEnabled(bool enabled);
    static bool enabled();

  private:
    const std::size_t capacity_;
    const std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> ring_;   ///< grows to capacity_, then wraps
    std::size_t next_ = 0;     ///< ring slot the next record lands in
    std::uint64_t recorded_ = 0;
};

/**
 * RAII span: starts timing at construction, records into the global
 * collector at destruction.  A zero trace id (untraced request) or a
 * disabled collector makes the whole object a no-op.
 */
class ScopedSpan
{
  public:
    ScopedSpan(std::uint64_t traceId, std::string name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach a tag emitted with the span. */
    void tag(std::string key, std::string value);

  private:
    bool active_;
    std::uint64_t trace_id_;
    std::string name_;
    std::int64_t start_ns_ = 0;
    std::vector<std::pair<std::string, std::string>> tags_;
};

} // namespace obs
} // namespace jitsched

#endif // JITSCHED_OBS_SPAN_HH
