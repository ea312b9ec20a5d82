#include "service/protocol.hh"

#include <algorithm>
#include <bit>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "exec/eval_cache.hh"
#include "obs/span.hh"
#include "support/logging.hh"
#include "support/strutil.hh"
#include "support/text_cursor.hh"
#include "trace/trace_io.hh"

namespace jitsched {

namespace {

/** Next non-empty cleaned line, or nullopt at EOF. */
std::optional<std::string>
nextLine(std::istream &is)
{
    std::string raw;
    while (std::getline(is, raw)) {
        const std::string_view line = cleanLine(raw);
        if (!line.empty())
            return std::string(line);
    }
    return std::nullopt;
}

bool
parseFail(std::string *error, const std::string &msg)
{
    if (error != nullptr)
        *error = "protocol parse error: " + msg;
    return false;
}

/** splitmix64 finalizer — the repo's standard bit mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
hashCombine(std::uint64_t seed, std::uint64_t v)
{
    return mix64(seed ^ mix64(v));
}

/**
 * Append a double so that it round-trips through parseDouble: the
 * max_digits10 ostream form, which is not to_chars' shortest form.
 */
void
appendDouble(std::string &out, double v)
{
    std::ostringstream tmp;
    tmp.precision(std::numeric_limits<double>::max_digits10);
    tmp << v;
    out += tmp.str();
}

/** `<tag> <id>` and a newline: the first line of every frame. */
std::string
headerLine(const char *tag, std::uint64_t id)
{
    std::string out = tag;
    out += ' ';
    appendInt(out, id);
    out += '\n';
    return out;
}

/** The `status error <CODE>` and `error <message>` lines. */
void
appendErrorStatus(std::string &out, const std::string &code,
                  const std::string &message)
{
    out += "status error ";
    out += code.empty() ? errcode::unavailable : code.c_str();
    out += "\nerror ";
    out += message;
    out += '\n';
}

} // anonymous namespace

bool
isFrameEnd(std::string_view raw_line)
{
    return cleanLine(raw_line) == "end";
}

void
appendPolicyAndOptions(std::string &out, const ServiceRequest &req)
{
    out += "policy ";
    out += req.policy;
    const ServiceOptions &o = req.options;
    out += "\noption compile-cores ";
    appendInt(out, o.compileCores);
    out += o.model == ModelKind::Oracle ? "\noption model oracle\n"
                                        : "\noption model default\n";
    if (o.jitterSigma != 0.0) {
        out += "option jitter-sigma ";
        appendDouble(out, o.jitterSigma);
        out += "\noption jitter-seed ";
        appendInt(out, o.jitterSeed);
        out += '\n';
    }
    out += "option astar-max-expansions ";
    appendInt(out, o.astarMaxExpansions);
    out += "\noption astar-memory-mb ";
    appendInt(out, o.astarMemoryMb);
    out += '\n';
    // Serialized only when set: requests that never mention threads
    // stay byte-identical to what pre-astar-par builds emitted.  Part
    // of the cache key when set: the parallel search promises cost
    // determinism across worker counts, not schedule identity.
    if (o.astarThreads != 0) {
        out += "option threads ";
        appendInt(out, o.astarThreads);
        out += '\n';
    }
}

std::string
requestText(const ServiceRequest &req)
{
    std::string out;
    out += "jitsched-request ";
    appendInt(out, req.id);
    out += '\n';
    appendPolicyAndOptions(out, req);
    if (req.options.deadlineMs >= 0) {
        out += "option deadline-ms ";
        appendInt(out, req.options.deadlineMs);
        out += '\n';
    }
    // Like threads: untraced requests stay byte-identical to what
    // pre-tracing builds emitted.
    if (req.traceId != 0) {
        out += "option trace-id ";
        out += obs::traceIdHex(req.traceId);
        out += '\n';
    }
    out += "payload\n";
    appendWorkloadText(out, req.workload);
    out += "end\n";
    return out;
}

namespace {

/** Apply one `option <key> <value>` line; false + error on failure. */
bool
applyOption(ServiceRequest &req, const std::string &key,
            const std::string &value, std::string *error)
{
    ServiceOptions &o = req.options;
    const auto asInt = [&]() { return parseInt(value); };

    if (key == "compile-cores") {
        const auto v = asInt();
        if (!v || *v < 1)
            return parseFail(error, "option compile-cores must be an "
                             "integer >= 1, got '" + value + "'");
        o.compileCores = static_cast<std::size_t>(*v);
        return true;
    }
    if (key == "model") {
        if (value == "oracle")
            o.model = ModelKind::Oracle;
        else if (value == "default")
            o.model = ModelKind::Default;
        else
            return parseFail(error, "option model must be 'oracle' or "
                             "'default', got '" + value + "'");
        return true;
    }
    if (key == "jitter-sigma") {
        const auto v = parseDouble(value);
        if (!v || *v < 0.0)
            return parseFail(error, "option jitter-sigma must be a "
                             "number >= 0, got '" + value + "'");
        o.jitterSigma = *v;
        return true;
    }
    if (key == "jitter-seed") {
        const auto v = asInt();
        if (!v || *v < 0)
            return parseFail(error, "option jitter-seed must be a "
                             "non-negative integer, got '" + value +
                             "'");
        o.jitterSeed = static_cast<std::uint64_t>(*v);
        return true;
    }
    if (key == "astar-max-expansions") {
        const auto v = asInt();
        if (!v || *v < 0)
            return parseFail(error, "option astar-max-expansions must "
                             "be a non-negative integer, got '" +
                             value + "'");
        o.astarMaxExpansions = static_cast<std::uint64_t>(*v);
        return true;
    }
    if (key == "astar-memory-mb") {
        const auto v = asInt();
        if (!v || *v < 1)
            return parseFail(error, "option astar-memory-mb must be "
                             "an integer >= 1, got '" + value + "'");
        o.astarMemoryMb = static_cast<std::uint64_t>(*v);
        return true;
    }
    if (key == "threads") {
        const auto v = asInt();
        if (!v || *v < 1)
            return parseFail(error, "option threads must be an "
                             "integer >= 1, got '" + value + "'");
        o.astarThreads = static_cast<std::size_t>(*v);
        return true;
    }
    if (key == "deadline-ms") {
        const auto v = asInt();
        if (!v || *v < 0)
            return parseFail(error, "option deadline-ms must be a "
                             "non-negative integer, got '" + value +
                             "'");
        o.deadlineMs = *v;
        return true;
    }
    if (key == "trace-id") {
        const auto v = obs::parseTraceIdHex(value);
        if (!v)
            return parseFail(error, "option trace-id must be 1-16 "
                             "hex digits and nonzero, got '" + value +
                             "'");
        req.traceId = *v;
        return true;
    }
    return parseFail(error, "unknown option '" + key + "'");
}

} // anonymous namespace

std::optional<ServiceRequest>
tryReadRequest(std::string_view frame, std::string *error)
{
    ServiceRequest req;
    LineCursor lines(frame);

    const auto header = lines.next();
    if (!header) {
        parseFail(error, "empty request frame");
        return std::nullopt;
    }
    {
        Tokens hs(*header);
        const std::string_view tag = hs.next();
        const std::string_view id_tok = hs.next();
        if (tag != "jitsched-request") {
            parseFail(error, "expected 'jitsched-request <id>', got '" +
                      std::string(*header) + "'");
            return std::nullopt;
        }
        const auto id = parseIntToken(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad request id '" + std::string(id_tok) +
                      "'");
            return std::nullopt;
        }
        req.id = static_cast<std::uint64_t>(*id);
    }

    // Preamble: policy and options, up to the payload marker.
    for (;;) {
        const auto line = lines.next();
        if (!line) {
            parseFail(error, "request truncated before payload");
            return std::nullopt;
        }
        if (*line == "payload")
            break;
        if (*line == "end") {
            parseFail(error, "request has no payload");
            return std::nullopt;
        }
        Tokens ls(*line);
        const std::string_view key = ls.next();
        if (key == "policy") {
            // A bare `policy` line keeps the previous policy.
            if (const std::string_view name = ls.next(); !name.empty())
                req.policy = name;
            if (req.policy.empty()) {
                parseFail(error, "policy line names no policy");
                return std::nullopt;
            }
        } else if (key == "option") {
            const std::string_view opt_key = ls.next();
            const std::string_view opt_value = ls.next();
            if (opt_key.empty() || opt_value.empty()) {
                parseFail(error,
                          "option line needs a key and a value");
                return std::nullopt;
            }
            if (!applyOption(req, std::string(opt_key),
                             std::string(opt_value), error))
                return std::nullopt;
        } else {
            parseFail(error, "unknown directive '" + std::string(key) +
                      "' before payload");
            return std::nullopt;
        }
    }

    if (req.policy.empty()) {
        parseFail(error, "request names no policy");
        return std::nullopt;
    }

    std::string wl_error;
    auto w = tryReadWorkload(lines.rest(), &wl_error, "end");
    if (!w) {
        if (error != nullptr)
            *error = wl_error;
        return std::nullopt;
    }
    req.workload = *std::move(w);
    return req;
}

std::optional<ServiceRequest>
tryReadRequest(std::istream &is, std::string *error)
{
    return tryReadRequest(readThroughLine(is, "end"), error);
}

void
writeResponse(std::ostream &os, const ServiceResponse &resp,
              bool include_stats)
{
    os << "jitsched-response " << resp.id << "\n";
    if (resp.ok) {
        os << "status ok\n";
    } else {
        os << "status error "
           << (resp.code.empty() ? errcode::unavailable : resp.code)
           << "\n";
        os << "error " << resp.error << "\n";
    }
    if (!resp.policy.empty())
        os << "policy " << resp.policy << "\n";
    if (resp.ok) {
        os << "lower-bound " << resp.lowerBound << "\n";
        if (resp.hasSim) {
            const SimResult &s = resp.sim;
            os << "makespan " << s.makespan << "\n";
            os << "compile-end " << s.compileEnd << "\n";
            os << "exec-end " << s.execEnd << "\n";
            os << "total-bubble " << s.totalBubble << "\n";
            os << "bubble-count " << s.bubbleCount << "\n";
            os << "total-exec " << s.totalExec << "\n";
            os << "total-compile " << s.totalCompile << "\n";
            if (!s.callsAtLevel.empty()) {
                os << "calls-at-level";
                for (const std::uint64_t n : s.callsAtLevel)
                    os << ' ' << n;
                os << "\n";
            }
        }
        if (resp.hasSchedule) {
            os << "schedule " << resp.schedule.size() << "\n";
            for (const CompileEvent &ev : resp.schedule)
                os << ev.func << ' ' << static_cast<int>(ev.level)
                   << "\n";
        }
    }
    if (include_stats)
        writeStatsLine(os, resp.stats);
    os << "end\n";
}

void
writeStatsLine(std::ostream &os, const ServiceStats &stats)
{
    os << "stats queue-ns " << stats.queueNs << " solve-ns "
       << stats.solveNs;
    // Emitted only when the result cache served the response: a
    // cache-off daemon's stats line never mentions it.
    if (stats.resultCache != 0)
        os << " result-cache " << stats.resultCache;
    if (stats.traceId != 0)
        os << " trace-id " << obs::traceIdHex(stats.traceId);
    os << "\n";
}

std::string
responseText(const ServiceResponse &resp, bool include_stats)
{
    std::ostringstream os;
    writeResponse(os, resp, include_stats);
    return os.str();
}

namespace {

/** Parse `<key> <int>` tails of the response grammar. */
bool
intField(std::istringstream &ls, const char *what, std::int64_t *out,
         std::string *error)
{
    std::string tok;
    ls >> tok;
    const auto v = parseInt(tok);
    if (!v)
        return parseFail(error, std::string("bad ") + what + " '" +
                         tok + "'");
    *out = *v;
    return true;
}

} // anonymous namespace

std::optional<ServiceResponse>
tryReadResponse(std::istream &is, std::string *error)
{
    ServiceResponse resp;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty response frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-response") {
            parseFail(error,
                      "expected 'jitsched-response <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad response id '" + id_tok + "'");
            return std::nullopt;
        }
        resp.id = static_cast<std::uint64_t>(*id);
    }

    bool saw_status = false;
    for (;;) {
        const auto line = nextLine(is);
        if (!line) {
            parseFail(error, "response truncated (no 'end')");
            return std::nullopt;
        }
        if (*line == "end")
            break;

        std::istringstream ls(*line);
        std::string key;
        ls >> key;
        std::int64_t v = 0;

        if (key == "status") {
            std::string st;
            ls >> st;
            if (st == "ok") {
                resp.ok = true;
            } else if (st == "error") {
                resp.ok = false;
                ls >> resp.code;
                if (resp.code.empty()) {
                    parseFail(error, "status error carries no code");
                    return std::nullopt;
                }
            } else {
                parseFail(error, "bad status '" + st + "'");
                return std::nullopt;
            }
            saw_status = true;
        } else if (key == "error") {
            // The message is the rest of the line.
            constexpr std::size_t skip = sizeof("error ") - 1;
            resp.error = line->size() > skip ? line->substr(skip) : "";
        } else if (key == "policy") {
            ls >> resp.policy;
        } else if (key == "lower-bound") {
            if (!intField(ls, "lower-bound", &v, error))
                return std::nullopt;
            resp.lowerBound = v;
        } else if (key == "makespan") {
            if (!intField(ls, "makespan", &v, error))
                return std::nullopt;
            resp.sim.makespan = v;
            resp.hasSim = true;
        } else if (key == "compile-end") {
            if (!intField(ls, "compile-end", &v, error))
                return std::nullopt;
            resp.sim.compileEnd = v;
        } else if (key == "exec-end") {
            if (!intField(ls, "exec-end", &v, error))
                return std::nullopt;
            resp.sim.execEnd = v;
        } else if (key == "total-bubble") {
            if (!intField(ls, "total-bubble", &v, error))
                return std::nullopt;
            resp.sim.totalBubble = v;
        } else if (key == "bubble-count") {
            if (!intField(ls, "bubble-count", &v, error))
                return std::nullopt;
            resp.sim.bubbleCount = static_cast<std::uint64_t>(v);
        } else if (key == "total-exec") {
            if (!intField(ls, "total-exec", &v, error))
                return std::nullopt;
            resp.sim.totalExec = v;
        } else if (key == "total-compile") {
            if (!intField(ls, "total-compile", &v, error))
                return std::nullopt;
            resp.sim.totalCompile = v;
        } else if (key == "calls-at-level") {
            std::string tok;
            while (ls >> tok) {
                const auto n = parseInt(tok);
                if (!n || *n < 0) {
                    parseFail(error, "bad calls-at-level entry '" +
                              tok + "'");
                    return std::nullopt;
                }
                resp.sim.callsAtLevel.push_back(
                    static_cast<std::uint64_t>(*n));
            }
        } else if (key == "schedule") {
            if (!intField(ls, "schedule size", &v, error))
                return std::nullopt;
            if (v < 0) {
                parseFail(error, "negative schedule size");
                return std::nullopt;
            }
            resp.hasSchedule = true;
            // The declared size is foreign input: cap the reserve so
            // an absurd header cannot throw length_error/bad_alloc;
            // push_back below grows past the cap if the events really
            // arrive, and a short frame fails "schedule truncated".
            resp.schedule.reserve(
                std::min(static_cast<std::size_t>(v),
                         std::size_t(1) << 20));
            for (std::int64_t i = 0; i < v; ++i) {
                const auto ev_line = nextLine(is);
                if (!ev_line) {
                    parseFail(error, "schedule truncated");
                    return std::nullopt;
                }
                std::istringstream es(*ev_line);
                std::string f_tok, l_tok;
                es >> f_tok >> l_tok;
                const auto f = parseInt(f_tok);
                const auto l = parseInt(l_tok);
                if (!f || *f < 0 || !l || *l < 0) {
                    parseFail(error, "bad schedule event '" +
                              *ev_line + "'");
                    return std::nullopt;
                }
                resp.schedule.push_back(
                    {static_cast<FuncId>(*f),
                     static_cast<Level>(*l)});
            }
        } else if (key == "stats") {
            std::string k, val;
            while (ls >> k >> val) {
                // trace-id is hex, not an integer — handle it before
                // the generic numeric path.
                if (k == "trace-id") {
                    const auto t = obs::parseTraceIdHex(val);
                    if (!t) {
                        parseFail(error, "bad stats trace-id '" + val +
                                  "'");
                        return std::nullopt;
                    }
                    resp.stats.traceId = *t;
                    continue;
                }
                const auto n = parseInt(val);
                if (!n) {
                    parseFail(error, "bad stats value '" + val + "'");
                    return std::nullopt;
                }
                if (k == "queue-ns")
                    resp.stats.queueNs = *n;
                else if (k == "solve-ns")
                    resp.stats.solveNs = *n;
                else if (k == "result-cache")
                    resp.stats.resultCache =
                        static_cast<std::uint64_t>(*n);
                // Unknown stats keys are ignored (forward compat).
            }
        } else {
            parseFail(error, "unknown response directive '" + key +
                      "'");
            return std::nullopt;
        }
    }

    if (!saw_status) {
        parseFail(error, "response carries no status");
        return std::nullopt;
    }
    return resp;
}

ServiceResponse
makeErrorResponse(std::uint64_t id, const std::string &code,
                  const std::string &message)
{
    ServiceResponse resp;
    resp.id = id;
    resp.ok = false;
    resp.code = code;
    resp.error = message;
    return resp;
}

std::string
statsRequestText(const StatsRequest &req)
{
    std::string out = "jitsched-stats ";
    appendInt(out, req.id);
    out += req.prom ? " prom\nend\n" : "\nend\n";
    return out;
}

std::optional<StatsRequest>
tryReadStatsRequest(std::istream &is, std::string *error)
{
    StatsRequest req;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty stats-request frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok, arg;
        hs >> tag >> id_tok;
        if (tag != "jitsched-stats") {
            parseFail(error, "expected 'jitsched-stats <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad stats-request id '" + id_tok + "'");
            return std::nullopt;
        }
        req.id = static_cast<std::uint64_t>(*id);
        if (hs >> arg) {
            if (arg != "prom") {
                parseFail(error, "bad stats-request argument '" +
                          arg + "' (only 'prom' is known)");
                return std::nullopt;
            }
            req.prom = true;
        }
    }

    const auto tail = nextLine(is);
    if (!tail || *tail != "end") {
        parseFail(error, "stats request carries a body (expected "
                  "'end')");
        return std::nullopt;
    }
    return req;
}

void
writeStatsResponse(std::ostream &os, const StatsResponse &resp)
{
    os << "jitsched-stats-response " << resp.id << "\n";
    if (resp.ok) {
        os << "status ok\n";
        if (resp.prom)
            os << "format prom\n";
        os << "snapshot " << resp.lines.size() << "\n";
        for (const std::string &line : resp.lines)
            os << line << "\n";
    } else {
        os << "status error "
           << (resp.code.empty() ? errcode::unavailable : resp.code)
           << "\n";
        os << "error " << resp.error << "\n";
    }
    os << "end\n";
}

std::string
statsResponseText(const StatsResponse &resp)
{
    std::ostringstream os;
    writeStatsResponse(os, resp);
    return os.str();
}

std::optional<StatsResponse>
tryReadStatsResponse(std::istream &is, std::string *error)
{
    StatsResponse resp;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty stats-response frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-stats-response") {
            parseFail(error,
                      "expected 'jitsched-stats-response <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad stats-response id '" + id_tok + "'");
            return std::nullopt;
        }
        resp.id = static_cast<std::uint64_t>(*id);
    }

    bool saw_status = false;
    for (;;) {
        const auto line = nextLine(is);
        if (!line) {
            parseFail(error, "stats response truncated (no 'end')");
            return std::nullopt;
        }
        if (*line == "end")
            break;

        std::istringstream ls(*line);
        std::string key;
        ls >> key;

        if (key == "status") {
            std::string st;
            ls >> st;
            if (st == "ok") {
                resp.ok = true;
            } else if (st == "error") {
                resp.ok = false;
                ls >> resp.code;
                if (resp.code.empty()) {
                    parseFail(error, "status error carries no code");
                    return std::nullopt;
                }
            } else {
                parseFail(error, "bad status '" + st + "'");
                return std::nullopt;
            }
            saw_status = true;
        } else if (key == "error") {
            constexpr std::size_t skip = sizeof("error ") - 1;
            resp.error = line->size() > skip ? line->substr(skip) : "";
        } else if (key == "format") {
            std::string fmt;
            ls >> fmt;
            if (fmt != "prom") {
                parseFail(error, "unknown snapshot format '" + fmt +
                          "'");
                return std::nullopt;
            }
            resp.prom = true;
        } else if (key == "snapshot") {
            std::int64_t v = 0;
            if (!intField(ls, "snapshot size", &v, error))
                return std::nullopt;
            if (v < 0) {
                parseFail(error, "negative snapshot size");
                return std::nullopt;
            }
            // The N snapshot lines are counted payload, not grammar:
            // read them raw.  Prometheus exposition has '#' comment
            // lines the cleaning reader would swallow, desyncing the
            // declared count.
            resp.lines.reserve(
                std::min(static_cast<std::size_t>(v),
                         std::size_t(1) << 16));
            std::string raw;
            for (std::int64_t i = 0; i < v; ++i) {
                if (!std::getline(is, raw)) {
                    parseFail(error, "snapshot truncated");
                    return std::nullopt;
                }
                resp.lines.push_back(raw);
            }
        } else {
            parseFail(error, "unknown stats-response directive '" +
                      key + "'");
            return std::nullopt;
        }
    }

    if (!saw_status) {
        parseFail(error, "stats response carries no status");
        return std::nullopt;
    }
    return resp;
}

StatsResponse
makeStatsResponse(std::uint64_t id, const std::string &snapshot_text,
                  bool prom)
{
    StatsResponse resp;
    resp.id = id;
    resp.ok = true;
    resp.prom = prom;
    std::istringstream is(snapshot_text);
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty())
            resp.lines.push_back(line);
    }
    return resp;
}

std::string
dumpRequestText(const DumpRequest &req)
{
    return headerLine("jitsched-dump", req.id) + "end\n";
}

std::optional<DumpRequest>
tryReadDumpRequest(std::istream &is, std::string *error)
{
    DumpRequest req;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty dump-request frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-dump") {
            parseFail(error, "expected 'jitsched-dump <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad dump-request id '" + id_tok + "'");
            return std::nullopt;
        }
        req.id = static_cast<std::uint64_t>(*id);
    }

    const auto tail = nextLine(is);
    if (!tail || *tail != "end") {
        parseFail(error, "dump request carries a body (expected "
                  "'end')");
        return std::nullopt;
    }
    return req;
}

std::string
dumpResponseText(const DumpResponse &resp)
{
    std::string out = headerLine("jitsched-dump-response", resp.id);
    if (resp.ok) {
        out += "status ok\nrecords ";
        appendInt(out, resp.records.size());
        out += '\n';
        for (const obs::FlightRecord &r : resp.records) {
            out += "record ";
            out += obs::FlightRecorder::recordLine(r);
            out += '\n';
        }
    } else {
        appendErrorStatus(out, resp.code, resp.error);
    }
    out += "end\n";
    return out;
}

namespace {

/** Parse one `record ...` line's key/value tail. */
bool
parseRecordLine(std::istringstream &ls, obs::FlightRecord *out,
                std::string *error)
{
    std::string k, val;
    while (ls >> k >> val) {
        if (k == "trace") {
            if (val == "0") {
                out->traceId = 0;
                continue;
            }
            const auto t = obs::parseTraceIdHex(val);
            if (!t)
                return parseFail(error, "bad record trace id '" + val +
                                 "'");
            out->traceId = *t;
        } else if (k == "policy") {
            out->policy = val == "-" ? "" : val;
        } else if (k == "status") {
            out->status = val == "-" ? "" : val;
        } else {
            const auto n = parseInt(val);
            if (!n)
                return parseFail(error, "bad record value '" + val +
                                 "' for '" + k + "'");
            if (k == "request")
                out->requestId = static_cast<std::uint64_t>(*n);
            else if (k == "queue-ns")
                out->queueNs = *n;
            else if (k == "solve-ns")
                out->solveNs = *n;
            else if (k == "bytes")
                out->bytes = static_cast<std::uint64_t>(*n);
            else if (k == "hops")
                out->hops = static_cast<std::uint32_t>(*n);
            else if (k == "cached")
                out->cached = *n != 0;
            // Unknown numeric keys are ignored (forward compat).
        }
    }
    return true;
}

} // anonymous namespace

std::optional<DumpResponse>
tryReadDumpResponse(std::istream &is, std::string *error)
{
    DumpResponse resp;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty dump-response frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-dump-response") {
            parseFail(error,
                      "expected 'jitsched-dump-response <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad dump-response id '" + id_tok + "'");
            return std::nullopt;
        }
        resp.id = static_cast<std::uint64_t>(*id);
    }

    bool saw_status = false;
    std::int64_t declared = -1;
    for (;;) {
        const auto line = nextLine(is);
        if (!line) {
            parseFail(error, "dump response truncated (no 'end')");
            return std::nullopt;
        }
        if (*line == "end")
            break;

        std::istringstream ls(*line);
        std::string key;
        ls >> key;

        if (key == "status") {
            std::string st;
            ls >> st;
            if (st == "ok") {
                resp.ok = true;
            } else if (st == "error") {
                resp.ok = false;
                ls >> resp.code;
                if (resp.code.empty()) {
                    parseFail(error, "status error carries no code");
                    return std::nullopt;
                }
            } else {
                parseFail(error, "bad status '" + st + "'");
                return std::nullopt;
            }
            saw_status = true;
        } else if (key == "error") {
            constexpr std::size_t skip = sizeof("error ") - 1;
            resp.error = line->size() > skip ? line->substr(skip) : "";
        } else if (key == "records") {
            if (!intField(ls, "records size", &declared, error))
                return std::nullopt;
            if (declared < 0) {
                parseFail(error, "negative records size");
                return std::nullopt;
            }
            // Foreign input: cap the reserve like schedule/snapshot.
            resp.records.reserve(
                std::min(static_cast<std::size_t>(declared),
                         std::size_t(1) << 16));
        } else if (key == "record") {
            obs::FlightRecord r;
            if (!parseRecordLine(ls, &r, error))
                return std::nullopt;
            resp.records.push_back(std::move(r));
        } else {
            parseFail(error, "unknown dump-response directive '" +
                      key + "'");
            return std::nullopt;
        }
    }

    if (!saw_status) {
        parseFail(error, "dump response carries no status");
        return std::nullopt;
    }
    if (resp.ok && declared >= 0 &&
        static_cast<std::size_t>(declared) != resp.records.size()) {
        parseFail(error, "dump response declared " +
                  std::to_string(declared) + " records but carried " +
                  std::to_string(resp.records.size()));
        return std::nullopt;
    }
    return resp;
}

DumpResponse
makeDumpResponse(std::uint64_t id,
                 const std::vector<obs::FlightRecord> &records)
{
    DumpResponse resp;
    resp.id = id;
    resp.ok = true;
    resp.records = records;
    return resp;
}

std::string
snapshotRequestText(const SnapshotRequest &req)
{
    return headerLine("jitsched-snapshot", req.id) + "end\n";
}

std::optional<SnapshotRequest>
tryReadSnapshotRequest(std::istream &is, std::string *error)
{
    SnapshotRequest req;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty snapshot-request frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-snapshot") {
            parseFail(error,
                      "expected 'jitsched-snapshot <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad snapshot-request id '" + id_tok +
                      "'");
            return std::nullopt;
        }
        req.id = static_cast<std::uint64_t>(*id);
    }

    const auto tail = nextLine(is);
    if (!tail || *tail != "end") {
        parseFail(error, "snapshot request carries a body (expected "
                  "'end')");
        return std::nullopt;
    }
    return req;
}

std::string
snapshotResponseText(const SnapshotResponse &resp)
{
    std::string out =
        headerLine("jitsched-snapshot-response", resp.id);
    if (resp.ok) {
        out += "status ok\nentries ";
        appendInt(out, resp.entries);
        out += "\nbytes ";
        appendInt(out, resp.bytes);
        out += '\n';
    } else {
        appendErrorStatus(out, resp.code, resp.error);
    }
    out += "end\n";
    return out;
}

std::optional<SnapshotResponse>
tryReadSnapshotResponse(std::istream &is, std::string *error)
{
    SnapshotResponse resp;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty snapshot-response frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-snapshot-response") {
            parseFail(
                error,
                "expected 'jitsched-snapshot-response <id>', got '" +
                *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad snapshot-response id '" + id_tok +
                      "'");
            return std::nullopt;
        }
        resp.id = static_cast<std::uint64_t>(*id);
    }

    bool saw_status = false;
    for (;;) {
        const auto line = nextLine(is);
        if (!line) {
            parseFail(error, "snapshot response truncated (no 'end')");
            return std::nullopt;
        }
        if (*line == "end")
            break;

        std::istringstream ls(*line);
        std::string key;
        ls >> key;
        std::int64_t v = 0;

        if (key == "status") {
            std::string st;
            ls >> st;
            if (st == "ok") {
                resp.ok = true;
            } else if (st == "error") {
                resp.ok = false;
                ls >> resp.code;
                if (resp.code.empty()) {
                    parseFail(error, "status error carries no code");
                    return std::nullopt;
                }
            } else {
                parseFail(error, "bad status '" + st + "'");
                return std::nullopt;
            }
            saw_status = true;
        } else if (key == "error") {
            constexpr std::size_t skip = sizeof("error ") - 1;
            resp.error = line->size() > skip ? line->substr(skip) : "";
        } else if (key == "entries") {
            if (!intField(ls, "entries", &v, error))
                return std::nullopt;
            resp.entries = static_cast<std::uint64_t>(v);
        } else if (key == "bytes") {
            if (!intField(ls, "bytes", &v, error))
                return std::nullopt;
            resp.bytes = static_cast<std::uint64_t>(v);
        } else {
            parseFail(error, "unknown snapshot-response directive '" +
                      key + "'");
            return std::nullopt;
        }
    }

    if (!saw_status) {
        parseFail(error, "snapshot response carries no status");
        return std::nullopt;
    }
    return resp;
}

SnapshotResponse
makeSnapshotResponse(std::uint64_t id, std::uint64_t entries,
                     std::uint64_t bytes)
{
    SnapshotResponse resp;
    resp.id = id;
    resp.ok = true;
    resp.entries = entries;
    resp.bytes = bytes;
    return resp;
}

std::string
pingRequestText(const PingRequest &req)
{
    return headerLine("jitsched-ping", req.id) + "end\n";
}

std::optional<PingRequest>
tryReadPingRequest(std::istream &is, std::string *error)
{
    PingRequest req;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty ping frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-ping") {
            parseFail(error, "expected 'jitsched-ping <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad ping id '" + id_tok + "'");
            return std::nullopt;
        }
        req.id = static_cast<std::uint64_t>(*id);
    }

    const auto tail = nextLine(is);
    if (!tail || *tail != "end") {
        parseFail(error, "ping carries a body (expected 'end')");
        return std::nullopt;
    }
    return req;
}

std::string
pongResponseText(const PongResponse &resp)
{
    std::string out = headerLine("jitsched-pong", resp.id);
    if (resp.ok)
        out += "status ok\n";
    else
        appendErrorStatus(out, resp.code, resp.error);
    out += "end\n";
    return out;
}

std::optional<PongResponse>
tryReadPongResponse(std::istream &is, std::string *error)
{
    PongResponse resp;

    const auto header = nextLine(is);
    if (!header) {
        parseFail(error, "empty pong frame");
        return std::nullopt;
    }
    {
        std::istringstream hs(*header);
        std::string tag, id_tok;
        hs >> tag >> id_tok;
        if (tag != "jitsched-pong") {
            parseFail(error, "expected 'jitsched-pong <id>', got '" +
                      *header + "'");
            return std::nullopt;
        }
        const auto id = parseInt(id_tok);
        if (!id || *id < 0) {
            parseFail(error, "bad pong id '" + id_tok + "'");
            return std::nullopt;
        }
        resp.id = static_cast<std::uint64_t>(*id);
    }

    bool saw_status = false;
    for (;;) {
        const auto line = nextLine(is);
        if (!line) {
            parseFail(error, "pong truncated (no 'end')");
            return std::nullopt;
        }
        if (*line == "end")
            break;

        std::istringstream ls(*line);
        std::string key;
        ls >> key;

        if (key == "status") {
            std::string st;
            ls >> st;
            if (st == "ok") {
                resp.ok = true;
            } else if (st == "error") {
                resp.ok = false;
                ls >> resp.code;
                if (resp.code.empty()) {
                    parseFail(error, "status error carries no code");
                    return std::nullopt;
                }
            } else {
                parseFail(error, "bad status '" + st + "'");
                return std::nullopt;
            }
            saw_status = true;
        } else if (key == "error") {
            constexpr std::size_t skip = sizeof("error ") - 1;
            resp.error = line->size() > skip ? line->substr(skip) : "";
        } else {
            parseFail(error, "unknown pong directive '" + key + "'");
            return std::nullopt;
        }
    }

    if (!saw_status) {
        parseFail(error, "pong carries no status");
        return std::nullopt;
    }
    return resp;
}

PongResponse
makePongResponse(std::uint64_t id)
{
    PongResponse resp;
    resp.id = id;
    resp.ok = true;
    return resp;
}

std::string_view
frameTag(std::string_view frame)
{
    LineCursor lines(frame);
    const auto first = lines.next();
    return first ? Tokens(*first).next() : std::string_view();
}

std::uint64_t
requestFingerprint(const ServiceRequest &req)
{
    std::uint64_t h = hashWorkload(req.workload);
    h = hashCombine(h, std::hash<std::string>{}(req.policy));
    const ServiceOptions &o = req.options;
    h = hashCombine(h, o.compileCores);
    h = hashCombine(h, o.model == ModelKind::Oracle ? 1 : 0);
    // Like appendPolicyAndOptions(): with sigma 0 the seed draws
    // nothing, so neither is part of the request's identity.
    if (o.jitterSigma != 0.0) {
        h = hashCombine(h, std::bit_cast<std::uint64_t>(o.jitterSigma));
        h = hashCombine(h, o.jitterSeed);
    }
    h = hashCombine(h, o.astarMaxExpansions);
    h = hashCombine(h, o.astarMemoryMb);
    return h;
}

} // namespace jitsched
