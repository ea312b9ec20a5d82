#include "trace/trace_io.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "support/logging.hh"
#include "support/strutil.hh"
#include "support/text_cursor.hh"

namespace jitsched {

void
appendWorkloadText(std::string &out, const Workload &w)
{
    const auto &calls = w.calls();
    // The calls block is the bulk of a trace; most ids are short.
    out.reserve(out.size() + calls.size() * 4);

    out += "# jitsched workload trace\n";
    out += "workload ";
    out += w.name();
    out += "\nlevels ";
    appendInt(out, w.maxLevels());
    out += '\n';
    for (std::size_t i = 0; i < w.numFunctions(); ++i) {
        const auto &prof = w.function(static_cast<FuncId>(i));
        out += "func ";
        appendInt(out, i);
        out += ' ';
        out += prof.name();
        out += ' ';
        appendInt(out, prof.size());
        for (std::size_t j = 0; j < prof.numLevels(); ++j) {
            const auto &lc = prof.level(static_cast<Level>(j));
            out += ' ';
            appendInt(out, lc.compile);
            out += ' ';
            appendInt(out, lc.exec);
        }
        out += '\n';
    }
    out += "calls ";
    appendInt(out, w.numCalls());
    out += '\n';

    // Sixteen ids a line.
    for (std::size_t i = 0; i < calls.size(); ++i) {
        appendInt(out, calls[i]);
        out += (i % 16 == 15 || i + 1 == calls.size()) ? '\n' : ' ';
    }
}

void
writeWorkload(std::ostream &os, const Workload &w)
{
    std::string text;
    appendWorkloadText(text, w);
    os << text;
}

void
writeWorkloadFile(const std::string &path, const Workload &w)
{
    std::ofstream os(path);
    if (!os)
        JITSCHED_FATAL("cannot open '", path, "' for writing");
    writeWorkload(os, w);
    if (!os)
        JITSCHED_FATAL("I/O error while writing '", path, "'");
}

namespace {

/**
 * Parse an integer token; on failure stores a message in *error and
 * returns nullopt.  Every parse failure below funnels through here or
 * through fail(), so the fatal and non-fatal paths report identical
 * messages.
 */
std::optional<std::int64_t>
tryInt(std::string_view tok, const char *what, std::string *error)
{
    const auto v = parseIntToken(tok);
    if (!v) {
        *error = detail::concat("trace parse error: bad ", what, " '",
                                tok, "'");
        return std::nullopt;
    }
    return v;
}

/** Record a parse error; returns nullopt for tail-calling. */
template <typename... Args>
std::optional<Workload>
fail(std::string *error, const Args &...args)
{
    *error = detail::concat("trace parse error: ", args...);
    return std::nullopt;
}

/**
 * Append the call ids on one line of the `calls` block — the bulk of
 * every trace, so a tight loop rather than a Tokens walk.  Ids are
 * stored as FuncId without a range check; the caller checks the range
 * once the function table is final.
 */
bool
readCallsLine(std::string_view line, std::vector<FuncId> &calls,
              std::string *error)
{
    const char *p = line.data();
    const char *const end = p + line.size();
    while (p != end) {
        if (isSpaceChar(*p)) {
            ++p;
            continue;
        }
        const char *const tok = p;
        while (p != end && !isSpaceChar(*p))
            ++p;
        const auto id = tryInt(
            std::string_view(tok, static_cast<std::size_t>(p - tok)),
            "call function id", error);
        if (!id)
            return false;
        calls.push_back(static_cast<FuncId>(*id));
    }
    return true;
}

/**
 * Ceiling on a reserve() driven by a declared count.  Counts are
 * foreign input on the non-fatal path: an absurd header must not be
 * able to throw length_error/bad_alloc out of the parser (which would
 * kill a daemon thread).  Real elements still grow the vector past
 * this via push_back, bounded by the input size itself.
 */
constexpr std::size_t kMaxDeclaredReserve = std::size_t(1) << 20;

} // anonymous namespace

std::optional<Workload>
tryReadWorkload(std::string_view text, std::string *error,
                std::string_view stop_line)
{
    std::string local_error;
    std::string &err = error != nullptr ? *error : local_error;

    std::string name = "unnamed";
    std::size_t levels = 0;
    std::vector<FunctionProfile> funcs;
    std::vector<FuncId> calls;
    std::size_t expected_calls = 0;
    bool in_calls = false;

    LineCursor lines(text);
    while (const auto next = lines.next()) {
        const std::string_view line = *next;
        if (!stop_line.empty() && line == stop_line)
            break;

        if (in_calls) {
            if (!readCallsLine(line, calls, &err))
                return std::nullopt;
            if (calls.size() >= expected_calls)
                in_calls = false;
            continue;
        }

        Tokens ls(line);
        const std::string_view key = ls.next();
        if (key == "workload") {
            // A bare `workload` line keeps the previous name.
            if (const std::string_view tok = ls.next(); !tok.empty())
                name = tok;
        } else if (key == "levels") {
            const auto v = tryInt(ls.next(), "level count", &err);
            if (!v)
                return std::nullopt;
            if (*v < 0)
                return fail(&err, "negative level count ", *v);
            levels = static_cast<std::size_t>(*v);
        } else if (key == "func") {
            const std::string_view id_tok = ls.next();
            const std::string_view fname = ls.next();
            const std::string_view size_tok = ls.next();
            const auto id = tryInt(id_tok, "function id", &err);
            if (!id)
                return std::nullopt;
            if (static_cast<std::size_t>(*id) != funcs.size())
                return fail(&err, "function ids must be dense and in "
                            "order (got ", *id, ", expected ",
                            funcs.size(), ")");
            const auto size = tryInt(size_tok, "function size", &err);
            if (!size)
                return std::nullopt;
            if (*size < 0)
                return fail(&err, "negative size for function '",
                            fname, "'");
            std::vector<LevelCosts> lcs;
            for (;;) {
                // Costs come in pairs; an odd trailing token is
                // dropped unparsed.
                const std::string_view c_tok = ls.next();
                const std::string_view e_tok = ls.next();
                if (e_tok.empty())
                    break;
                const auto c = tryInt(c_tok, "compile time", &err);
                if (!c)
                    return std::nullopt;
                const auto e = tryInt(e_tok, "execution time", &err);
                if (!e)
                    return std::nullopt;
                lcs.push_back({*c, *e});
            }
            if (lcs.empty())
                return fail(&err, "function '", fname,
                            "' has no level costs");
            if (levels != 0 && lcs.size() > levels)
                return fail(&err, "function '", fname,
                            "' declares more levels than header");
            if (!FunctionProfile::levelsMonotonic(lcs))
                return fail(&err, "function '", fname,
                            "' violates level monotonicity");
            funcs.emplace_back(std::string(fname),
                               static_cast<std::uint32_t>(*size),
                               std::move(lcs));
        } else if (key == "calls") {
            const auto v = tryInt(ls.next(), "call count", &err);
            if (!v)
                return std::nullopt;
            if (*v < 0)
                return fail(&err, "negative call count ", *v);
            expected_calls = static_cast<std::size_t>(*v);
            calls.reserve(
                std::min(expected_calls, kMaxDeclaredReserve));
            in_calls = expected_calls > 0;
        } else {
            return fail(&err, "unknown directive '", key, "'");
        }
    }

    if (calls.size() != expected_calls)
        return fail(&err, "expected ", expected_calls,
                    " calls, found ", calls.size());
    // The Workload constructor panics on out-of-range call ids —
    // appropriate for algorithm code, not for foreign input, so the
    // range check happens here on the non-fatal path.
    for (std::size_t i = 0; i < calls.size(); ++i) {
        if (calls[i] >= funcs.size())
            return fail(&err, "call #", i,
                        " references unknown function ", calls[i]);
    }
    return Workload(name, std::move(funcs), std::move(calls));
}

std::optional<Workload>
tryReadWorkload(std::istream &is, std::string *error,
                const std::string &stop_line)
{
    return tryReadWorkload(readThroughLine(is, stop_line), error,
                           stop_line);
}

Workload
readWorkload(std::istream &is)
{
    std::string err;
    auto w = tryReadWorkload(is, &err);
    if (!w)
        JITSCHED_FATAL(err);
    return *std::move(w);
}

Workload
readWorkloadFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        JITSCHED_FATAL("cannot open '", path, "' for reading");
    return readWorkload(is);
}

} // namespace jitsched
