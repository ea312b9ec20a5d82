/**
 * @file
 * Differential test of the single-pass request reader against the
 * frozen line-by-line reader it replaced (legacy_parser.hh).
 *
 * Both must accept or reject the same frames with the same error
 * string, and an accepted frame must come back as the same request:
 * same requestText(), same result-cache key, same fingerprint.  The
 * inputs are every checked-in qa reproducer, over 20k random and
 * byte-mutated frames, and a table of the old reader's quirks.  Both
 * entry points of the new reader are checked: the string_view one the
 * server calls and the std::istream adapter.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "legacy_parser.hh"
#include "qa/fuzz_workload.hh"
#include "qa/proto_fuzz.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "support/rng.hh"
#include "trace/dacapo.hh"
#include "trace/trace_io.hh"

namespace jitsched {
namespace {

/** What one reader made of one input. */
struct Outcome
{
    bool ok = false;
    std::string error;
    std::string text; ///< canonical re-serialization when ok
    std::string key;  ///< result-cache key material when ok
    std::uint64_t fingerprint = 0;
    std::string rest; ///< stream bytes left unread (stream readers)
};

std::string
unread(std::istream &is)
{
    is.clear();
    return std::string(std::istreambuf_iterator<char>(is), {});
}

Outcome
legacyRequest(const std::string &bytes)
{
    Outcome out;
    std::istringstream is(bytes);
    const auto req = legacy::tryReadRequest(is, &out.error);
    out.ok = req.has_value();
    if (out.ok) {
        out.text = legacy::requestText(*req);
        out.key = legacy::keyMaterial(*req);
        out.fingerprint = requestFingerprint(*req);
        out.rest = unread(is);
    }
    return out;
}

Outcome
describe(const std::optional<ServiceRequest> &req, std::string error)
{
    Outcome out;
    out.error = std::move(error);
    out.ok = req.has_value();
    if (out.ok) {
        out.text = requestText(*req);
        out.key = ResultCache::keyMaterial(*req);
        out.fingerprint = requestFingerprint(*req);
    }
    return out;
}

/**
 * Both new entry points against the legacy reader; returns whether
 * the legacy reader accepted @p bytes.
 */
bool
expectSameRequest(const std::string &bytes, const std::string &what)
{
    const Outcome want = legacyRequest(bytes);

    std::string view_error;
    const auto view_req = tryReadRequest(std::string_view(bytes),
                                         &view_error);
    const Outcome got_view = describe(view_req, view_error);

    std::istringstream is(bytes);
    std::string stream_error;
    const auto stream_req = tryReadRequest(is, &stream_error);
    Outcome got_stream = describe(stream_req, stream_error);
    if (got_stream.ok)
        got_stream.rest = unread(is);

    const Outcome *const got_both[] = {&got_view, &got_stream};
    for (const Outcome *got : got_both) {
        const char *entry = got == &got_view ? "view" : "stream";
        EXPECT_EQ(want.ok, got->ok)
            << what << " (" << entry << ")\nlegacy error: "
            << want.error << "\nnew error: " << got->error;
        EXPECT_EQ(want.error, got->error) << what << " (" << entry << ")";
        EXPECT_EQ(want.text, got->text) << what << " (" << entry << ")";
        EXPECT_EQ(want.key, got->key) << what << " (" << entry << ")";
        EXPECT_EQ(want.fingerprint, got->fingerprint)
            << what << " (" << entry << ")";
    }
    if (want.ok) {
        EXPECT_EQ(want.rest, got_stream.rest) << what;
    }
    return want.ok;
}

/** Both workload entry points against the legacy reader. */
void
expectSameWorkload(const std::string &bytes, const std::string &stop,
                   const std::string &what)
{
    std::istringstream legacy_is(bytes);
    std::string want_error;
    const auto want =
        legacy::tryReadWorkload(legacy_is, &want_error, stop);
    std::string want_text;
    if (want) {
        std::ostringstream os;
        legacy::writeWorkload(os, *want);
        want_text = os.str();
    }

    std::string view_error;
    const auto view = tryReadWorkload(std::string_view(bytes),
                                      &view_error, stop);
    std::istringstream is(bytes);
    std::string stream_error;
    const auto stream = tryReadWorkload(is, &stream_error, stop);

    for (const auto *got : {&view, &stream}) {
        const std::string &got_error =
            got == &view ? view_error : stream_error;
        ASSERT_EQ(want.has_value(), got->has_value())
            << what << "\nlegacy error: " << want_error
            << "\nnew error: " << got_error;
        EXPECT_EQ(want_error, got_error) << what;
        if (*got) {
            std::string text;
            appendWorkloadText(text, **got);
            EXPECT_EQ(want_text, text) << what;
        }
    }
    if (want) {
        EXPECT_EQ(unread(legacy_is), unread(is)) << what;
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

TEST(ParseDiff, EveryCorpusReproducer)
{
    std::size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             JITSCHED_QA_CORPUS_DIR)) {
        if (!entry.is_regular_file())
            continue;
        const std::string path = entry.path().string();
        const std::string bytes = readFile(path);
        expectSameRequest(bytes, path);
        expectSameWorkload(bytes, "", path);
        expectSameWorkload(bytes, "end", path + " (stop at end)");
        ++files;
    }
    EXPECT_GE(files, 10u);
}

TEST(ParseDiff, RandomAndMutatedFrames)
{
    // 5k valid frames, each followed by three chained mutations.
    constexpr std::uint64_t kFrames = 5000;
    const qa::FuzzDomain domain;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::size_t checked = 0;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
        Rng rng = Rng::caseStream(12, i);
        std::string frame = qa::randomRequestFrame(rng, domain);
        for (int m = 0; m <= 3; ++m) {
            const std::string what =
                "case " + std::to_string(i) + " mutation " +
                std::to_string(m) + ":\n" + frame;
            (expectSameRequest(frame, what) ? accepted : rejected)++;
            if (m > 0 && i % 8 == 0)
                expectSameWorkload(frame, "", what);
            if (::testing::Test::HasFailure())
                return; // one reported case, not thousands
            ++checked;
            frame = qa::mutateFrameBytes(frame, rng);
        }
    }
    EXPECT_GE(checked, 20000u);
    // Both sides of the accept set must be exercised.
    EXPECT_GT(accepted, 5000u);
    EXPECT_GT(rejected, 5000u);
}

TEST(ParseDiff, LargeDacapoFrame)
{
    // Thousands of calls and hundreds of functions, with every
    // optional option line set: what fig5-dacapo sends, and what
    // exercises the writers' line breaking.
    ServiceRequest req;
    req.id = 42;
    req.policy = "astar-par";
    req.options.compileCores = 2;
    req.options.model = ModelKind::Oracle;
    req.options.jitterSigma = 0.1;
    req.options.jitterSeed = 9;
    req.options.astarThreads = 3;
    req.options.deadlineMs = 250;
    req.traceId = 0xabcdef;
    req.workload = makeDacapoWorkload("lusearch", 256);
    ASSERT_GT(req.workload.numCalls(), 10'000u);

    EXPECT_EQ(requestText(req), legacy::requestText(req));
    EXPECT_EQ(ResultCache::keyMaterial(req), legacy::keyMaterial(req));
    expectSameRequest(requestText(req), "lusearch request");
    expectSameWorkload(requestText(req), "end", "lusearch frame");
}

/** A request frame around @p payload, with @p preamble before it. */
std::string
frame(const std::string &payload,
      const std::string &preamble = "policy iar\n")
{
    return "jitsched-request 7\n" + preamble + "payload\n" + payload +
           "end\n";
}

const std::string kFuncs = "levels 2\n"
                           "func 0 f 10 5 9 20 3\n"
                           "func 1 g 12 4 8 30 2\n";

struct Quirk
{
    const char *name;
    std::string bytes;
    bool accepted; ///< what the legacy reader does with it
};

TEST(ParseDiff, QuirkTable)
{
    using namespace std::string_literals;
    const std::vector<Quirk> quirks = {
        {"well-formed", frame(kFuncs + "calls 3\n0 1 0\n"), true},
        // strtoll accepts one leading '+', from_chars does not.
        {"plus call id", frame(kFuncs + "calls 2\n+1 0\n"), true},
        {"plus call count", frame(kFuncs + "calls +2\n1 0\n"), true},
        {"plus request id",
         "jitsched-request +7\npolicy iar\npayload\n" + kFuncs +
             "calls 1\n0\nend\n",
         true},
        {"plus option value",
         frame(kFuncs + "calls 1\n0\n",
               "policy iar\noption compile-cores +2\n"),
         true},
        {"plus then minus", frame(kFuncs + "calls 2\n+-1 0\n"), false},
        {"bare plus", frame(kFuncs + "calls 2\n+ 0\n"), false},
        {"minus zero", frame(kFuncs + "calls 2\n-0 1\n"), true},
        // isspace(): \v, \f and \r separate tokens and are trimmed.
        {"vertical tab and form feed",
         frame("levels\v2\nfunc\f0 f 10 5 9 20 3\r\n"
               "func 1 g 12 4 8 30 2\ncalls 2\n0\v1\n"),
         true},
        {"carriage returns",
         "jitsched-request 7\r\npolicy iar\r\npayload\r\n" + kFuncs +
             "calls 1\r\n1\r\nend\r\n",
         true},
        // An odd trailing level-cost token is dropped unparsed.
        {"odd cost token",
         frame("levels 2\nfunc 0 f 10 5 9 20 3 zz\ncalls 1\n0\n"),
         true},
        {"odd cost token is a number",
         frame("levels 2\nfunc 0 f 10 5 9 20 3 7\ncalls 1\n0\n"),
         true},
        // A bare `workload` line keeps the name it had.
        {"bare workload line", frame("workload\n" + kFuncs +
                                     "calls 1\n0\n"),
         true},
        {"bare workload after a name",
         frame("workload w\nworkload\n" + kFuncs + "calls 1\n0\n"),
         true},
        {"workload extra tokens",
         frame("workload a b c\n" + kFuncs + "calls 1\n0\n"), true},
        // Overflow is rejected everywhere.
        {"call id overflow",
         frame(kFuncs + "calls 1\n99999999999999999999\n"), false},
        {"call count overflow",
         frame(kFuncs + "calls 99999999999999999999\n0\n"), false},
        {"request id overflow",
         "jitsched-request 99999999999999999999\npolicy iar\n"
         "payload\nend\n",
         false},
        {"int64 min call count",
         frame(kFuncs + "calls -9223372036854775808\n"), false},
        {"call count at int64 max",
         frame(kFuncs + "calls 9223372036854775807\n0\n"), false},
        // Ids wider than FuncId wrap; negative ids are out of range.
        {"call id wraps to 0", frame(kFuncs + "calls 1\n4294967296\n"),
         true},
        {"negative call id", frame(kFuncs + "calls 2\n0 -1\n"), false},
        {"negative function id", frame("func -1 f 1 1 1\n"), false},
        // The stop line is compared after comment stripping.
        {"end with a comment",
         "jitsched-request 7\npolicy iar\npayload\n" + kFuncs +
             "calls 1\n0\nend # done\njitsched-ping 3\nend\n",
         true},
        {"end with a token", frame(kFuncs + "calls 1\n0\nend x\n"),
         false},
        {"end inside the calls block",
         frame(kFuncs + "calls 3\n0 1\n"), false},
        // The calls block is line-granular.
        {"calls split across lines",
         frame(kFuncs + "calls 5\n0\n1 1\n\n# gap\n0 1\n"), true},
        {"extra ids on the last calls line",
         frame(kFuncs + "calls 2\n0 1 0\n"), false},
        {"ids on the calls line are ignored",
         frame(kFuncs + "calls 2 1 1\n0 1\n"), true},
        {"directive after a full calls block",
         frame(kFuncs + "calls 1\n0\nfunc 2 h 1 1 1\n"), true},
        {"second calls block",
         frame(kFuncs + "calls 1\n0\ncalls 2\n1\n"), true},
        {"zero calls then ids", frame(kFuncs + "calls 0\n0\n"), false},
        // Preamble quirks.
        {"bare policy keeps the policy",
         frame(kFuncs + "calls 1\n0\n", "policy iar\npolicy\n"), true},
        {"bare policy first", frame(kFuncs + "calls 1\n0\n",
                                    "policy\n"),
         false},
        {"no policy", frame(kFuncs + "calls 1\n0\n", ""), false},
        {"option without value",
         frame(kFuncs + "calls 1\n0\n", "policy iar\noption model\n"),
         false},
        {"payload with a token",
         "jitsched-request 7\npolicy iar\npayload x\n" + kFuncs +
             "calls 1\n0\nend\n",
         false},
        {"end in the preamble",
         "jitsched-request 7\npolicy iar\nend\n", false},
        {"header is end", "end\n", false},
        {"header extra tokens",
         "jitsched-request 7 8 9\npolicy iar\npayload\n" + kFuncs +
             "calls 1\n0\nend\n",
         true},
        {"no end line", "jitsched-request 7\npolicy iar\npayload\n" +
                            kFuncs + "calls 1\n0\n",
         true},
        {"bytes after end",
         frame(kFuncs + "calls 1\n0\n") + "jitsched-ping 3\nend\n",
         true},
        {"empty frame", "", false},
        {"only comments", "# a\n   \n#b\n", false},
        {"jitter sigma round trip",
         frame(kFuncs + "calls 1\n0\n",
               "policy iar\noption jitter-sigma 0.1\n"
               "option jitter-seed 5\n"),
         true},
        // Bytes outside the whitespace class are token bytes.
        {"NUL in a name", frame("func 0 f\0g 1 1 1\ncalls 1\n0\n"s),
         true},
        {"NUL in a number", frame("func 0 f 1 1 1\ncalls 1\n0\0\n"s),
         false},
        {"high bytes in a name",
         frame("workload \xe2\x82\xac\xa0\nfunc 0 f 1 1 1\ncalls 1\n0\n"),
         true},
        {"level count is not a number", frame("levels x\n"), false},
        {"size missing", frame("func 0 f\n"), false},
        {"negative size", frame("func 0 f -1 1 1\n"), false},
        {"no costs", frame("func 0 f 1\ncalls 0\n"), false},
        {"non-monotonic", frame("func 0 f 1 9 1 1 9\n"), false},
        {"more levels than declared",
         frame("levels 1\nfunc 0 f 1 1 1 2 1\n"), false},
        {"unknown directive", frame("bogus 1\n"), false},
        {"comment glued to a token",
         frame(kFuncs + "calls 2#two\n0 1#x\n"), true},
    };

    for (const Quirk &q : quirks) {
        SCOPED_TRACE(q.name);
        expectSameRequest(q.bytes, q.name);
        std::string error;
        EXPECT_EQ(q.accepted,
                  tryReadRequest(std::string_view(q.bytes), &error)
                      .has_value())
            << error;
        const std::size_t payload = q.bytes.find("payload\n");
        if (payload != std::string::npos)
            expectSameWorkload(q.bytes.substr(payload + 8), "end",
                               q.name);
    }
}

} // anonymous namespace
} // namespace jitsched
