/**
 * @file
 * String / formatting utilities shared by trace I/O and reporting.
 */

#ifndef JITSCHED_SUPPORT_STRUTIL_HH
#define JITSCHED_SUPPORT_STRUTIL_HH

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "support/types.hh"

namespace jitsched {

/**
 * isspace() in the "C" locale — ' ', '\t', '\n', '\v', '\f', '\r' —
 * without the locale lookup.  The whitespace class of every text
 * reader in the tree.
 */
constexpr bool
isSpaceChar(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** Split on a delimiter; empty fields are preserved. */
std::vector<std::string> split(std::string_view s, char delim);

/** Strip leading and trailing ASCII whitespace. */
std::string_view trim(std::string_view s);

/**
 * Parse a whole token as a signed base-10 64-bit integer, with
 * strtoll's accept set: an optional '+' or '-', then digits only;
 * overflow is rejected.  No trimming and no copy — the tight-loop
 * form of parseInt().
 */
inline std::optional<std::int64_t>
parseIntToken(std::string_view tok)
{
    // from_chars rejects a leading '+' that strtoll accepts; "+-1"
    // stays rejected.
    if (!tok.empty() && tok.front() == '+') {
        tok.remove_prefix(1);
        if (!tok.empty() && tok.front() == '-')
            return std::nullopt;
    }
    std::int64_t v = 0;
    const char *end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

/** Parse a signed 64-bit integer; nullopt on any syntax error. */
std::optional<std::int64_t> parseInt(std::string_view s);

/** Append @p v in decimal, exactly as `std::ostream <<` prints it. */
template <typename Int>
void
appendInt(std::string &out, Int v)
{
    static_assert(sizeof(Int) > 1,
                  "ostream prints 1-byte integers as characters");
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec; // 24 bytes hold any 64-bit integer
    out.append(buf, end);
}

/** Parse a double; nullopt on any syntax error. */
std::optional<double> parseDouble(std::string_view s);

/** Render ticks as a human unit string, e.g. "1.50 ms". */
std::string formatTicks(Tick t);

/** Render a double with a fixed number of decimals. */
std::string formatFixed(double v, int decimals);

/** Render a count with thousands separators, e.g. "2,403,584". */
std::string formatCount(std::uint64_t n);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace jitsched

#endif // JITSCHED_SUPPORT_STRUTIL_HH
