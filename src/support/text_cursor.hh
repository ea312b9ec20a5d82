/**
 * @file
 * Copy-free scanning of line-oriented text held in memory — the one
 * pass under the workload reader (trace/trace_io.hh) and the request
 * reader (service/protocol.hh).
 *
 * The rules are the ones a std::getline + istringstream reader sees in
 * the "C" locale: lines end at '\n', a '#' starts a comment that runs
 * to the end of the line, and tokens are separated by isspace()
 * characters (isSpaceChar).  Every view handed out points into the
 * scanned text, which must outlive it.
 */

#ifndef JITSCHED_SUPPORT_TEXT_CURSOR_HH
#define JITSCHED_SUPPORT_TEXT_CURSOR_HH

#include <cstring>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "support/strutil.hh"

namespace jitsched {

/** @p raw_line without its '#' comment and surrounding whitespace. */
inline std::string_view
cleanLine(std::string_view raw_line)
{
    if (raw_line.empty())
        return raw_line; // memchr must not see a null data()
    const void *hash = std::memchr(raw_line.data(), '#', raw_line.size());
    if (hash != nullptr)
        raw_line = raw_line.substr(
            0, static_cast<std::size_t>(static_cast<const char *>(hash) -
                                        raw_line.data()));
    return trim(raw_line);
}

/** The whitespace-separated tokens of one line, left to right. */
class Tokens
{
  public:
    explicit Tokens(std::string_view line) : rest_(line) {}

    /** The next token; empty once the line is used up. */
    std::string_view
    next()
    {
        std::size_t b = 0;
        while (b < rest_.size() && isSpaceChar(rest_[b]))
            ++b;
        std::size_t e = b;
        while (e < rest_.size() && !isSpaceChar(rest_[e]))
            ++e;
        const std::string_view tok = rest_.substr(b, e - b);
        rest_.remove_prefix(e);
        return tok;
    }

  private:
    std::string_view rest_;
};

/** Walks the non-empty cleaned lines of a text. */
class LineCursor
{
  public:
    explicit LineCursor(std::string_view text) : text_(text) {}

    /** The next non-empty cleaned line, or nullopt at the end. */
    std::optional<std::string_view>
    next()
    {
        while (pos_ < text_.size()) {
            const char *begin = text_.data() + pos_;
            const std::size_t avail = text_.size() - pos_;
            const void *nl = std::memchr(begin, '\n', avail);
            const std::size_t len =
                nl != nullptr
                    ? static_cast<std::size_t>(
                          static_cast<const char *>(nl) - begin)
                    : avail;
            pos_ += nl != nullptr ? len + 1 : len;
            const std::string_view line =
                cleanLine(std::string_view(begin, len));
            if (!line.empty())
                return line;
        }
        return std::nullopt;
    }

    /** The text after the last line next() returned. */
    std::string_view rest() const { return text_.substr(pos_); }

  private:
    std::string_view text_;
    std::size_t pos_ = 0;
};

/**
 * Read @p is line by line through the first line whose cleaned form
 * equals @p stop_line (or to EOF when there is none, or when
 * @p stop_line is empty) and return those bytes, '\n'-terminated.
 * Whatever follows the stop line stays unread — how the std::istream
 * reader entry points hand a bounded frame to their view parsers.
 */
std::string readThroughLine(std::istream &is, std::string_view stop_line);

} // namespace jitsched

#endif // JITSCHED_SUPPORT_TEXT_CURSOR_HH
