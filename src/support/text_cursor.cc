#include "support/text_cursor.hh"

#include <istream>

namespace jitsched {

std::string
readThroughLine(std::istream &is, std::string_view stop_line)
{
    std::string text;
    std::string raw;
    while (std::getline(is, raw)) {
        text += raw;
        text += '\n';
        if (!stop_line.empty() && cleanLine(raw) == stop_line)
            break;
    }
    return text;
}

} // namespace jitsched
