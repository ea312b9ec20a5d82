/**
 * @file
 * A frozen copy of the original line-by-line request reader and
 * writer — std::getline, one std::istringstream per line, strtoll —
 * kept only as the reference the single-pass reader is tested
 * against (test_parse_diff.cc).  Do not change its behaviour: its
 * accept set, error strings and output bytes are the contract.
 */

#ifndef JITSCHED_TESTS_SERVICE_LEGACY_PARSER_HH
#define JITSCHED_TESTS_SERVICE_LEGACY_PARSER_HH

#include <iosfwd>
#include <optional>
#include <string>

#include "service/protocol.hh"
#include "trace/workload.hh"

namespace jitsched {
namespace legacy {

std::optional<Workload> tryReadWorkload(std::istream &is,
                                        std::string *error,
                                        const std::string &stop_line);

std::optional<ServiceRequest> tryReadRequest(std::istream &is,
                                             std::string *error);

void writeWorkload(std::ostream &os, const Workload &w);

std::string requestText(const ServiceRequest &req);

/** The result cache's key material, as the ostream writer built it. */
std::string keyMaterial(const ServiceRequest &req);

} // namespace legacy
} // namespace jitsched

#endif // JITSCHED_TESTS_SERVICE_LEGACY_PARSER_HH
