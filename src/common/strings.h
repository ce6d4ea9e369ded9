/**
 * @file
 * Small string utilities shared across modules.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tacc {

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Splits on a delimiter; empty fields are preserved. */
std::vector<std::string> split(std::string_view s, char delim);

/** Joins with a separator. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** Strips leading/trailing ASCII whitespace. */
std::string_view trim(std::string_view s);

/** True if s starts with prefix. */
bool starts_with(std::string_view s, std::string_view prefix);

/** Strict unsigned decimal (digits only: no sign, space or suffix) of
 *  at most `max` into *out; false, leaving *out alone, otherwise. */
bool parse_uint(std::string_view s, uint64_t max, uint64_t *out);

/** Human-readable byte count, e.g. "1.50 GiB". */
std::string format_bytes(uint64_t bytes);

/** Human-readable bandwidth from bytes/second, e.g. "12.5 Gbps". */
std::string format_gbps(double bytes_per_second);

} // namespace tacc
