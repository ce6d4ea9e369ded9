/**
 * @file
 * Small string utilities shared across modules.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

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

/**
 * The number grammar of every input surface (deployment, sweep, tune and
 * task-spec dialects, trace CSV, CLI flags, tcloud verbs):
 * std::from_chars over the whole token, in decimal. No space, no '+', no
 * hex, no trailing text; a '-' only where T is signed. Doubles must be
 * finite. Stores the value in *out if it lies in [lo, hi]; returns
 * false, leaving *out alone, otherwise. Defined for int, int64_t,
 * uint64_t and double.
 */
template <typename T>
bool parse_number(std::string_view token, std::type_identity_t<T> lo,
                  std::type_identity_t<T> hi, T *out);

/** Lower bound of a double field that must be > 0. */
inline constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();

/** `bad value for <key>: <value>`, the parse error of every dialect. */
Status bad_value(std::string_view key, std::string_view value);

/** parse_number on the value of `key`; bad_value(key, value) if not. */
template <typename T>
Status parse_number(std::string_view key, std::string_view value,
                    std::type_identity_t<T> lo, std::type_identity_t<T> hi,
                    T *out);

/** "true" or "false"; bad_value(key, value) otherwise. */
Status parse_bool(std::string_view key, std::string_view value, bool *out);

/** Comma-separated items, each trimmed; an empty item is
 *  bad_value(key, value). */
StatusOr<std::vector<std::string>> parse_list(std::string_view key,
                                              std::string_view value);

/** parse_list of numbers, each through parse_number; the error names
 *  the bad item. *out is replaced only on success. Defined for uint64_t
 *  and double. */
template <typename T>
Status parse_number_list(std::string_view key, std::string_view value,
                         std::type_identity_t<T> lo,
                         std::type_identity_t<T> hi, std::vector<T> *out);

/**
 * The line loop of every `key: value` dialect. Skips blank lines and
 * lines starting with '#', splits every other line at its first ':',
 * trims both halves and calls fn(key, value). Stops at the first error,
 * fn's or "malformed line: <line>", and returns it prefixed "line N: ".
 */
Status for_each_kv_line(
    std::string_view text,
    const std::function<Status(const std::string &key,
                               const std::string &value)> &fn);

/** The whole file; not_found("cannot read <path>") if it cannot be
 *  opened. */
StatusOr<std::string> read_text_file(const std::string &path);

/** Human-readable byte count, e.g. "1.50 GiB". */
std::string format_bytes(uint64_t bytes);

/** Human-readable bandwidth from bytes/second, e.g. "12.5 Gbps". */
std::string format_gbps(double bytes_per_second);

} // namespace tacc
