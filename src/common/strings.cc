#include "common/strings.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace tacc {

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (n > 0) {
        out.resize(size_t(n));
        std::vsnprintf(out.data(), size_t(n) + 1, fmt, ap2);
    }
    va_end(ap2);
    return out;
}

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        const size_t pos = s.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(start));
            break;
        }
        out.emplace_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string_view
trim(std::string_view s)
{
    size_t b = 0, e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' ||
                     s[b] == '\r')) {
        ++b;
    }
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' ||
                     s[e - 1] == '\n' || s[e - 1] == '\r')) {
        --e;
    }
    return s.substr(b, e - b);
}

bool
starts_with(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

template <typename T>
bool
parse_number(std::string_view token, std::type_identity_t<T> lo,
             std::type_identity_t<T> hi, T *out)
{
    T v{};
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi)
        return false;
    // NaN passes both range checks above (all its comparisons are false).
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return false;
    }
    *out = v;
    return true;
}

Status
bad_value(std::string_view key, std::string_view value)
{
    return Status::invalid_argument("bad value for " + std::string(key) +
                                    ": " + std::string(value));
}

template <typename T>
Status
parse_number(std::string_view key, std::string_view value,
             std::type_identity_t<T> lo, std::type_identity_t<T> hi, T *out)
{
    return parse_number(value, lo, hi, out) ? Status::ok()
                                            : bad_value(key, value);
}

Status
parse_bool(std::string_view key, std::string_view value, bool *out)
{
    if (value != "true" && value != "false")
        return bad_value(key, value);
    *out = value == "true";
    return Status::ok();
}

StatusOr<std::vector<std::string>>
parse_list(std::string_view key, std::string_view value)
{
    std::vector<std::string> out;
    for (const auto &part : split(value, ',')) {
        out.emplace_back(trim(part));
        if (out.back().empty())
            return bad_value(key, value);
    }
    return out;
}

template <typename T>
Status
parse_number_list(std::string_view key, std::string_view value,
                  std::type_identity_t<T> lo, std::type_identity_t<T> hi,
                  std::vector<T> *out)
{
    auto items = parse_list(key, value);
    if (!items.is_ok())
        return items.status();
    std::vector<T> values(items.value().size());
    for (size_t i = 0; i < values.size(); ++i) {
        if (auto s = parse_number(key, items.value()[i], lo, hi, &values[i]);
            !s.is_ok())
            return s;
    }
    *out = std::move(values);
    return Status::ok();
}

template bool parse_number<int>(std::string_view, int, int, int *);
template bool parse_number<int64_t>(std::string_view, int64_t, int64_t,
                                    int64_t *);
template bool parse_number<uint64_t>(std::string_view, uint64_t, uint64_t,
                                     uint64_t *);
template bool parse_number<double>(std::string_view, double, double,
                                   double *);
template Status parse_number<int>(std::string_view, std::string_view, int,
                                  int, int *);
template Status parse_number<int64_t>(std::string_view, std::string_view,
                                      int64_t, int64_t, int64_t *);
template Status parse_number<uint64_t>(std::string_view, std::string_view,
                                       uint64_t, uint64_t, uint64_t *);
template Status parse_number<double>(std::string_view, std::string_view,
                                     double, double, double *);
template Status parse_number_list<uint64_t>(std::string_view,
                                            std::string_view, uint64_t,
                                            uint64_t,
                                            std::vector<uint64_t> *);
template Status parse_number_list<double>(std::string_view,
                                          std::string_view, double, double,
                                          std::vector<double> *);

Status
for_each_kv_line(
    std::string_view text,
    const std::function<Status(const std::string &key,
                               const std::string &value)> &fn)
{
    int lineno = 0;
    while (!text.empty()) {
        const size_t eol = std::min(text.find('\n'), text.size());
        const std::string_view line = trim(text.substr(0, eol));
        text.remove_prefix(std::min(eol + 1, text.size()));
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        const size_t colon = line.find(':');
        Status s = colon == std::string_view::npos
                       ? Status::invalid_argument("malformed line: " +
                                                  std::string(line))
                       : fn(std::string(trim(line.substr(0, colon))),
                            std::string(trim(line.substr(colon + 1))));
        if (!s.is_ok())
            return Status(s.code(),
                          strfmt("line %d: ", lineno) + s.message());
    }
    return Status::ok();
}

StatusOr<std::string>
read_text_file(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::not_found("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
format_bytes(uint64_t bytes)
{
    static const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
    double v = double(bytes);
    size_t u = 0;
    while (v >= 1024.0 && u + 1 < sizeof(units) / sizeof(units[0])) {
        v /= 1024.0;
        ++u;
    }
    return strfmt(u == 0 ? "%.0f %s" : "%.2f %s", v, units[u]);
}

std::string
format_gbps(double bytes_per_second)
{
    return strfmt("%.2f Gbps", bytes_per_second * 8.0 / 1e9);
}

} // namespace tacc
