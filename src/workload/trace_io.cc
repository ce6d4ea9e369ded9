#include "workload/trace_io.h"

#include <cfloat>
#include <climits>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace tacc::workload {

namespace {

constexpr const char *kHeader =
    "arrival_s,name,user,group,gpus,gpu_model,qos,preemptible,model,"
    "iterations,time_limit_s,deadline_s,min_gpus,max_gpus";

/** Standard artifact set for imported rows (CSV carries no artifacts). */
std::vector<Artifact>
default_artifacts(const TaskSpec &spec, size_t row)
{
    Artifact code{spec.user + "/code", 16'000'000, uint64_t(row) + 1};
    Artifact deps{"deps/" + spec.image, 2'200'000'000ULL, 1};
    Artifact dataset{spec.group + "/dataset", 18'000'000'000ULL, 1};
    return {code, deps, dataset};
}

} // namespace

std::string
trace_to_csv(const std::vector<SubmittedTask> &trace)
{
    std::ostringstream os;
    os << kHeader << '\n';
    for (const auto &entry : trace) {
        const auto &s = entry.spec;
        os << strfmt("%.6f", entry.arrival.to_seconds()) << ',' << s.name
           << ',' << s.user << ',' << s.group << ',' << s.gpus << ','
           << s.gpu_model << ',' << qos_class_name(s.qos) << ','
           << (s.preemptible ? 1 : 0) << ',' << s.model << ','
           << s.iterations << ','
           << s.time_limit.to_micros() / 1'000'000 << ','
           << s.deadline.to_micros() / 1'000'000 << ',' << s.min_gpus
           << ',' << s.max_gpus << '\n';
    }
    return os.str();
}

const char *
trace_csv_header()
{
    return kHeader;
}

StatusOr<SubmittedTask>
parse_trace_row(const std::string &line, size_t row)
{
    const auto fields = split(line, ',');
    if (fields.size() != 14) {
        return Status::invalid_argument(
            strfmt("row %zu: expected 14 fields, got %zu", row + 1,
                   fields.size()));
    }
    SubmittedTask entry;
    TaskSpec &s = entry.spec;
    // Negative, non-finite or overflowing arrivals are not times the
    // simulator can reach: reject them here instead of asserting there.
    double arrival_s = 0;
    if (!parse_number(trim(fields[0]), 0.0, DBL_MAX, &arrival_s) ||
        !(arrival_s * 1e6 < 0x1p63)) {
        return Status::invalid_argument(strfmt(
            "row %zu: bad arrival_s '%s'", row + 1, fields[0].c_str()));
    }
    entry.arrival = TimePoint::origin() + Duration::from_seconds(arrival_s);
    // The other numbers: integers bounded by their field's type, seconds
    // so that Duration::seconds cannot overflow.
    const auto number = [&](size_t i, auto lo, auto hi, auto *out) {
        return parse_number(trim(fields[i]), lo, hi, out);
    };
    int64_t time_limit_s = 0, deadline_s = 0;
    const int64_t max_s = Duration::kMaxSeconds;
    size_t bad = 0;
    if (!number(4, INT_MIN, INT_MAX, &s.gpus))
        bad = 4;
    else if (!number(9, INT64_MIN, INT64_MAX, &s.iterations))
        bad = 9;
    else if (!number(10, -max_s, max_s, &time_limit_s))
        bad = 10;
    else if (!number(11, -max_s, max_s, &deadline_s))
        bad = 11;
    else if (!number(12, INT_MIN, INT_MAX, &s.min_gpus))
        bad = 12;
    else if (!number(13, INT_MIN, INT_MAX, &s.max_gpus))
        bad = 13;
    if (bad) {
        return Status::invalid_argument(
            strfmt("row %zu: ", row + 1) +
            bad_value(split(kHeader, ',')[bad], fields[bad]).message());
    }
    s.time_limit = Duration::seconds(time_limit_s);
    s.deadline = Duration::seconds(deadline_s);
    s.name = fields[1];
    s.user = fields[2];
    s.group = fields[3];
    s.gpu_model = fields[5];
    auto qos = parse_qos_class(fields[6]);
    if (!qos.is_ok())
        return qos.status();
    s.qos = qos.value();
    s.preemptible = fields[7] == "1";
    s.model = fields[8];
    s.artifacts = default_artifacts(s, row);
    if (auto st = s.validate(); !st.is_ok()) {
        return Status::invalid_argument(
            strfmt("row %zu: %s", row + 1, st.str().c_str()));
    }
    return entry;
}

StatusOr<std::vector<SubmittedTask>>
trace_from_csv(const std::string &csv)
{
    std::vector<SubmittedTask> out;
    const auto lines = split(csv, '\n');
    if (lines.empty() || std::string(trim(lines[0])) != kHeader)
        return Status::invalid_argument("missing or wrong CSV header");

    for (size_t i = 1; i < lines.size(); ++i) {
        const std::string line{trim(lines[i])};
        if (line.empty())
            continue;
        auto entry = parse_trace_row(line, i - 1);
        if (!entry.is_ok())
            return entry.status();
        if (!out.empty() && entry.value().arrival < out.back().arrival) {
            return Status::invalid_argument(
                strfmt("row %zu: arrivals not sorted", i));
        }
        out.push_back(std::move(entry.value()));
    }
    return out;
}

Status
write_trace_file(const std::string &path,
                 const std::vector<SubmittedTask> &trace)
{
    std::ofstream file(path);
    if (!file)
        return Status::unavailable("cannot open " + path);
    file << trace_to_csv(trace);
    if (!file)
        return Status::unavailable("write failed: " + path);
    return Status::ok();
}

StatusOr<std::vector<SubmittedTask>>
read_trace_file(const std::string &path)
{
    auto csv = read_text_file(path);
    if (!csv.is_ok())
        return csv.status();
    return trace_from_csv(csv.value());
}

} // namespace tacc::workload
