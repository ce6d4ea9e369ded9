#include "workload/trace_io.h"

#include <cinttypes>
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
    try {
        // Negative, non-finite or overflowing arrivals are not times the
        // simulator can reach: reject them here instead of asserting there.
        const double arrival_s = std::stod(fields[0]);
        if (!(arrival_s >= 0.0 && arrival_s * 1e6 < 0x1p63)) {
            return Status::invalid_argument(
                strfmt("row %zu: bad arrival_s '%s'", row + 1,
                       fields[0].c_str()));
        }
        entry.arrival =
            TimePoint::origin() + Duration::from_seconds(arrival_s);
        s.name = fields[1];
        s.user = fields[2];
        s.group = fields[3];
        s.gpus = std::stoi(fields[4]);
        s.gpu_model = fields[5];
        auto qos = parse_qos_class(fields[6]);
        if (!qos.is_ok())
            return qos.status();
        s.qos = qos.value();
        s.preemptible = fields[7] == "1";
        s.model = fields[8];
        s.iterations = std::stoll(fields[9]);
        s.time_limit = Duration::seconds(std::stoll(fields[10]));
        s.deadline = Duration::seconds(std::stoll(fields[11]));
        s.min_gpus = std::stoi(fields[12]);
        s.max_gpus = std::stoi(fields[13]);
    } catch (const std::exception &) {
        return Status::invalid_argument(
            strfmt("row %zu: malformed number", row + 1));
    }
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
    std::ifstream file(path);
    if (!file)
        return Status::not_found("cannot open " + path);
    std::stringstream buffer;
    buffer << file.rdbuf();
    return trace_from_csv(buffer.str());
}

} // namespace tacc::workload
