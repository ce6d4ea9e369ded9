#include "workload/task_spec.h"

#include <cfloat>
#include <climits>
#include <cstdint>
#include <sstream>

#include "common/strings.h"

namespace tacc::workload {

const char *
qos_class_name(QosClass qos)
{
    switch (qos) {
      case QosClass::kInteractive: return "interactive";
      case QosClass::kBatch: return "batch";
      case QosClass::kBestEffort: return "besteffort";
    }
    return "unknown";
}

StatusOr<QosClass>
parse_qos_class(const std::string &name)
{
    if (name == "interactive")
        return QosClass::kInteractive;
    if (name == "batch")
        return QosClass::kBatch;
    if (name == "besteffort")
        return QosClass::kBestEffort;
    return Status::invalid_argument("unknown qos class: " + name);
}

const char *
runtime_pref_name(RuntimePref pref)
{
    switch (pref) {
      case RuntimePref::kAuto: return "auto";
      case RuntimePref::kBareMetal: return "baremetal";
      case RuntimePref::kContainer: return "container";
    }
    return "unknown";
}

StatusOr<RuntimePref>
parse_runtime_pref(const std::string &name)
{
    if (name == "auto")
        return RuntimePref::kAuto;
    if (name == "baremetal")
        return RuntimePref::kBareMetal;
    if (name == "container")
        return RuntimePref::kContainer;
    return Status::invalid_argument("unknown runtime: " + name);
}

const char *
transport_pref_name(TransportPref pref)
{
    switch (pref) {
      case TransportPref::kAuto: return "auto";
      case TransportPref::kTcp: return "tcp";
      case TransportPref::kRdma: return "rdma";
      case TransportPref::kInNetwork: return "innetwork";
    }
    return "unknown";
}

StatusOr<TransportPref>
parse_transport_pref(const std::string &name)
{
    if (name == "auto")
        return TransportPref::kAuto;
    if (name == "tcp")
        return TransportPref::kTcp;
    if (name == "rdma")
        return TransportPref::kRdma;
    if (name == "innetwork")
        return TransportPref::kInNetwork;
    return Status::invalid_argument("unknown transport: " + name);
}

Status
TaskSpec::validate() const
{
    if (name.empty())
        return Status::invalid_argument("task name is empty");
    if (user.empty())
        return Status::invalid_argument("user is empty");
    if (group.empty())
        return Status::invalid_argument("group is empty");
    if (gpus <= 0)
        return Status::invalid_argument(strfmt("gpus must be > 0, got %d",
                                               gpus));
    if (gpus_per_node_limit <= 0)
        return Status::invalid_argument("gpus_per_node_limit must be > 0");
    // Written so that a NaN memory demand fails too.
    if (cpu_cores_per_gpu < 0 || !(memory_gb_per_gpu >= 0))
        return Status::invalid_argument("negative cpu/memory demand");
    if (time_limit.is_zero() || time_limit.is_negative())
        return Status::invalid_argument("time_limit must be positive");
    if (deadline.is_negative())
        return Status::invalid_argument("deadline must be >= 0");
    if (model.empty())
        return Status::invalid_argument("model is empty");
    if (iterations <= 0)
        return Status::invalid_argument("iterations must be > 0");
    for (const auto &a : artifacts) {
        if (a.name.empty())
            return Status::invalid_argument("artifact with empty name");
        if (a.bytes == 0)
            return Status::invalid_argument("artifact '" + a.name +
                                            "' has zero size");
    }
    if (min_gpus < 0 || max_gpus < 0)
        return Status::invalid_argument("negative elastic bounds");
    if ((min_gpus == 0) != (max_gpus == 0))
        return Status::invalid_argument(
            "elastic bounds must both be set or both be zero");
    if (min_gpus > 0 && (min_gpus > max_gpus || gpus < min_gpus ||
                         gpus > max_gpus)) {
        return Status::invalid_argument(
            strfmt("elastic bounds [%d, %d] must bracket gpus=%d", min_gpus,
                   max_gpus, gpus));
    }
    return Status::ok();
}

std::string
TaskSpec::to_text() const
{
    std::ostringstream os;
    os << "task: " << name << '\n';
    os << "user: " << user << '\n';
    os << "group: " << group << '\n';
    os << "gpus: " << gpus << '\n';
    os << "gpu_model: " << gpu_model << '\n';
    os << "gpus_per_node_limit: " << gpus_per_node_limit << '\n';
    os << "cpu_cores_per_gpu: " << cpu_cores_per_gpu << '\n';
    os << "memory_gb_per_gpu: " << memory_gb_per_gpu << '\n';
    os << "qos: " << qos_class_name(qos) << '\n';
    os << "preemptible: " << (preemptible ? "true" : "false") << '\n';
    os << "time_limit_s: " << time_limit.to_micros() / 1'000'000 << '\n';
    os << "deadline_s: " << deadline.to_micros() / 1'000'000 << '\n';
    os << "model: " << model << '\n';
    os << "iterations: " << iterations << '\n';
    for (const auto &a : artifacts) {
        os << "artifact: " << a.name << ',' << a.bytes << ',' << a.version
           << '\n';
    }
    os << "runtime: " << runtime_pref_name(runtime) << '\n';
    os << "transport: " << transport_pref_name(transport) << '\n';
    os << "image: " << image << '\n';
    os << "min_gpus: " << min_gpus << '\n';
    os << "max_gpus: " << max_gpus << '\n';
    return os.str();
}

namespace {

/** Applies one `key: value` line of the task schema to `spec`. */
Status
apply_task_key(const std::string &key, const std::string &value,
               TaskSpec &spec)
{
    // Integers are bounded by their field's type; seconds so that
    // Duration::seconds cannot overflow. Signs are kept: validate()
    // names the field a negative value breaks.
    const auto to_duration = [&](Duration *out) {
        int64_t s = 0;
        if (!parse_number(value, -Duration::kMaxSeconds,
                          Duration::kMaxSeconds, &s))
            return bad_value(key, value);
        *out = Duration::seconds(s);
        return Status::ok();
    };
    if (key == "task") {
        spec.name = value;
    } else if (key == "user") {
        spec.user = value;
    } else if (key == "group") {
        spec.group = value;
    } else if (key == "gpus") {
        return parse_number(key, value, INT_MIN, INT_MAX, &spec.gpus);
    } else if (key == "gpu_model") {
        spec.gpu_model = value;
    } else if (key == "gpus_per_node_limit") {
        return parse_number(key, value, INT_MIN, INT_MAX,
                            &spec.gpus_per_node_limit);
    } else if (key == "cpu_cores_per_gpu") {
        return parse_number(key, value, INT_MIN, INT_MAX,
                            &spec.cpu_cores_per_gpu);
    } else if (key == "memory_gb_per_gpu") {
        return parse_number(key, value, -DBL_MAX, DBL_MAX,
                            &spec.memory_gb_per_gpu);
    } else if (key == "qos") {
        auto q = parse_qos_class(value);
        if (!q.is_ok())
            return q.status();
        spec.qos = q.value();
    } else if (key == "preemptible") {
        return parse_bool(key, value, &spec.preemptible);
    } else if (key == "time_limit_s") {
        return to_duration(&spec.time_limit);
    } else if (key == "deadline_s") {
        return to_duration(&spec.deadline);
    } else if (key == "model") {
        spec.model = value;
    } else if (key == "iterations") {
        return parse_number(key, value, INT64_MIN, INT64_MAX,
                            &spec.iterations);
    } else if (key == "artifact") {
        // "name,bytes,version"
        auto parts = parse_list(key, value);
        if (!parts.is_ok())
            return parts.status();
        Artifact a;
        if (parts.value().size() != 3 ||
            !parse_number(parts.value()[1], 0, UINT64_MAX, &a.bytes) ||
            !parse_number(parts.value()[2], 0, UINT64_MAX, &a.version))
            return bad_value(key, value);
        a.name = parts.value()[0];
        spec.artifacts.push_back(std::move(a));
    } else if (key == "runtime") {
        auto r = parse_runtime_pref(value);
        if (!r.is_ok())
            return r.status();
        spec.runtime = r.value();
    } else if (key == "transport") {
        auto t = parse_transport_pref(value);
        if (!t.is_ok())
            return t.status();
        spec.transport = t.value();
    } else if (key == "image") {
        spec.image = value;
    } else if (key == "min_gpus") {
        return parse_number(key, value, INT_MIN, INT_MAX, &spec.min_gpus);
    } else if (key == "max_gpus") {
        return parse_number(key, value, INT_MIN, INT_MAX, &spec.max_gpus);
    } else {
        return Status::invalid_argument("unknown key: " + key);
    }
    return Status::ok();
}

} // namespace

StatusOr<TaskSpec>
TaskSpec::parse(const std::string &text)
{
    TaskSpec spec;
    spec.artifacts.clear();
    if (auto s = for_each_kv_line(text,
                                  [&](const std::string &key,
                                      const std::string &value) {
                                      return apply_task_key(key, value,
                                                            spec);
                                  });
        !s.is_ok())
        return s;
    if (auto s = spec.validate(); !s.is_ok())
        return s;
    return spec;
}

} // namespace tacc::workload
