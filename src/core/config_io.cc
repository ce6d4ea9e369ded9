#include "core/config_io.h"

#include <cmath>
#include <sstream>

#include "common/strings.h"
#include "predict/config.h"
#include "sched/placement.h"
#include "sched/schedulers.h"

namespace tacc::core {

namespace {

Status
bad(const std::string &key, const std::string &value)
{
    return Status::invalid_argument("bad value for " + key + ": " + value);
}

StatusOr<bool>
parse_bool(const std::string &key, const std::string &value)
{
    if (value == "true")
        return true;
    if (value == "false")
        return false;
    return bad(key, value);
}

/**
 * Applies one `key: value` line to the config. Returns a Status whose
 * message carries no position; the caller prefixes the line number, so
 * every diagnostic points at the offending preset line. Unknown keys
 * and out-of-range values are hard errors — a tune-emitted preset that
 * rots (renamed knob, bad bound) must fail loudly, never silently
 * fall back to defaults.
 */
Status
apply_stack_key(const std::string &key, const std::string &value,
                StackConfig &config)
{
    auto to_double = [&](double &out) -> Status {
        try {
            size_t pos = 0;
            out = std::stod(value, &pos);
            // NaN would pass every range check below.
            if (pos != value.size() || !std::isfinite(out))
                throw std::invalid_argument(value);
        } catch (const std::exception &) {
            return bad(key, value);
        }
        return Status::ok();
    };
    auto to_int = [&](int &out) -> Status {
        try {
            size_t pos = 0;
            out = std::stoi(value, &pos);
            if (pos != value.size())
                throw std::invalid_argument(value);
        } catch (const std::exception &) {
            return bad(key, value);
        }
        return Status::ok();
    };
    auto to_nonneg_double = [&](double &out) -> Status {
        if (auto s = to_double(out); !s.is_ok())
            return s;
        if (out < 0)
            return bad(key, value);
        return Status::ok();
    };

    double dv = 0;
    int iv = 0;
    if (key == "cluster") {
        if (value.empty())
            return bad(key, value);
        config.cluster.name = value;
    } else if (key == "racks") {
        if (auto s = to_int(iv); !s.is_ok())
            return s;
        if (iv <= 0)
            return bad(key, value);
        config.cluster.topology.racks = iv;
    } else if (key == "nodes_per_rack") {
        if (auto s = to_int(iv); !s.is_ok())
            return s;
        if (iv <= 0)
            return bad(key, value);
        config.cluster.topology.nodes_per_rack = iv;
    } else if (key == "gpus_per_node") {
        if (auto s = to_int(iv); !s.is_ok())
            return s;
        if (iv <= 0)
            return bad(key, value);
        config.cluster.node.gpu_count = iv;
    } else if (key == "gpu") {
        const auto parts = split(value, ',');
        if (parts.size() != 3)
            return bad(key, value);
        try {
            config.cluster.node.gpu.model = std::string(trim(parts[0]));
            config.cluster.node.gpu.tflops = std::stod(parts[1]);
            config.cluster.node.gpu.memory_gb = std::stod(parts[2]);
        } catch (const std::exception &) {
            return bad(key, value);
        }
    } else if (key == "rack_override") {
        const auto parts = split(value, ',');
        if (parts.size() != 5)
            return bad(key, value);
        try {
            const int rack = std::stoi(parts[0]);
            cluster::NodeSpec spec = config.cluster.node;
            spec.gpu.model = std::string(trim(parts[1]));
            spec.gpu.tflops = std::stod(parts[2]);
            spec.gpu.memory_gb = std::stod(parts[3]);
            spec.gpu_count = std::stoi(parts[4]);
            if (rack < 0 || spec.gpu_count <= 0)
                return bad(key, value);
            config.cluster.rack_node_overrides[rack] = spec;
        } catch (const std::exception &) {
            return bad(key, value);
        }
    } else if (key == "oversubscription") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv < 1.0)
            return bad(key, value);
        config.cluster.topology.oversubscription = dv;
    } else if (key == "nic_gbps") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv <= 0)
            return bad(key, value);
        config.cluster.topology.nic_gbps = dv;
        config.cluster.node.nic_gbps = dv;
    } else if (key == "nvlink_gbps") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv <= 0)
            return bad(key, value);
        config.cluster.topology.nvlink_gbps = dv;
        config.cluster.node.nvlink_gbps = dv;
    } else if (key == "scheduler") {
        if (!sched::make_scheduler(value))
            return Status::invalid_argument("unknown scheduler: " + value);
        config.scheduler = value;
    } else if (key == "placement") {
        if (!sched::make_placement_policy(value))
            return Status::invalid_argument("unknown placement: " + value);
        config.placement = value;
    } else if (key == "w_age") {
        if (auto s = to_nonneg_double(config.sched_opts.w_age); !s.is_ok())
            return s;
    } else if (key == "w_fairshare") {
        if (auto s = to_nonneg_double(config.sched_opts.w_fairshare);
            !s.is_ok())
            return s;
    } else if (key == "w_qos") {
        if (auto s = to_nonneg_double(config.sched_opts.w_qos); !s.is_ok())
            return s;
    } else if (key == "w_size") {
        if (auto s = to_nonneg_double(config.sched_opts.w_size);
            !s.is_ok())
            return s;
    } else if (key == "backfill_depth") {
        if (auto s = to_int(iv); !s.is_ok())
            return s;
        if (iv < 0)
            return bad(key, value);
        config.sched_opts.backfill_depth = iv;
    } else if (key == "gang_quantum_s") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv <= 0)
            return bad(key, value);
        config.sched_opts.gang_quantum = Duration::from_seconds(dv);
    } else if (key == "las_threshold_gpu_s") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv <= 0)
            return bad(key, value);
        config.sched_opts.las_queue_threshold_gpu_s = dv;
    } else if (key == "preempt_cost_gpu_s") {
        if (auto s = to_nonneg_double(
                config.sched_opts.preempt_cost_threshold_gpu_s);
            !s.is_ok())
            return s;
    } else if (key == "usage_half_life_h") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv <= 0)
            return bad(key, value);
        config.usage_half_life = Duration::from_seconds(dv * 3600.0);
    } else if (key == "quota") {
        const auto parts = split(value, ',');
        if (parts.size() != 2)
            return bad(key, value);
        try {
            config.group_quotas[std::string(trim(parts[0]))] =
                std::stoi(parts[1]);
        } catch (const std::exception &) {
            return bad(key, value);
        }
    } else if (key == "default_quota") {
        if (auto s = to_int(iv); !s.is_ok())
            return s;
        config.default_group_quota = iv;
    } else if (key == "avoid_gpu_mixing") {
        auto b = parse_bool(key, value);
        if (!b.is_ok())
            return b.status();
        config.avoid_gpu_mixing = b.value();
    } else if (key == "rdma") {
        auto b = parse_bool(key, value);
        if (!b.is_ok())
            return b.status();
        config.exec.rdma_available = b.value();
    } else if (key == "innetwork") {
        auto b = parse_bool(key, value);
        if (!b.is_ok())
            return b.status();
        config.exec.innetwork_available = b.value();
    } else if (key == "failsafe") {
        auto b = parse_bool(key, value);
        if (!b.is_ok())
            return b.status();
        config.exec.failure.failsafe_switching = b.value();
    } else if (key == "spine_contention") {
        auto b = parse_bool(key, value);
        if (!b.is_ok())
            return b.status();
        config.exec.model_spine_contention = b.value();
    } else if (key == "mtbf_hours") {
        if (auto s = to_nonneg_double(config.exec.failure.node_mtbf_hours);
            !s.is_ok())
            return s;
    } else if (key == "persistent_failure_prob") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv < 0 || dv > 1)
            return bad(key, value);
        config.exec.failure.persistent_prob = dv;
    } else if (key == "checkpoint_interval_s") {
        if (auto s =
                to_nonneg_double(config.exec.checkpoint_interval_s);
            !s.is_ok())
            return s;
    } else if (key == "checkpoint_cost_s") {
        if (auto s = to_nonneg_double(config.exec.checkpoint_cost_s);
            !s.is_ok())
            return s;
    } else if (key == "restart_overhead_s") {
        if (auto s = to_nonneg_double(config.exec.restart_overhead_s);
            !s.is_ok())
            return s;
    } else if (key == "power") {
        auto b = parse_bool(key, value);
        if (!b.is_ok())
            return b.status();
        config.power.enabled = b.value();
    } else if (key == "power_policy") {
        if (value != "admission" && value != "dvfs")
            return bad(key, value);
        config.power.policy = value;
    } else if (key == "power_cluster_cap_w") {
        if (auto s = to_nonneg_double(config.power.cluster_cap_w);
            !s.is_ok())
            return s;
    } else if (key == "power_rack_cap_w") {
        if (auto s = to_nonneg_double(config.power.rack_cap_w); !s.is_ok())
            return s;
    } else if (key == "power_pdu_cap_w") {
        if (auto s = to_nonneg_double(config.power.pdu_cap_w); !s.is_ok())
            return s;
    } else if (key == "power_racks_per_pdu") {
        if (auto s = to_int(iv); !s.is_ok())
            return s;
        if (iv <= 0)
            return bad(key, value);
        config.power.racks_per_pdu = iv;
    } else if (key == "power_host_idle_w") {
        if (auto s = to_nonneg_double(config.power.host_idle_w);
            !s.is_ok())
            return s;
    } else if (key == "power_gpu_w") {
        // "idle,active" for the default GPU, or "model,idle,active".
        const auto parts = split(value, ',');
        try {
            if (parts.size() == 2) {
                config.power.default_gpu.idle_w = std::stod(parts[0]);
                config.power.default_gpu.active_w = std::stod(parts[1]);
            } else if (parts.size() == 3) {
                power::GpuPowerSpec spec;
                spec.idle_w = std::stod(parts[1]);
                spec.active_w = std::stod(parts[2]);
                config.power.gpu_power[std::string(trim(parts[0]))] = spec;
            } else {
                return bad(key, value);
            }
        } catch (const std::exception &) {
            return bad(key, value);
        }
    } else if (key == "power_dvfs_exponent") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv <= 0)
            return bad(key, value);
        config.power.dvfs_exponent = dv;
    } else if (key == "power_min_clock") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv <= 0 || dv > 1)
            return bad(key, value);
        config.power.min_clock = dv;
    } else if (key == "predict") {
        auto b = parse_bool(key, value);
        if (!b.is_ok())
            return b.status();
        config.predict.enabled = b.value();
    } else if (key == "predict_mode") {
        auto mode = predict::parse_estimator_mode(value);
        if (!mode.is_ok())
            return mode.status();
        config.predict.mode = mode.value();
    } else if (key == "predict_decay") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv < 0 || dv >= 1)
            return bad(key, value);
        config.predict.decay = dv;
    } else if (key == "predict_sample_floor") {
        if (auto s = to_int(iv); !s.is_ok())
            return s;
        if (iv < 1)
            return bad(key, value);
        config.predict.sample_floor = iv;
    } else if (key == "predict_safety_min") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv < 1)
            return bad(key, value);
        config.predict.safety_min = dv;
    } else if (key == "predict_safety_max") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv < 1)
            return bad(key, value);
        config.predict.safety_max = dv;
    } else if (key == "predict_bias") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv <= 0)
            return bad(key, value);
        config.predict.bias = dv;
    } else if (key == "predict_forecast_alpha") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv <= 0 || dv > 1)
            return bad(key, value);
        config.predict.forecast_alpha = dv;
    } else if (key == "predict_forecast_beta") {
        if (auto s = to_double(dv); !s.is_ok())
            return s;
        if (dv < 0 || dv > 1)
            return bad(key, value);
        config.predict.forecast_beta = dv;
    } else if (key == "seed") {
        if (auto s = to_int(iv); !s.is_ok())
            return s;
        if (iv < 0)
            return bad(key, value);
        config.seed = uint64_t(iv);
    } else {
        return Status::invalid_argument("unknown key: " + key);
    }
    return Status::ok();
}

} // namespace

StatusOr<StackConfig>
parse_stack_config(const std::string &text)
{
    StackConfig config;

    int lineno = 0;
    for (const auto &raw_line : split(text, '\n')) {
        ++lineno;
        const std::string line{trim(raw_line)};
        if (line.empty() || line[0] == '#')
            continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos) {
            return Status::invalid_argument(
                strfmt("line %d: malformed line: ", lineno) + line);
        }
        const std::string key{trim(line.substr(0, colon))};
        const std::string value{trim(line.substr(colon + 1))};
        if (auto s = apply_stack_key(key, value, config); !s.is_ok()) {
            return Status::invalid_argument(strfmt("line %d: ", lineno) +
                                            s.message());
        }
    }
    return config;
}

std::string
stack_config_to_text(const StackConfig &config)
{
    std::ostringstream os;
    os << "cluster: " << config.cluster.name << '\n';
    os << "racks: " << config.cluster.topology.racks << '\n';
    os << "nodes_per_rack: " << config.cluster.topology.nodes_per_rack
       << '\n';
    os << "gpus_per_node: " << config.cluster.node.gpu_count << '\n';
    os << strfmt("gpu: %s,%g,%g\n", config.cluster.node.gpu.model.c_str(),
                 config.cluster.node.gpu.tflops,
                 config.cluster.node.gpu.memory_gb);
    for (const auto &[rack, spec] : config.cluster.rack_node_overrides) {
        os << strfmt("rack_override: %d,%s,%g,%g,%d\n", rack,
                     spec.gpu.model.c_str(), spec.gpu.tflops,
                     spec.gpu.memory_gb, spec.gpu_count);
    }
    os << strfmt("oversubscription: %g\n",
                 config.cluster.topology.oversubscription);
    os << strfmt("nic_gbps: %g\n", config.cluster.topology.nic_gbps);
    os << strfmt("nvlink_gbps: %g\n",
                 config.cluster.topology.nvlink_gbps);
    os << "scheduler: " << config.scheduler << '\n';
    os << "placement: " << config.placement << '\n';
    // Scheduler tunables: the auto-tuner's search dimensions, so a
    // rendered preset carries every knob a search could have moved.
    os << strfmt("w_age: %g\n", config.sched_opts.w_age);
    os << strfmt("w_fairshare: %g\n", config.sched_opts.w_fairshare);
    os << strfmt("w_qos: %g\n", config.sched_opts.w_qos);
    os << strfmt("w_size: %g\n", config.sched_opts.w_size);
    os << "backfill_depth: " << config.sched_opts.backfill_depth << '\n';
    os << strfmt("gang_quantum_s: %g\n",
                 config.sched_opts.gang_quantum.to_seconds());
    os << strfmt("las_threshold_gpu_s: %g\n",
                 config.sched_opts.las_queue_threshold_gpu_s);
    os << strfmt("preempt_cost_gpu_s: %g\n",
                 config.sched_opts.preempt_cost_threshold_gpu_s);
    os << strfmt("usage_half_life_h: %g\n",
                 config.usage_half_life.to_seconds() / 3600.0);
    for (const auto &[group, cap] : config.group_quotas)
        os << "quota: " << group << ',' << cap << '\n';
    os << "default_quota: " << config.default_group_quota << '\n';
    os << "avoid_gpu_mixing: "
       << (config.avoid_gpu_mixing ? "true" : "false") << '\n';
    os << "rdma: " << (config.exec.rdma_available ? "true" : "false")
       << '\n';
    os << "innetwork: "
       << (config.exec.innetwork_available ? "true" : "false") << '\n';
    os << "failsafe: "
       << (config.exec.failure.failsafe_switching ? "true" : "false")
       << '\n';
    os << "spine_contention: "
       << (config.exec.model_spine_contention ? "true" : "false") << '\n';
    os << strfmt("mtbf_hours: %g\n",
                 config.exec.failure.node_mtbf_hours);
    os << strfmt("persistent_failure_prob: %g\n",
                 config.exec.failure.persistent_prob);
    os << strfmt("checkpoint_interval_s: %g\n",
                 config.exec.checkpoint_interval_s);
    os << strfmt("checkpoint_cost_s: %g\n",
                 config.exec.checkpoint_cost_s);
    os << strfmt("restart_overhead_s: %g\n",
                 config.exec.restart_overhead_s);
    // Power keys appear only when the subsystem is on, keeping rendered
    // configs of power-free stacks byte-identical to the pre-power form.
    if (config.power.enabled) {
        os << "power: true\n";
        os << "power_policy: " << config.power.policy << '\n';
        os << strfmt("power_cluster_cap_w: %g\n",
                     config.power.cluster_cap_w);
        os << strfmt("power_rack_cap_w: %g\n", config.power.rack_cap_w);
        os << strfmt("power_pdu_cap_w: %g\n", config.power.pdu_cap_w);
        os << "power_racks_per_pdu: " << config.power.racks_per_pdu
           << '\n';
        os << strfmt("power_host_idle_w: %g\n", config.power.host_idle_w);
        os << strfmt("power_gpu_w: %g,%g\n",
                     config.power.default_gpu.idle_w,
                     config.power.default_gpu.active_w);
        for (const auto &[model, spec] : config.power.gpu_power) {
            os << strfmt("power_gpu_w: %s,%g,%g\n", model.c_str(),
                         spec.idle_w, spec.active_w);
        }
        os << strfmt("power_dvfs_exponent: %g\n",
                     config.power.dvfs_exponent);
        os << strfmt("power_min_clock: %g\n", config.power.min_clock);
    }
    // Prediction keys follow the power precedent: emitted only when the
    // subsystem is on, so prediction-free rendered configs stay
    // byte-identical to the pre-prediction form.
    if (config.predict.enabled) {
        os << "predict: true\n";
        os << "predict_mode: "
           << predict::estimator_mode_name(config.predict.mode) << '\n';
        os << strfmt("predict_decay: %g\n", config.predict.decay);
        os << "predict_sample_floor: " << config.predict.sample_floor
           << '\n';
        os << strfmt("predict_safety_min: %g\n",
                     config.predict.safety_min);
        os << strfmt("predict_safety_max: %g\n",
                     config.predict.safety_max);
        os << strfmt("predict_bias: %g\n", config.predict.bias);
        os << strfmt("predict_forecast_alpha: %g\n",
                     config.predict.forecast_alpha);
        os << strfmt("predict_forecast_beta: %g\n",
                     config.predict.forecast_beta);
    }
    os << "seed: " << config.seed << '\n';
    return os.str();
}

} // namespace tacc::core
