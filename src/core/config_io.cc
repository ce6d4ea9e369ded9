#include "core/config_io.h"

#include <cfloat>
#include <climits>
#include <cmath>
#include <sstream>

#include "common/strings.h"
#include "predict/config.h"
#include "sched/placement.h"
#include "sched/schedulers.h"

namespace tacc::core {

namespace {

/** The tflops (> 0) and memory_gb (>= 0) fields of a GPU tuple. */
bool
parse_gpu(const std::string &model, std::string_view tflops,
          std::string_view memory_gb, cluster::GpuSpec *gpu)
{
    gpu->model = model;
    return parse_number(tflops, kAboveZero, DBL_MAX, &gpu->tflops) &&
           parse_number(memory_gb, 0.0, DBL_MAX, &gpu->memory_gb);
}

/**
 * Applies one `key: value` line to the config. Returns a Status whose
 * message carries no position; the line loop prefixes the line number,
 * so every diagnostic points at the offending preset line. Unknown keys
 * and out-of-range values are hard errors — a tune-emitted preset that
 * rots (renamed knob, bad bound) must fail loudly, never silently
 * fall back to defaults.
 */
Status
apply_stack_key(const std::string &key, const std::string &value,
                StackConfig &config)
{
    if (key == "gpu" || key == "rack_override" || key == "quota" ||
        key == "power_gpu_w") {
        auto list = parse_list(key, value);
        if (!list.is_ok())
            return list.status();
        const auto &parts = list.value();
        // A failed line fails the whole parse, so fields may be written
        // before the tuple is known to be good.
        if (key == "gpu") {
            if (parts.size() != 3 ||
                !parse_gpu(parts[0], parts[1], parts[2],
                           &config.cluster.node.gpu))
                return bad_value(key, value);
        } else if (key == "rack_override") {
            // "rack,model,tflops,memory_gb,gpu_count"
            int rack = 0;
            cluster::NodeSpec spec = config.cluster.node;
            if (parts.size() != 5 ||
                !parse_number(parts[0], 0, INT_MAX, &rack) ||
                !parse_gpu(parts[1], parts[2], parts[3], &spec.gpu) ||
                !parse_number(parts[4], 1, INT_MAX, &spec.gpu_count))
                return bad_value(key, value);
            config.cluster.rack_node_overrides[rack] = spec;
        } else if (key == "quota") {
            // "group,cap"; a negative cap means unlimited.
            int cap = 0;
            if (parts.size() != 2 ||
                !parse_number(parts[1], INT_MIN, INT_MAX, &cap))
                return bad_value(key, value);
            config.group_quotas[parts[0]] = cap;
        } else {
            // "idle,active" for the default GPU, or "model,idle,active".
            const size_t n = parts.size();
            if (n != 2 && n != 3)
                return bad_value(key, value);
            auto &spec = n == 2 ? config.power.default_gpu
                                : config.power.gpu_power[parts[0]];
            if (!parse_number(parts[n - 2], 0.0, DBL_MAX, &spec.idle_w) ||
                !parse_number(parts[n - 1], 0.0, DBL_MAX, &spec.active_w))
                return bad_value(key, value);
        }
        return Status::ok();
    }

    auto &topo = config.cluster.topology;
    auto &opts = config.sched_opts;
    auto &failure = config.exec.failure;
    auto &power = config.power;
    auto &predict = config.predict;
    double dv = 0;
    if (key == "cluster") {
        if (value.empty())
            return bad_value(key, value);
        config.cluster.name = value;
    } else if (key == "racks") {
        return parse_number(key, value, 1, INT_MAX, &topo.racks);
    } else if (key == "nodes_per_rack") {
        return parse_number(key, value, 1, INT_MAX, &topo.nodes_per_rack);
    } else if (key == "gpus_per_node") {
        return parse_number(key, value, 1, INT_MAX,
                            &config.cluster.node.gpu_count);
    } else if (key == "oversubscription") {
        return parse_number(key, value, 1.0, DBL_MAX,
                            &topo.oversubscription);
    } else if (key == "nic_gbps" || key == "nvlink_gbps") {
        if (auto s = parse_number(key, value, kAboveZero, DBL_MAX, &dv);
            !s.is_ok())
            return s;
        if (key == "nic_gbps")
            topo.nic_gbps = config.cluster.node.nic_gbps = dv;
        else
            topo.nvlink_gbps = config.cluster.node.nvlink_gbps = dv;
    } else if (key == "scheduler") {
        if (!sched::make_scheduler(value))
            return Status::invalid_argument("unknown scheduler: " + value);
        config.scheduler = value;
    } else if (key == "placement") {
        if (!sched::make_placement_policy(value))
            return Status::invalid_argument("unknown placement: " + value);
        config.placement = value;
    } else if (key == "w_age") {
        return parse_number(key, value, 0.0, DBL_MAX, &opts.w_age);
    } else if (key == "w_fairshare") {
        return parse_number(key, value, 0.0, DBL_MAX, &opts.w_fairshare);
    } else if (key == "w_qos") {
        return parse_number(key, value, 0.0, DBL_MAX, &opts.w_qos);
    } else if (key == "w_size") {
        return parse_number(key, value, 0.0, DBL_MAX, &opts.w_size);
    } else if (key == "backfill_depth") {
        return parse_number(key, value, 0, INT_MAX, &opts.backfill_depth);
    } else if (key == "gang_quantum_s") {
        if (auto s = parse_number(key, value, kAboveZero,
                                  double(Duration::kMaxSeconds), &dv);
            !s.is_ok())
            return s;
        opts.gang_quantum = Duration::from_seconds(dv);
    } else if (key == "las_threshold_gpu_s") {
        return parse_number(key, value, kAboveZero, DBL_MAX,
                            &opts.las_queue_threshold_gpu_s);
    } else if (key == "preempt_cost_gpu_s") {
        return parse_number(key, value, 0.0, DBL_MAX,
                            &opts.preempt_cost_threshold_gpu_s);
    } else if (key == "usage_half_life_h") {
        if (auto s = parse_number(key, value, kAboveZero,
                                  Duration::kMaxSeconds / 3600.0, &dv);
            !s.is_ok())
            return s;
        config.usage_half_life = Duration::from_seconds(dv * 3600.0);
    } else if (key == "default_quota") {
        return parse_number(key, value, INT_MIN, INT_MAX,
                            &config.default_group_quota);
    } else if (key == "avoid_gpu_mixing") {
        return parse_bool(key, value, &config.avoid_gpu_mixing);
    } else if (key == "rdma") {
        return parse_bool(key, value, &config.exec.rdma_available);
    } else if (key == "innetwork") {
        return parse_bool(key, value, &config.exec.innetwork_available);
    } else if (key == "failsafe") {
        return parse_bool(key, value, &failure.failsafe_switching);
    } else if (key == "spine_contention") {
        return parse_bool(key, value, &config.exec.model_spine_contention);
    } else if (key == "mtbf_hours") {
        return parse_number(key, value, 0.0, DBL_MAX,
                            &failure.node_mtbf_hours);
    } else if (key == "persistent_failure_prob") {
        return parse_number(key, value, 0.0, 1.0, &failure.persistent_prob);
    } else if (key == "checkpoint_interval_s") {
        return parse_number(key, value, 0.0, DBL_MAX,
                            &config.exec.checkpoint_interval_s);
    } else if (key == "checkpoint_cost_s") {
        return parse_number(key, value, 0.0, DBL_MAX,
                            &config.exec.checkpoint_cost_s);
    } else if (key == "restart_overhead_s") {
        return parse_number(key, value, 0.0, DBL_MAX,
                            &config.exec.restart_overhead_s);
    } else if (key == "power") {
        return parse_bool(key, value, &power.enabled);
    } else if (key == "power_policy") {
        if (value != "admission" && value != "dvfs")
            return bad_value(key, value);
        power.policy = value;
    } else if (key == "power_cluster_cap_w") {
        return parse_number(key, value, 0.0, DBL_MAX, &power.cluster_cap_w);
    } else if (key == "power_rack_cap_w") {
        return parse_number(key, value, 0.0, DBL_MAX, &power.rack_cap_w);
    } else if (key == "power_pdu_cap_w") {
        return parse_number(key, value, 0.0, DBL_MAX, &power.pdu_cap_w);
    } else if (key == "power_racks_per_pdu") {
        return parse_number(key, value, 1, INT_MAX, &power.racks_per_pdu);
    } else if (key == "power_host_idle_w") {
        return parse_number(key, value, 0.0, DBL_MAX, &power.host_idle_w);
    } else if (key == "power_dvfs_exponent") {
        return parse_number(key, value, kAboveZero, DBL_MAX,
                            &power.dvfs_exponent);
    } else if (key == "power_min_clock") {
        return parse_number(key, value, kAboveZero, 1.0, &power.min_clock);
    } else if (key == "predict") {
        return parse_bool(key, value, &predict.enabled);
    } else if (key == "predict_mode") {
        auto mode = predict::parse_estimator_mode(value);
        if (!mode.is_ok())
            return mode.status();
        predict.mode = mode.value();
    } else if (key == "predict_decay") {
        // [0, 1): the largest double below 1 is the upper bound.
        return parse_number(key, value, 0.0, std::nextafter(1.0, 0.0),
                            &predict.decay);
    } else if (key == "predict_sample_floor") {
        return parse_number(key, value, 1, INT_MAX, &predict.sample_floor);
    } else if (key == "predict_safety_min") {
        return parse_number(key, value, 1.0, DBL_MAX, &predict.safety_min);
    } else if (key == "predict_safety_max") {
        return parse_number(key, value, 1.0, DBL_MAX, &predict.safety_max);
    } else if (key == "predict_bias") {
        return parse_number(key, value, kAboveZero, DBL_MAX, &predict.bias);
    } else if (key == "predict_forecast_alpha") {
        return parse_number(key, value, kAboveZero, 1.0,
                            &predict.forecast_alpha);
    } else if (key == "predict_forecast_beta") {
        return parse_number(key, value, 0.0, 1.0, &predict.forecast_beta);
    } else if (key == "seed") {
        return parse_number(key, value, 0, UINT64_MAX, &config.seed);
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
    if (auto s = for_each_kv_line(text,
                                  [&](const std::string &key,
                                      const std::string &value) {
                                      return apply_stack_key(key, value,
                                                             config);
                                  });
        !s.is_ok())
        return s;
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
