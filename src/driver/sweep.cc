#include "driver/sweep.h"

#include <cfloat>
#include <cstdint>

#include "common/strings.h"
#include "core/config_io.h"
#include "predict/config.h"
#include "sched/placement.h"
#include "sched/schedulers.h"

namespace tacc::driver {

namespace {

/** Compact load rendering: x1, x1.4, x0.75 (no trailing zeros). */
std::string
load_tag(double load)
{
    std::string s = strfmt("%g", load);
    return "x" + s;
}

/** An outer grid point: the base scenario with its fault, power,
 *  serve and estimator modes applied, and the name suffix they add. */
struct Variant {
    core::ScenarioConfig config;
    std::string suffix;
};

/**
 * Crosses `variants` with one axis: every point is outer to all of
 * them, and `apply(point, &stack)` applies it and returns its suffix.
 */
template <typename Point, typename Apply>
std::vector<Variant>
cross(const std::vector<Variant> &variants, const std::vector<Point> &points,
      Apply apply)
{
    std::vector<Variant> out;
    out.reserve(variants.size() * points.size());
    for (const Point &point : points) {
        for (const Variant &variant : variants) {
            Variant next = variant;
            next.suffix += apply(point, &next.config.stack);
            out.push_back(std::move(next));
        }
    }
    return out;
}

} // namespace

Status
apply_preempt_mode(const std::string &mode, core::StackConfig *stack)
{
    if (mode == "graceful") {
        stack->exec.restart_overhead_s = 30.0;
        stack->exec.checkpoint_interval_s = 0.0;
    } else if (mode == "free") {
        stack->exec.restart_overhead_s = 0.0;
        stack->exec.checkpoint_cost_s = 0.0;
        stack->exec.checkpoint_interval_s = 0.0;
    } else if (mode == "costly") {
        stack->exec.restart_overhead_s = 120.0;
        stack->exec.checkpoint_interval_s = 0.0;
    } else if (mode == "checkpoint") {
        stack->exec.restart_overhead_s = 30.0;
        stack->exec.checkpoint_interval_s = 1800.0;
    } else {
        return Status::invalid_argument("unknown preempt mode: " + mode);
    }
    return Status::ok();
}

Status
apply_power_mode(double cap_w, const std::string &policy,
                 core::StackConfig *stack)
{
    if (power_off(cap_w))
        return Status::ok(); // power off: the byte-identical baseline
    if (policy != "admission" && policy != "dvfs")
        return Status::invalid_argument("unknown power policy: " + policy);
    stack->power.enabled = true;
    stack->power.policy = policy;
    stack->power.cluster_cap_w = cap_w;
    return Status::ok();
}

Status
apply_fault_mode(const std::string &mode, core::StackConfig *stack)
{
    if (mode == "none")
        return Status::ok();
    if (mode == "segfault") {
        stack->exec.failure.node_mtbf_hours = 120.0;
        stack->exec.failure.requeue_backoff_base_s = 5.0;
        return Status::ok();
    }
    if (mode == "storm" || mode == "storm-jitter") {
        stack->exec.failure.node_mtbf_hours = 500.0;
        stack->exec.failure.requeue_backoff_base_s = 5.0;
        stack->faults.enabled = true;
        stack->faults.node_crash_mtbf_hours = 240.0;
        stack->faults.node_degrade_mtbf_hours = 360.0;
        stack->faults.rack_outage_mtbf_hours = 1440.0;
        stack->faults.pdu_outage_mtbf_hours = 2880.0;
        // "-jitter": the same storm with decorrelated requeue backoff
        // (a separate mode so plain "storm" goldens stay byte-identical
        // while the jittered grid exercises the per-job streams).
        stack->exec.failure.requeue_jitter = (mode == "storm-jitter");
        return Status::ok();
    }
    return Status::invalid_argument("unknown fault mode: " + mode);
}

Status
apply_serve_mode(const std::string &mode, double burst,
                 core::StackConfig *stack)
{
    if (serve_off(mode))
        return Status::ok(); // serving off: the byte-identical baseline
    if (mode != "robust" && mode != "baseline")
        return Status::invalid_argument("unknown serve mode: " + mode);
    auto &serve = stack->serve;
    serve.enabled = true;
    serve.burst_factor = burst;
    // A burst with no configured window defaults to the middle of the
    // horizon: [h/3, h/3 + h/4).
    if (burst > 1.0 && serve.burst_duration_s <= 0) {
        serve.burst_start_s = serve.horizon_s / 3.0;
        serve.burst_duration_s = serve.horizon_s / 4.0;
    }
    if (mode == "robust") {
        serve.admission = true;
        serve.retry_budget = true;
        serve.breakers = true;
        serve.degrade = true;
        serve.retry_jitter = true;
    } else {
        // The metastable-collapse foil: every protection off, hungry
        // deterministic retries, deep queues.
        serve.admission = false;
        serve.retry_budget = false;
        serve.breakers = false;
        serve.degrade = false;
        serve.retry_jitter = false;
        serve.max_retries = 6;
        serve.hard_queue_cap = 4096;
    }
    return Status::ok();
}

Status
apply_estimator_mode(const std::string &mode, double bias,
                     core::StackConfig *stack)
{
    if (estimator_off(mode))
        return Status::ok(); // prediction off: the byte-identical baseline
    auto parsed = predict::parse_estimator_mode(mode);
    if (!parsed.is_ok())
        return parsed.status();
    stack->predict.enabled = true;
    stack->predict.mode = parsed.value();
    stack->predict.bias = bias;
    return Status::ok();
}

std::vector<SweepScenario>
expand_sweep(const SweepSpec &spec)
{
    // The outer axes are crossed innermost first, so the estimator ends
    // up outermost, then serve, then power, then fault_modes, while each
    // axis's name suffix follows those of the axes inside it. Off points
    // ("none", every "limit", every "off", every cap <= 0) add no suffix
    // and leave the stack alone, so "limit,<modes>", "off,<modes>",
    // "0,<caps>" and "none,<more>" specs keep the plain grid as an
    // unchanged prefix of the expansion. Modes are validated at parse
    // time; an invalid one in a hand-built spec surfaces when the run
    // fails.
    std::vector<Variant> variants{{spec.base, ""}};
    variants = cross(variants, spec.fault_modes,
                     [](const std::string &mode, core::StackConfig *stack) {
                         (void)apply_fault_mode(mode, stack);
                         return mode == "none" ? std::string()
                                               : "+" + mode;
                     });
    variants = cross(
        variants,
        collapse_off(spec.power_caps, spec.power_policies, power_off),
        [](const auto &point, core::StackConfig *stack) {
            if (!point)
                return std::string();
            const auto &[cap_w, policy] = *point;
            (void)apply_power_mode(cap_w, policy, stack);
            return strfmt("+%gkW-%s", cap_w / 1000.0, policy.c_str());
        });
    variants = cross(
        variants, collapse_off(spec.serve_modes, spec.bursts, serve_off),
        [](const auto &point, core::StackConfig *stack) {
            if (!point)
                return std::string();
            const auto &[mode, burst] = *point;
            (void)apply_serve_mode(mode, burst, stack);
            return "+serve-" + mode +
                   (burst != 1.0 ? strfmt("-b%g", burst) : "");
        });
    variants = cross(
        variants,
        collapse_off(spec.estimator_modes, spec.mispredict_bias,
                     estimator_off),
        [](const auto &point, core::StackConfig *stack) {
            if (!point)
                return std::string();
            const auto &[mode, bias] = *point;
            (void)apply_estimator_mode(mode, bias, stack);
            return "+est-" + mode +
                   (bias != 1.0 ? strfmt("-x%g", bias) : "");
        });

    std::vector<SweepScenario> out;
    out.reserve(spec.grid_size());
    for (const Variant &variant : variants) {
        for (const auto &scheduler : spec.schedulers) {
            for (const auto &placement : spec.placements) {
                for (const auto &mode : spec.preempt_modes) {
                    for (double load : spec.loads) {
                        for (uint64_t seed : spec.seeds) {
                            SweepScenario sc;
                            sc.config = variant.config;
                            sc.config.stack.scheduler = scheduler;
                            sc.config.stack.placement = placement;
                            (void)apply_preempt_mode(mode,
                                                     &sc.config.stack);
                            sc.config.trace.mean_interarrival_s =
                                spec.base.trace.mean_interarrival_s / load;
                            sc.config.stack.seed = seed;
                            sc.config.trace.seed = seed;
                            sc.name = scheduler + "/" + placement + "/" +
                                      mode + "/" + load_tag(load) + "/s" +
                                      std::to_string(seed) +
                                      variant.suffix;
                            out.push_back(std::move(sc));
                        }
                    }
                }
            }
        }
    }
    return out;
}

Status
apply_scenario_key(const std::string &key, const std::string &value,
                   core::ScenarioConfig *config)
{
    constexpr int kMaxCount = 1'000'000'000;
    auto &trace = config->trace;
    auto &cluster = config->stack.cluster;
    if (key == "jobs")
        return parse_number(key, value, 1, kMaxCount, &trace.num_jobs);
    if (key == "interarrival_s") {
        return parse_number(key, value, kAboveZero, DBL_MAX,
                            &trace.mean_interarrival_s);
    }
    if (key == "diurnal")
        return parse_bool(key, value, &trace.diurnal);
    if (key == "frac_interactive")
        return parse_number(key, value, 0.0, 1.0, &trace.frac_interactive);
    if (key == "frac_best_effort")
        return parse_number(key, value, 0.0, 1.0, &trace.frac_best_effort);
    if (key == "frac_deadline")
        return parse_number(key, value, 0.0, 1.0, &trace.frac_deadline);
    if (key == "frac_elastic")
        return parse_number(key, value, 0.0, 1.0, &trace.frac_elastic);
    if (key == "racks") {
        return parse_number(key, value, 1, kMaxCount,
                            &cluster.topology.racks);
    }
    if (key == "nodes_per_rack") {
        return parse_number(key, value, 1, kMaxCount,
                            &cluster.topology.nodes_per_rack);
    }
    if (key == "gpus_per_node") {
        return parse_number(key, value, 1, kMaxCount,
                            &cluster.node.gpu_count);
    }
    if (key == "oversubscription") {
        return parse_number(key, value, 1.0, DBL_MAX,
                            &cluster.topology.oversubscription);
    }
    if (key == "max_events")
        return parse_number(key, value, 1, UINT64_MAX, &config->max_events);
    if (key == "streaming")
        return parse_bool(key, value, &config->streaming);
    if (key == "stream_window") {
        uint64_t window = 0;
        if (auto s = parse_number(key, value, 1, UINT64_MAX, &window);
            !s.is_ok())
            return s;
        config->stream_window = size_t(window);
        return Status::ok();
    }
    return Status::invalid_argument("unknown key: " + key);
}

namespace {

/** Applies one line of the sweep dialect to `spec`. */
Status
apply_sweep_key(const std::string &key, const std::string &value,
                const std::string &spec_dir, SweepSpec &spec)
{
    // The string axes: every entry is checked by applying it once.
    using Check = Status (*)(const std::string &);
    auto axis = [&](std::vector<std::string> &out, Check check) -> Status {
        auto list = parse_list(key, value);
        if (!list.is_ok())
            return list.status();
        for (const auto &item : list.value()) {
            if (auto s = check(item); !s.is_ok())
                return s;
        }
        out = std::move(list).value();
        return Status::ok();
    };

    if (key == "preset") {
        // A deployment-dialect file (e.g. a tacc_tune winner) becomes
        // the base stack; keys after this line and the axes still
        // override it.
        std::string path = value;
        if (!spec_dir.empty() && !path.empty() && path[0] != '/')
            path = spec_dir + "/" + path;
        auto text = read_text_file(path);
        if (!text.is_ok())
            return text.status();
        auto stack = core::parse_stack_config(text.value());
        if (!stack.is_ok()) {
            return Status::invalid_argument(
                "preset " + path + ": " + stack.status().message());
        }
        spec.base.stack = std::move(stack).value();
        spec.base.stack.emit_monitor_logs = false;
        return Status::ok();
    }
    if (key == "schedulers") {
        return axis(spec.schedulers, [](const std::string &name) {
            return sched::make_scheduler(name, {})
                       ? Status::ok()
                       : Status::invalid_argument("unknown scheduler: " +
                                                  name);
        });
    }
    if (key == "placements") {
        return axis(spec.placements, [](const std::string &name) {
            return sched::make_placement_policy(name)
                       ? Status::ok()
                       : Status::invalid_argument("unknown placement: " +
                                                  name);
        });
    }
    if (key == "preempt_modes") {
        return axis(spec.preempt_modes, [](const std::string &mode) {
            core::StackConfig scratch;
            return apply_preempt_mode(mode, &scratch);
        });
    }
    if (key == "fault_modes") {
        return axis(spec.fault_modes, [](const std::string &mode) {
            core::StackConfig scratch;
            return apply_fault_mode(mode, &scratch);
        });
    }
    if (key == "power_policies") {
        return axis(spec.power_policies, [](const std::string &policy) {
            core::StackConfig scratch;
            return apply_power_mode(1.0, policy, &scratch);
        });
    }
    if (key == "estimator_modes") {
        return axis(spec.estimator_modes, [](const std::string &mode) {
            core::StackConfig scratch;
            return apply_estimator_mode(mode, 1.0, &scratch);
        });
    }
    if (key == "serve_modes") {
        return axis(spec.serve_modes, [](const std::string &mode) {
            core::StackConfig scratch;
            return apply_serve_mode(mode, 1.0, &scratch);
        });
    }
    if (key == "power_caps")
        return parse_number_list(key, value, 0.0, 1e9, &spec.power_caps);
    if (key == "mispredict_bias") {
        return parse_number_list(key, value, kAboveZero, 100.0,
                                 &spec.mispredict_bias);
    }
    if (key == "bursts")
        return parse_number_list(key, value, 1.0, 100.0, &spec.bursts);
    if (key == "loads") {
        return parse_number_list(key, value, kAboveZero, 100.0,
                                 &spec.loads);
    }
    if (key == "seeds")
        return parse_number_list(key, value, 0, UINT64_MAX, &spec.seeds);
    if (key == "serve_rate_hz") {
        return parse_number(key, value, kAboveZero, 1e6,
                            &spec.base.stack.serve.request_rate_hz);
    }
    if (key == "serve_horizon_s") {
        return parse_number(key, value, kAboveZero, DBL_MAX,
                            &spec.base.stack.serve.horizon_s);
    }
    if (key == "node_mtbf_hours") {
        return parse_number(key, value, 0.0, DBL_MAX,
                            &spec.base.stack.exec.failure.node_mtbf_hours);
    }
    return apply_scenario_key(key, value, &spec.base);
}

} // namespace

StatusOr<SweepSpec>
parse_sweep_spec(const std::string &text, const std::string &spec_dir)
{
    SweepSpec spec;
    // Sweeps never want per-node monitor log lines.
    spec.base.stack.emit_monitor_logs = false;
    if (auto s = for_each_kv_line(text,
                                  [&](const std::string &key,
                                      const std::string &value) {
                                      return apply_sweep_key(key, value,
                                                             spec_dir, spec);
                                  });
        !s.is_ok())
        return s;
    return spec;
}

StatusOr<SweepSpec>
load_sweep_spec(const std::string &path)
{
    auto text = read_text_file(path);
    if (!text.is_ok())
        return text.status();
    const size_t slash = path.rfind('/');
    return parse_sweep_spec(text.value(), slash == std::string::npos
                                              ? ""
                                              : path.substr(0, slash));
}

} // namespace tacc::driver
