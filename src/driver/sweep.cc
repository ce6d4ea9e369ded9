#include "driver/sweep.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "core/config_io.h"
#include "predict/config.h"
#include "sched/placement.h"
#include "sched/schedulers.h"

namespace tacc::driver {

namespace {

Status
bad(const std::string &key, const std::string &value)
{
    return Status::invalid_argument("bad value for " + key + ": " + value);
}

StatusOr<double>
parse_double(const std::string &key, const std::string &value)
{
    try {
        size_t pos = 0;
        const double v = std::stod(value, &pos);
        // NaN would pass every range check (all its comparisons are
        // false), so non-finite values are rejected here.
        if (pos != value.size() || !std::isfinite(v))
            return bad(key, value);
        return v;
    } catch (const std::exception &) {
        return bad(key, value);
    }
}

StatusOr<uint64_t>
parse_u64(const std::string &key, const std::string &value)
{
    try {
        size_t pos = 0;
        const unsigned long long v = std::stoull(value, &pos);
        if (pos != value.size())
            return bad(key, value);
        return uint64_t(v);
    } catch (const std::exception &) {
        return bad(key, value);
    }
}

/** Comma-separated list; empty entries rejected. */
StatusOr<std::vector<std::string>>
parse_list(const std::string &key, const std::string &value)
{
    std::vector<std::string> out;
    for (const auto &part : split(value, ',')) {
        const std::string item{trim(part)};
        if (item.empty())
            return bad(key, value);
        out.push_back(item);
    }
    if (out.empty())
        return bad(key, value);
    return out;
}

/** Compact load rendering: x1, x1.4, x0.75 (no trailing zeros). */
std::string
load_tag(double load)
{
    std::string s = strfmt("%g", load);
    return "x" + s;
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
    if (cap_w <= 0)
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
    if (mode == "off")
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
    if (mode == "limit")
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
    // Estimator points in listed order; every "limit" collapses to the
    // one unsuffixed prediction-off point (and bias only applies when
    // prediction is on), so the pre-prediction grid survives verbatim.
    std::vector<std::pair<std::string, double>> predict_points;
    bool have_limit = false;
    for (const auto &mode : spec.estimator_modes) {
        if (mode == "limit") {
            if (!have_limit) {
                predict_points.emplace_back("", 1.0);
                have_limit = true;
            }
        } else {
            for (double bias : spec.mispredict_bias)
                predict_points.emplace_back(mode, bias);
        }
    }

    // Serve points in listed order; every "off" collapses to the one
    // unsuffixed serving-off point (and bursts only apply when the
    // plane is on), so the pre-serving grid survives verbatim.
    std::vector<std::pair<std::string, double>> serve_points;
    bool have_serve_off = false;
    for (const auto &mode : spec.serve_modes) {
        if (mode == "off") {
            if (!have_serve_off) {
                serve_points.emplace_back("", 1.0);
                have_serve_off = true;
            }
        } else {
            for (double burst : spec.bursts)
                serve_points.emplace_back(mode, burst);
        }
    }

    // Power points in listed order; every cap <= 0 collapses to the one
    // unsuffixed power-off point so the pre-power grid survives verbatim
    // (and the off point cannot collide with itself per policy).
    std::vector<std::pair<double, std::string>> power_points;
    bool have_off = false;
    for (double cap : spec.power_caps) {
        if (cap <= 0) {
            if (!have_off) {
                power_points.emplace_back(0.0, "");
                have_off = true;
            }
        } else {
            for (const auto &policy : spec.power_policies)
                power_points.emplace_back(cap, policy);
        }
    }

    std::vector<SweepScenario> out;
    out.reserve(spec.grid_size());
    // Estimator is the outermost axis, then serve, then power, then
    // fault_modes, so "limit,<modes>", "off,<modes>", "0,<caps>" and
    // "none,<more>" specs keep the plain grid as an unchanged prefix of
    // the expansion.
    for (const auto &[est_mode, est_bias] : predict_points) {
    for (const auto &[serve_mode, burst] : serve_points) {
    for (const auto &[cap_w, policy] : power_points) {
        for (const auto &fault_mode : spec.fault_modes) {
            for (const auto &scheduler : spec.schedulers) {
                for (const auto &placement : spec.placements) {
                    for (const auto &mode : spec.preempt_modes) {
                        for (double load : spec.loads) {
                            for (uint64_t seed : spec.seeds) {
                                SweepScenario sc;
                                sc.config = spec.base;
                                sc.config.stack.scheduler = scheduler;
                                sc.config.stack.placement = placement;
                                // Validated at parse time; an invalid
                                // mode in a hand-built spec surfaces
                                // when the run fails.
                                (void)apply_preempt_mode(
                                    mode, &sc.config.stack);
                                (void)apply_fault_mode(
                                    fault_mode, &sc.config.stack);
                                (void)apply_power_mode(
                                    cap_w, policy, &sc.config.stack);
                                if (!serve_mode.empty()) {
                                    (void)apply_serve_mode(
                                        serve_mode, burst,
                                        &sc.config.stack);
                                }
                                if (!est_mode.empty()) {
                                    (void)apply_estimator_mode(
                                        est_mode, est_bias,
                                        &sc.config.stack);
                                }
                                sc.config.trace.mean_interarrival_s =
                                    spec.base.trace.mean_interarrival_s /
                                    load;
                                sc.config.stack.seed = seed;
                                sc.config.trace.seed = seed;
                                sc.name = scheduler + "/" + placement +
                                          "/" + mode + "/" +
                                          load_tag(load) + "/s" +
                                          std::to_string(seed);
                                if (fault_mode != "none")
                                    sc.name += "+" + fault_mode;
                                if (cap_w > 0) {
                                    sc.name += strfmt("+%gkW-%s",
                                                      cap_w / 1000.0,
                                                      policy.c_str());
                                }
                                if (!serve_mode.empty()) {
                                    sc.name +=
                                        "+serve-" + serve_mode;
                                    if (burst != 1.0) {
                                        sc.name +=
                                            strfmt("-b%g", burst);
                                    }
                                }
                                if (!est_mode.empty()) {
                                    sc.name += "+est-" + est_mode;
                                    if (est_bias != 1.0) {
                                        sc.name +=
                                            strfmt("-x%g", est_bias);
                                    }
                                }
                                out.push_back(std::move(sc));
                            }
                        }
                    }
                }
            }
        }
    }
    }
    }
    return out;
}

StatusOr<SweepSpec>
parse_sweep_spec(const std::string &text, const std::string &spec_dir)
{
    SweepSpec spec;
    // Sweeps never want per-node monitor log lines.
    spec.base.stack.emit_monitor_logs = false;

    for (const auto &raw_line : split(text, '\n')) {
        const std::string line{trim(raw_line)};
        if (line.empty() || line[0] == '#')
            continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            return Status::invalid_argument("malformed line: " + line);
        const std::string key{trim(line.substr(0, colon))};
        const std::string value{trim(line.substr(colon + 1))};

        auto to_pos_int = [&](int &out) -> Status {
            auto v = parse_u64(key, value);
            if (!v.is_ok())
                return v.status();
            if (v.value() == 0 || v.value() > 1'000'000'000)
                return bad(key, value);
            out = int(v.value());
            return Status::ok();
        };
        auto to_frac = [&](double &out) -> Status {
            auto v = parse_double(key, value);
            if (!v.is_ok())
                return v.status();
            if (v.value() < 0.0 || v.value() > 1.0)
                return bad(key, value);
            out = v.value();
            return Status::ok();
        };

        if (key == "preset") {
            // A deployment-dialect file (e.g. a tacc_tune winner)
            // becomes the base stack; keys after this line and the
            // axes still override it.
            std::string path = value;
            if (!spec_dir.empty() && !path.empty() && path[0] != '/')
                path = spec_dir + "/" + path;
            std::ifstream preset(path);
            if (!preset) {
                return Status::not_found("cannot read preset: " + path);
            }
            std::ostringstream preset_text;
            preset_text << preset.rdbuf();
            auto stack = core::parse_stack_config(preset_text.str());
            if (!stack.is_ok()) {
                return Status::invalid_argument(
                    "preset " + path + ": " + stack.status().message());
            }
            spec.base.stack = std::move(stack).value();
            spec.base.stack.emit_monitor_logs = false;
        } else if (key == "schedulers") {
            auto list = parse_list(key, value);
            if (!list.is_ok())
                return list.status();
            for (const auto &name : list.value()) {
                if (!sched::make_scheduler(name, {}))
                    return Status::invalid_argument(
                        "unknown scheduler: " + name);
            }
            spec.schedulers = std::move(list).value();
        } else if (key == "placements") {
            auto list = parse_list(key, value);
            if (!list.is_ok())
                return list.status();
            for (const auto &name : list.value()) {
                if (!sched::make_placement_policy(name))
                    return Status::invalid_argument(
                        "unknown placement: " + name);
            }
            spec.placements = std::move(list).value();
        } else if (key == "preempt_modes") {
            auto list = parse_list(key, value);
            if (!list.is_ok())
                return list.status();
            core::StackConfig scratch;
            for (const auto &mode : list.value()) {
                if (auto s = apply_preempt_mode(mode, &scratch);
                    !s.is_ok())
                    return s;
            }
            spec.preempt_modes = std::move(list).value();
        } else if (key == "fault_modes") {
            auto list = parse_list(key, value);
            if (!list.is_ok())
                return list.status();
            core::StackConfig scratch;
            for (const auto &mode : list.value()) {
                if (auto s = apply_fault_mode(mode, &scratch); !s.is_ok())
                    return s;
            }
            spec.fault_modes = std::move(list).value();
        } else if (key == "power_caps") {
            auto list = parse_list(key, value);
            if (!list.is_ok())
                return list.status();
            spec.power_caps.clear();
            for (const auto &item : list.value()) {
                auto v = parse_double(key, item);
                if (!v.is_ok())
                    return v.status();
                if (v.value() < 0.0 || v.value() > 1e9)
                    return bad(key, item);
                spec.power_caps.push_back(v.value());
            }
        } else if (key == "power_policies") {
            auto list = parse_list(key, value);
            if (!list.is_ok())
                return list.status();
            for (const auto &policy : list.value()) {
                core::StackConfig scratch;
                if (auto s = apply_power_mode(1.0, policy, &scratch);
                    !s.is_ok())
                    return s;
            }
            spec.power_policies = std::move(list).value();
        } else if (key == "estimator_modes") {
            auto list = parse_list(key, value);
            if (!list.is_ok())
                return list.status();
            core::StackConfig scratch;
            for (const auto &mode : list.value()) {
                if (auto s = apply_estimator_mode(mode, 1.0, &scratch);
                    !s.is_ok())
                    return s;
            }
            spec.estimator_modes = std::move(list).value();
        } else if (key == "mispredict_bias") {
            auto list = parse_list(key, value);
            if (!list.is_ok())
                return list.status();
            spec.mispredict_bias.clear();
            for (const auto &item : list.value()) {
                auto v = parse_double(key, item);
                if (!v.is_ok())
                    return v.status();
                if (v.value() <= 0.0 || v.value() > 100.0)
                    return bad(key, item);
                spec.mispredict_bias.push_back(v.value());
            }
        } else if (key == "serve_modes") {
            auto list = parse_list(key, value);
            if (!list.is_ok())
                return list.status();
            core::StackConfig scratch;
            for (const auto &mode : list.value()) {
                if (auto s = apply_serve_mode(mode, 1.0, &scratch);
                    !s.is_ok())
                    return s;
            }
            spec.serve_modes = std::move(list).value();
        } else if (key == "bursts") {
            auto list = parse_list(key, value);
            if (!list.is_ok())
                return list.status();
            spec.bursts.clear();
            for (const auto &item : list.value()) {
                auto v = parse_double(key, item);
                if (!v.is_ok())
                    return v.status();
                if (v.value() < 1.0 || v.value() > 100.0)
                    return bad(key, item);
                spec.bursts.push_back(v.value());
            }
        } else if (key == "serve_rate_hz") {
            auto v = parse_double(key, value);
            if (!v.is_ok())
                return v.status();
            if (v.value() <= 0.0 || v.value() > 1e6)
                return bad(key, value);
            spec.base.stack.serve.request_rate_hz = v.value();
        } else if (key == "serve_horizon_s") {
            auto v = parse_double(key, value);
            if (!v.is_ok())
                return v.status();
            if (v.value() <= 0.0)
                return bad(key, value);
            spec.base.stack.serve.horizon_s = v.value();
        } else if (key == "loads") {
            auto list = parse_list(key, value);
            if (!list.is_ok())
                return list.status();
            spec.loads.clear();
            for (const auto &item : list.value()) {
                auto v = parse_double(key, item);
                if (!v.is_ok())
                    return v.status();
                if (v.value() <= 0.0 || v.value() > 100.0)
                    return bad(key, item);
                spec.loads.push_back(v.value());
            }
        } else if (key == "seeds") {
            auto list = parse_list(key, value);
            if (!list.is_ok())
                return list.status();
            spec.seeds.clear();
            for (const auto &item : list.value()) {
                auto v = parse_u64(key, item);
                if (!v.is_ok())
                    return v.status();
                spec.seeds.push_back(v.value());
            }
        } else if (key == "jobs") {
            if (auto s = to_pos_int(spec.base.trace.num_jobs); !s.is_ok())
                return s;
        } else if (key == "interarrival_s") {
            auto v = parse_double(key, value);
            if (!v.is_ok())
                return v.status();
            if (v.value() <= 0.0)
                return bad(key, value);
            spec.base.trace.mean_interarrival_s = v.value();
        } else if (key == "diurnal") {
            if (value == "true")
                spec.base.trace.diurnal = true;
            else if (value == "false")
                spec.base.trace.diurnal = false;
            else
                return bad(key, value);
        } else if (key == "frac_interactive") {
            if (auto s = to_frac(spec.base.trace.frac_interactive);
                !s.is_ok())
                return s;
        } else if (key == "frac_best_effort") {
            if (auto s = to_frac(spec.base.trace.frac_best_effort);
                !s.is_ok())
                return s;
        } else if (key == "frac_deadline") {
            if (auto s = to_frac(spec.base.trace.frac_deadline);
                !s.is_ok())
                return s;
        } else if (key == "frac_elastic") {
            if (auto s = to_frac(spec.base.trace.frac_elastic); !s.is_ok())
                return s;
        } else if (key == "racks") {
            if (auto s =
                    to_pos_int(spec.base.stack.cluster.topology.racks);
                !s.is_ok())
                return s;
        } else if (key == "nodes_per_rack") {
            if (auto s = to_pos_int(
                    spec.base.stack.cluster.topology.nodes_per_rack);
                !s.is_ok())
                return s;
        } else if (key == "gpus_per_node") {
            if (auto s =
                    to_pos_int(spec.base.stack.cluster.node.gpu_count);
                !s.is_ok())
                return s;
        } else if (key == "oversubscription") {
            auto v = parse_double(key, value);
            if (!v.is_ok())
                return v.status();
            if (v.value() < 1.0)
                return bad(key, value);
            spec.base.stack.cluster.topology.oversubscription = v.value();
        } else if (key == "node_mtbf_hours") {
            auto v = parse_double(key, value);
            if (!v.is_ok())
                return v.status();
            if (v.value() < 0.0)
                return bad(key, value);
            spec.base.stack.exec.failure.node_mtbf_hours = v.value();
        } else if (key == "max_events") {
            auto v = parse_u64(key, value);
            if (!v.is_ok())
                return v.status();
            if (v.value() == 0)
                return bad(key, value);
            spec.base.max_events = v.value();
        } else if (key == "streaming") {
            if (value == "true")
                spec.base.streaming = true;
            else if (value == "false")
                spec.base.streaming = false;
            else
                return bad(key, value);
        } else if (key == "stream_window") {
            auto v = parse_u64(key, value);
            if (!v.is_ok())
                return v.status();
            if (v.value() == 0)
                return bad(key, value);
            spec.base.stream_window = size_t(v.value());
        } else {
            return Status::invalid_argument("unknown key: " + key);
        }
    }
    return spec;
}

StatusOr<SweepSpec>
load_sweep_spec(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::not_found("cannot read sweep spec: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    const size_t slash = path.rfind('/');
    return parse_sweep_spec(text.str(), slash == std::string::npos
                                            ? ""
                                            : path.substr(0, slash));
}

} // namespace tacc::driver
