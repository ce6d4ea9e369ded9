#include "tune/tuner.h"

#include <cfloat>
#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>

#include "common/hash.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/config_io.h"
#include "driver/digest.h"
#include "driver/sweep.h"
#include "sched/placement.h"
#include "sched/schedulers.h"

namespace tacc::tune {

namespace {

/** One key of the tune dialect (no line context; the loop adds it). */
Status
apply_tune_key(const std::string &key, const std::string &value,
               TuneSpec &spec, double &power_cap_w,
               std::string &power_policy)
{
    auto &search = spec.search;
    auto &weights = spec.weights;
    if (key == "optimizer") {
        if (value != "sa" && value != "genetic")
            return Status::invalid_argument("unknown optimizer: " + value +
                                            " (want sa or genetic)");
        spec.optimizer = value;
    } else if (key == "budget") {
        return parse_number(key, value, 1, 100'000, &spec.budget);
    } else if (key == "seed") {
        return parse_number(key, value, 0, UINT64_MAX, &search.seed);
    } else if (key == "params") {
        auto list = parse_list(key, value);
        if (!list.is_ok())
            return list.status();
        auto space = ParamSpace::subset(list.value());
        if (!space.is_ok())
            return space.status();
        spec.space = std::move(space).value();
    } else if (key == "sa_chains") {
        return parse_number(key, value, 1, 64, &search.chains);
    } else if (key == "sa_init_temp") {
        return parse_number(key, value, kAboveZero, DBL_MAX,
                            &search.init_temp);
    } else if (key == "sa_cooling") {
        return parse_number(key, value, kAboveZero, 1.0, &search.cooling);
    } else if (key == "sa_step") {
        return parse_number(key, value, kAboveZero, 1.0, &search.step_frac);
    } else if (key == "ga_population") {
        return parse_number(key, value, 2, 256, &search.population);
    } else if (key == "ga_elites") {
        return parse_number(key, value, 0, 64, &search.elites);
    } else if (key == "ga_tournament") {
        return parse_number(key, value, 1, 1'000'000'000,
                            &search.tournament);
    } else if (key == "ga_mutation") {
        return parse_number(key, value, 0.0, 1.0, &search.mutation);
    } else if (key == "w_mean_jct") {
        return parse_number(key, value, 0.0, DBL_MAX, &weights.w_mean_jct);
    } else if (key == "w_p99_jct") {
        return parse_number(key, value, 0.0, DBL_MAX, &weights.w_p99_jct);
    } else if (key == "w_fairness") {
        return parse_number(key, value, 0.0, DBL_MAX, &weights.w_fairness);
    } else if (key == "w_energy") {
        return parse_number(key, value, 0.0, DBL_MAX, &weights.w_energy);
    } else if (key == "w_slo") {
        return parse_number(key, value, 0.0, DBL_MAX, &weights.w_slo);
    } else if (key == "jct_ref_s") {
        return parse_number(key, value, kAboveZero, DBL_MAX,
                            &weights.jct_ref_s);
    } else if (key == "energy_ref_kwh") {
        return parse_number(key, value, kAboveZero, DBL_MAX,
                            &weights.energy_ref_kwh);
    } else if (key == "mixes") {
        auto list = parse_list(key, value);
        if (!list.is_ok())
            return list.status();
        core::ScenarioConfig scratch;
        for (const auto &mix : list.value()) {
            if (auto s = apply_mix(mix, &scratch); !s.is_ok())
                return s;
        }
        spec.mixes = std::move(list).value();
    } else if (key == "eval_seeds") {
        return parse_number_list(key, value, 0, UINT64_MAX,
                                 &spec.eval_seeds);
    } else if (key == "scheduler") {
        if (!sched::make_scheduler(value, {}))
            return Status::invalid_argument("unknown scheduler: " + value);
        spec.base.stack.scheduler = value;
    } else if (key == "placement") {
        if (!sched::make_placement_policy(value))
            return Status::invalid_argument("unknown placement: " + value);
        spec.base.stack.placement = value;
    } else if (key == "preempt_mode") {
        return driver::apply_preempt_mode(value, &spec.base.stack);
    } else if (key == "fault_mode") {
        return driver::apply_fault_mode(value, &spec.base.stack);
    } else if (key == "power_cap_w") {
        return parse_number(key, value, 0.0, DBL_MAX, &power_cap_w);
    } else if (key == "power_policy") {
        if (value != "admission" && value != "dvfs")
            return Status::invalid_argument("unknown power policy: " +
                                            value);
        power_policy = value;
    } else {
        return driver::apply_scenario_key(key, value, &spec.base);
    }
    return Status::ok();
}

double
elapsed_ms(std::chrono::steady_clock::time_point since)
{
    const auto d = std::chrono::steady_clock::now() - since;
    return std::chrono::duration<double, std::milli>(d).count();
}

std::string
json_values(const ParamSpace &space, const std::vector<double> &values)
{
    std::string out = "{";
    for (size_t i = 0; i < space.size() && i < values.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + space.dims()[i].name + "\": " +
               strfmt("%.9g", values[i]);
    }
    out += "}";
    return out;
}

std::string
json_string_list(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + items[i] + "\"";
    }
    out += "]";
    return out;
}

} // namespace

std::vector<std::string>
mix_names()
{
    return {"mixed",       "train-heavy", "infer-heavy",
            "infer-fault", "fault-heavy", "deadline-heavy"};
}

Status
apply_mix(const std::string &mix, core::ScenarioConfig *config)
{
    workload::TraceConfig &trace = config->trace;
    if (mix == "mixed")
        return Status::ok();
    if (mix == "train-heavy") {
        trace.frac_interactive = 0.08;
        trace.frac_best_effort = 0.10;
        trace.batch_duration_mu = 8.4; // median ~ e^8.4: longer training
        return Status::ok();
    }
    if (mix == "infer-heavy") {
        trace.frac_interactive = 0.55;
        trace.frac_best_effort = 0.05;
        trace.interactive_duration_mu = 5.5;
        trace.mean_interarrival_s /= 1.3;
        return Status::ok();
    }
    if (mix == "infer-fault") {
        trace.frac_interactive = 0.55;
        trace.frac_best_effort = 0.05;
        trace.interactive_duration_mu = 5.5;
        trace.mean_interarrival_s /= 1.3;
        return driver::apply_fault_mode("storm", &config->stack);
    }
    if (mix == "fault-heavy") {
        trace.mean_interarrival_s /= 1.1;
        return driver::apply_fault_mode("storm", &config->stack);
    }
    if (mix == "deadline-heavy") {
        trace.frac_deadline = 0.35;
        trace.frac_interactive = 0.20;
        return Status::ok();
    }
    return Status::invalid_argument("unknown mix: " + mix);
}

StatusOr<TuneSpec>
parse_tune_spec(const std::string &text)
{
    TuneSpec spec;
    spec.base.stack.emit_monitor_logs = false;
    double power_cap_w = 0;
    std::string power_policy = "admission";

    if (auto s = for_each_kv_line(
            text,
            [&](const std::string &key, const std::string &value) {
                return apply_tune_key(key, value, spec, power_cap_w,
                                      power_policy);
            });
        !s.is_ok())
        return s;

    if (auto s = driver::apply_power_mode(power_cap_w, power_policy,
                                          &spec.base.stack);
        !s.is_ok())
        return s;
    if (auto s = validate_weights(spec.weights); !s.is_ok())
        return s;
    // Search-knob validation happens in the factory; run it once here so
    // a bad spec fails at load time, not mid-run.
    OptimizerConfig probe = spec.search;
    probe.start = spec.space.extract(spec.base.stack);
    if (auto opt = make_optimizer(spec.optimizer, spec.space, probe);
        !opt.is_ok())
        return opt.status();
    return spec;
}

StatusOr<TuneSpec>
load_tune_spec(const std::string &path)
{
    auto text = read_text_file(path);
    if (!text.is_ok())
        return text.status();
    return parse_tune_spec(text.value());
}

namespace {

/** A candidate's score against every (mix, seed) eval point. */
struct EvalOutcome {
    double objective = 0;
    uint64_t digest = 0;
    std::vector<double> per_eval;
};

} // namespace

StatusOr<TuneResult>
run_tune(const TuneSpec &spec, int workers)
{
    if (workers <= 0)
        workers = ThreadPool::hardware_threads();
    if (auto s = validate_weights(spec.weights); !s.is_ok())
        return s;

    // The evaluation grid: mixes x seeds, listed order (canonical).
    std::vector<core::ScenarioConfig> evals;
    TuneResult result;
    result.workers = workers;
    for (const auto &mix : spec.mixes) {
        for (uint64_t seed : spec.eval_seeds) {
            core::ScenarioConfig config = spec.base;
            if (auto s = apply_mix(mix, &config); !s.is_ok())
                return s;
            config.trace.seed = seed;
            config.stack.seed = seed;
            evals.push_back(std::move(config));
            result.eval_names.push_back(mix + "/s" +
                                        std::to_string(seed));
        }
    }
    if (evals.empty())
        return Status::invalid_argument("no evaluation points (need >= 1 "
                                        "mix and eval seed)");

    const auto tune_start = std::chrono::steady_clock::now();
    // One pool for the whole search: its workers, and with them their
    // scenario arenas, persist from one batch to the next.
    ThreadPool pool(workers);
    std::map<std::vector<double>, EvalOutcome> cache;

    // Scores a batch of candidates. All simulation fan-out lives here;
    // results land in indexed slots, so outcomes come back in batch
    // order no matter which pool worker finishes first.
    auto evaluate = [&](const std::vector<std::vector<double>> &batch,
                        std::vector<bool> *hit) {
        std::vector<const std::vector<double> *> fresh;
        for (const auto &values : batch) {
            const bool cached = cache.count(values) > 0;
            if (hit)
                hit->push_back(cached);
            if (!cached) {
                // Reserve the cache slot immediately so a duplicate
                // later in the same batch is not simulated twice.
                cache.emplace(values, EvalOutcome{});
                fresh.push_back(&values);
            }
        }
        std::vector<core::ScenarioResult> runs(fresh.size() *
                                               evals.size());
        {
            // One index per (candidate x eval point): results land in
            // indexed slots, so pool scheduling order cannot leak into
            // scores or digests (the determinism contract).
            const size_t per_candidate = evals.size();
            pool.parallel_for(runs.size(), [&](size_t index) {
                // One arena per pool worker (see run_sweep).
                thread_local core::StackArena arena;
                const size_t f = index / per_candidate;
                const size_t e = index % per_candidate;
                core::ScenarioConfig config = evals[e];
                spec.space.apply(*fresh[f], &config.stack);
                runs[index] = core::run_scenario(config, &arena);
            });
        }
        result.scenario_runs += runs.size();
        for (size_t f = 0; f < fresh.size(); ++f) {
            EvalOutcome out;
            Fnv1a fold;
            double sum = 0;
            for (size_t e = 0; e < evals.size(); ++e) {
                const core::ScenarioResult &r =
                    runs[f * evals.size() + e];
                const double obj =
                    scalarize(r.objective_inputs(), spec.weights);
                out.per_eval.push_back(obj);
                sum += obj;
                fold.u64(driver::scenario_digest(r));
            }
            out.objective = sum / double(evals.size());
            out.digest = fold.value();
            cache[*fresh[f]] = std::move(out);
        }
    };

    // Baseline: the spec's own configuration, outside the budget. Also
    // warms the cache, so SA chain 0 / GA individual 0 re-score it for
    // free.
    result.default_values =
        spec.space.clamp(spec.space.extract(spec.base.stack));
    evaluate({result.default_values}, nullptr);
    {
        const EvalOutcome &base = cache.at(result.default_values);
        result.default_objective = base.objective;
        result.default_digest = base.digest;
        result.default_per_eval = base.per_eval;
    }
    result.best_values = result.default_values;
    result.best_objective = result.default_objective;
    result.best_digest = result.default_digest;
    result.best_per_eval = result.default_per_eval;
    result.best_step = -1;

    OptimizerConfig search = spec.search;
    search.start = result.default_values;
    auto opt_or = make_optimizer(spec.optimizer, spec.space, search);
    if (!opt_or.is_ok())
        return opt_or.status();
    std::unique_ptr<Optimizer> opt = std::move(opt_or.value());

    while (int(result.trajectory.size()) < spec.budget) {
        const size_t remaining =
            size_t(spec.budget) - result.trajectory.size();
        const std::vector<Candidate> batch = opt->propose(remaining);
        if (batch.empty())
            break;
        std::vector<std::vector<double>> values;
        values.reserve(batch.size());
        for (const Candidate &cand : batch)
            values.push_back(cand.values);
        std::vector<bool> hits;
        evaluate(values, &hits);

        std::vector<double> objectives;
        objectives.reserve(batch.size());
        for (const auto &v : values)
            objectives.push_back(cache.at(v).objective);
        std::vector<bool> accepted;
        opt->observe(objectives, &accepted);

        for (size_t i = 0; i < batch.size(); ++i) {
            const EvalOutcome &out = cache.at(values[i]);
            TuneStep step;
            step.step = int(result.trajectory.size());
            step.chain = batch[i].chain;
            step.values = values[i];
            step.objective = out.objective;
            step.accepted = i < accepted.size() && accepted[i];
            step.cache_hit = i < hits.size() && hits[i];
            step.digest = out.digest;
            if (out.objective < result.best_objective) {
                step.is_best = true;
                result.best_values = values[i];
                result.best_objective = out.objective;
                result.best_digest = out.digest;
                result.best_per_eval = out.per_eval;
                result.best_step = step.step;
            }
            if (step.cache_hit)
                ++result.cache_hits;
            result.trajectory.push_back(std::move(step));
        }
    }

    result.wall_ms = elapsed_ms(tune_start);
    return result;
}

std::string
trajectory_to_json(const TuneSpec &spec, const TuneResult &result)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"optimizer\": \"" << spec.optimizer << "\",\n";
    out << "  \"budget\": " << spec.budget << ",\n";
    out << "  \"seed\": " << spec.search.seed << ",\n";
    std::vector<std::string> params;
    for (const ParamDim &dim : spec.space.dims())
        params.push_back(dim.name);
    out << "  \"params\": " << json_string_list(params) << ",\n";
    out << "  \"mixes\": " << json_string_list(spec.mixes) << ",\n";
    out << "  \"evals\": " << json_string_list(result.eval_names)
        << ",\n";
    out << "  \"weights\": \"" << weights_to_text(spec.weights)
        << "\",\n";
    out << "  \"scenario_runs\": " << result.scenario_runs << ",\n";
    out << "  \"cache_hits\": " << result.cache_hits << ",\n";
    out << strfmt("  \"default\": {\"objective\": %.6f, \"digest\": "
                  "\"%s\", \"values\": ",
                  result.default_objective,
                  Fnv1a::hex(result.default_digest).c_str())
        << json_values(spec.space, result.default_values) << "},\n";
    out << strfmt("  \"best\": {\"step\": %d, \"objective\": %.6f, "
                  "\"digest\": \"%s\", \"values\": ",
                  result.best_step, result.best_objective,
                  Fnv1a::hex(result.best_digest).c_str())
        << json_values(spec.space, result.best_values) << "},\n";
    out << "  \"trajectory\": [\n";
    for (size_t i = 0; i < result.trajectory.size(); ++i) {
        const TuneStep &step = result.trajectory[i];
        out << strfmt("    {\"step\": %d, \"chain\": %d, \"objective\": "
                      "%.6f, \"accepted\": %s, \"cache_hit\": %s, "
                      "\"is_best\": %s, \"digest\": \"%s\", \"values\": ",
                      step.step, step.chain, step.objective,
                      step.accepted ? "true" : "false",
                      step.cache_hit ? "true" : "false",
                      step.is_best ? "true" : "false",
                      Fnv1a::hex(step.digest).c_str())
            << json_values(spec.space, step.values) << "}"
            << (i + 1 < result.trajectory.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    return out.str();
}

std::string
best_config_text(const TuneSpec &spec, const TuneResult &result)
{
    core::StackConfig best = spec.base.stack;
    spec.space.apply(result.best_values, &best);

    std::string out = "# tacc_tune preset\n";
    out += strfmt("# optimizer: %s  budget: %d  seed: %llu\n",
                  spec.optimizer.c_str(), spec.budget,
                  (unsigned long long)spec.search.seed);
    std::string mixes;
    for (const auto &mix : spec.mixes)
        mixes += (mixes.empty() ? "" : ",") + mix;
    std::string seeds;
    for (uint64_t seed : spec.eval_seeds) {
        if (!seeds.empty())
            seeds += ",";
        seeds += std::to_string(seed);
    }
    out += "# mixes: " + mixes + "  eval_seeds: " + seeds + "\n";
    const double gain =
        result.default_objective > 0
            ? (result.default_objective - result.best_objective) /
                  result.default_objective * 100.0
            : 0.0;
    out += strfmt("# objective: %.6f (default %.6f, -%.2f%%)\n",
                  result.best_objective, result.default_objective, gain);
    out += "# tuned: " + spec.space.describe(result.best_values) + "\n";
    out += core::stack_config_to_text(best);
    return out;
}

} // namespace tacc::tune
