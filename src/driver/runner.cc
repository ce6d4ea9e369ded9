#include "driver/runner.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>

#include "common/hash.h"
#include "common/proc.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "driver/digest.h"

namespace tacc::driver {

namespace {

double
elapsed_ms(std::chrono::steady_clock::time_point since)
{
    const auto d = std::chrono::steady_clock::now() - since;
    return std::chrono::duration<double, std::milli>(d).count();
}

/** Minimal JSON string escaping (names and policy ids are tame, but a
 *  spec-provided group name must never corrupt the summary). */
std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (uint8_t(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

} // namespace

SweepSummary
run_sweep(const SweepSpec &spec, int workers)
{
    const auto scenarios = expand_sweep(spec);
    if (workers <= 0)
        workers = ThreadPool::hardware_threads();

    SweepSummary summary;
    summary.workers = workers;
    summary.runs.resize(scenarios.size());
    const auto sweep_start = std::chrono::steady_clock::now();
    {
        ThreadPool pool(workers);
        // Each run writes only its own indexed slot (and folds its
        // digest right on the worker, overlapping aggregation with
        // simulation), so digests stay byte-identical at any worker
        // count. parallel_for rethrows the first failure (bad config,
        // bad_alloc, ...) on the caller once the other runs finished.
        pool.parallel_for(scenarios.size(), [&](size_t i) {
            // One arena per pool worker: successive scenarios on
            // this thread reuse the previous run's event slab and
            // scheduler scratch instead of re-growing them.
            thread_local core::StackArena arena;
            RunResult &run = summary.runs[i];
            run.scenario = scenarios[i];
            const auto start = std::chrono::steady_clock::now();
            run.result = core::run_scenario(scenarios[i].config, &arena);
            run.wall_ms = elapsed_ms(start);
            run.digest = scenario_digest(run.result);
            if (run.wall_ms > 0) {
                run.jobs_per_s = double(run.result.submitted) /
                                 (run.wall_ms / 1000.0);
            }
        });
    }
    summary.wall_ms = elapsed_ms(sweep_start);
    summary.peak_rss_bytes = peak_rss_bytes();
    return summary;
}

std::string
digests_text(const SweepSummary &summary)
{
    std::vector<std::pair<std::string, uint64_t>> lines;
    lines.reserve(summary.runs.size());
    for (const auto &run : summary.runs)
        lines.emplace_back(run.scenario.name, run.digest);
    std::sort(lines.begin(), lines.end());

    std::string out = "# tacc_sweep digests v1\n";
    for (const auto &[name, digest] : lines)
        out += name + " " + Fnv1a::hex(digest) + "\n";
    return out;
}

std::string
summary_to_json(const SweepSummary &summary)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"workers\": " << summary.workers << ",\n";
    out << strfmt("  \"wall_ms\": %.3f,\n", summary.wall_ms);
    out << "  \"peak_rss_bytes\": " << summary.peak_rss_bytes << ",\n";
    out << "  \"runs\": [\n";
    for (size_t i = 0; i < summary.runs.size(); ++i) {
        const auto &run = summary.runs[i];
        const auto &r = run.result;
        out << "    {\n";
        out << "      \"name\": \"" << json_escape(run.scenario.name)
            << "\",\n";
        out << "      \"digest\": \"" << Fnv1a::hex(run.digest)
            << "\",\n";
        out << strfmt("      \"wall_ms\": %.3f,\n", run.wall_ms);
        out << strfmt("      \"jobs_per_s\": %.1f,\n", run.jobs_per_s);
        out << "      \"streaming\": " << (r.streaming ? "true" : "false")
            << ",\n";
        out << "      \"submitted\": " << r.submitted << ",\n";
        out << "      \"completed\": " << r.completed << ",\n";
        out << "      \"failed\": " << r.failed << ",\n";
        out << "      \"never_finished\": " << r.never_finished << ",\n";
        out << "      \"preemptions\": " << r.preemptions << ",\n";
        // The objective-relevant block comes from the same fold the
        // auto-tuner scalarizes, so the JSON and the tuner can never
        // disagree on what "mean JCT" or "fairness" meant for a run.
        const core::ObjectiveInputs obj = r.objective_inputs();
        out << strfmt("      \"mean_jct_s\": %.6f,\n", obj.mean_jct_s);
        out << strfmt("      \"p99_jct_s\": %.6f,\n", obj.p99_jct_s);
        out << strfmt("      \"mean_wait_s\": %.6f,\n", obj.mean_wait_s);
        out << strfmt("      \"p99_wait_s\": %.6f,\n", obj.p99_wait_s);
        out << strfmt("      \"mean_slowdown\": %.6f,\n",
                      r.mean_slowdown);
        out << strfmt("      \"utilization\": %.6f,\n", obj.utilization);
        out << strfmt("      \"fairness\": %.6f,\n", obj.fairness);
        out << strfmt("      \"slo_miss_rate\": %.6f,\n",
                      obj.slo_miss_rate);
        out << strfmt("      \"peak_draw_w\": %.3f,\n", r.peak_draw_w);
        out << strfmt("      \"energy_kwh\": %.6f,\n", obj.energy_kwh);
        if (r.serve_enabled) {
            const auto &c = r.serve_counters;
            out << "      \"serve_requests\": " << c.requests << ",\n";
            out << "      \"serve_ok\": " << c.ok << ",\n";
            out << "      \"serve_late\": " << c.late << ",\n";
            out << "      \"serve_dropped\": " << c.dropped << ",\n";
            out << "      \"serve_shed\": " << c.shed << ",\n";
            out << "      \"serve_retries\": " << c.retries << ",\n";
            out << "      \"serve_breaker_trips\": " << c.breaker_trips
                << ",\n";
            out << strfmt("      \"serve_slo_attainment\": %.6f,\n",
                          r.serve_slo_attainment);
            out << "      \"serve_slo_unattainable\": "
                << (r.serve_slo_unattainable ? "true" : "false")
                << ",\n";
        }
        out << strfmt("      \"makespan_s\": %.3f\n", r.makespan_s);
        out << (i + 1 < summary.runs.size() ? "    },\n" : "    }\n");
    }
    out << "  ]\n}\n";
    return out.str();
}

GoldenCheck
check_digests(const SweepSummary &summary, const std::string &golden_text)
{
    std::map<std::string, std::string> golden;
    for (const auto &raw_line : split(golden_text, '\n')) {
        const std::string line{trim(raw_line)};
        if (line.empty() || line[0] == '#')
            continue;
        const size_t space = line.rfind(' ');
        if (space == std::string::npos || space + 17 != line.size()) {
            return {false, "malformed golden line: " + line + "\n"};
        }
        golden[line.substr(0, space)] = line.substr(space + 1);
    }

    GoldenCheck check;
    check.ok = true;
    std::map<std::string, uint64_t> actual;
    for (const auto &run : summary.runs)
        actual[run.scenario.name] = run.digest;

    for (const auto &[name, digest] : actual) {
        auto it = golden.find(name);
        if (it == golden.end()) {
            check.ok = false;
            check.report += "missing from goldens: " + name + "\n";
        } else if (it->second != Fnv1a::hex(digest)) {
            check.ok = false;
            check.report += "digest drift: " + name + " golden " +
                            it->second + " != actual " +
                            Fnv1a::hex(digest) + "\n";
        }
    }
    for (const auto &[name, digest] : golden) {
        if (!actual.count(name)) {
            check.ok = false;
            check.report += "golden run not in sweep: " + name + "\n";
        }
    }
    return check;
}

} // namespace tacc::driver
