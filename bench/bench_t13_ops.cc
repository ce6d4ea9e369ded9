/**
 * @file
 * T13 — The operations layer on a diurnal week: telemetry, alerts,
 * accounting.
 *
 * Drives the reference campus deployment through an F2-style diurnal
 * backlog with node failures and deadline-carrying jobs, while the
 * stack's serving plane answers a 24-hour diurnal request stream on
 * autoscaled replicas and exports its SLO attainment into the same
 * metric store. The tables are what an operator sees:
 *
 *   1. the hourly utilization / queue-depth timeline,
 *   2. the incident log — queue spikes, failure storms, deadline and
 *      SLO burn all fire during the backlog and resolve as it drains,
 *   3. per-group monthly accounting statements.
 *
 * Self-checking (exit 1 on violation, for the CI bench smoke): at least
 * three distinct alert rules must fire AND resolve, and the accounting
 * ledger must reconcile with the metrics job records to within 0.1%.
 * Under a TACC_BENCH_JOBS cap the workload is too small to trip alert
 * thresholds, so only the reconciliation check is enforced.
 */
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "bench_util.h"
#include "ops/report.h"
#include "workload/trace.h"

using namespace tacc;

int
main()
{
    core::StackConfig stack_config = bench::default_stack();
    // Transient node faults: enough concurrent segments die during the
    // backlog peak to trip the failure-storm burn-rate rule.
    stack_config.exec.failure.node_mtbf_hours = 6.0;

    workload::TraceConfig trace = bench::default_trace(1600, 42);
    const bool full_workload = trace.num_jobs == 1600;
    trace.diurnal = true;
    trace.diurnal_peak_ratio = 4.0;
    trace.mean_interarrival_s *= 4.2; // F2 calibration: busy, not pinned
    trace.frac_deadline = 0.15;

    // Serving: a diurnal day of the stack's own request plane. Its
    // replicas are 1-GPU jobs sharing the cluster with the backlog, and
    // its windowed SLO attainment is an ops series like the others.
    auto &serve = stack_config.serve;
    serve.enabled = true;
    serve.diurnal = true;
    serve.request_rate_hz = 5.0;
    serve.diurnal_peak_ratio = 4.0;
    serve.horizon_s = 86400.0;

    core::TaccStack stack(stack_config);
    ops::OpsCenter *ops = stack.ops();

    stack.submit_trace(workload::TraceGenerator(trace).generate());
    stack.run_to_completion();

    // Cool-down observation: keep the collectors sampling past quiesce so
    // burn-rate windows drain and every firing alert can resolve.
    const TimePoint drained = stack.simulator().now();
    TimePoint now = drained;
    for (int i = 1; i <= 48; ++i) {
        now = drained + Duration::minutes(5 * i);
        ops->append(now);
    }

    std::fputs(ops::render_timeline(ops->store(), TimePoint::origin(),
                                    TimePoint::origin() +
                                        Duration::hours(48),
                                    ops::Resolution::kHour)
                   .c_str(),
               stdout);
    std::fputs(ops::render_incidents(stack.ops()->alerts(), now).c_str(),
               stdout);
    std::fputs(ops::render_accounting(ops->accounting()).c_str(), stdout);

    // --- Self-checks ---------------------------------------------------
    std::set<std::string> fired_and_resolved;
    for (const auto &incident : ops->alerts().incidents()) {
        if (!incident.active())
            fired_and_resolved.insert(incident.rule);
    }

    double record_gpu_hours = 0;
    for (const auto &record : stack.metrics().records())
        record_gpu_hours += record.gpu_seconds / 3600.0;
    const double ledger_gpu_hours = ops->accounting().total_gpu_hours();
    const double rel_err =
        record_gpu_hours > 0
            ? std::fabs(ledger_gpu_hours - record_gpu_hours) /
                  record_gpu_hours
            : 0.0;

    std::printf("\nsamples taken: %llu  series: %zu  "
                "store memory: %zu KiB\n",
                (unsigned long long)ops->samples_taken(),
                ops->store().series_count(),
                ops->store().memory_bytes() / 1024);
    std::printf("alert rules fired and resolved: %zu distinct\n",
                fired_and_resolved.size());
    std::printf("accounting reconciliation: ledger %.2f vs records %.2f "
                "GPU-hours (%.4f%% apart)\n",
                ledger_gpu_hours, record_gpu_hours, rel_err * 100.0);

    bool ok = rel_err < 0.001;
    if (full_workload && fired_and_resolved.size() < 3) {
        std::printf("FAIL: expected >=3 distinct alert rules to fire and "
                    "resolve\n");
        ok = false;
    }
    if (rel_err >= 0.001)
        std::printf("FAIL: accounting does not reconcile with records\n");
    return ok ? 0 : 1;
}
