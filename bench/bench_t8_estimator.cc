/**
 * @file
 * T8 — Learned runtime estimates vs user time limits.
 *
 * Users overestimate runtimes by 1.5-4x (the trace generator models
 * exactly that), which makes backfill reservations loose. The estimator
 * learns per-(user, model) service rates online from completions.
 * Expected shape: the -pred variants cut mean wait versus their
 * limit-based counterparts once enough history accumulates, and SJF's
 * ordering mistakes (long jobs with optimistic limits) shrink. Also
 * reports the estimator's learning curve (prediction error by decile).
 */
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/stack.h"
#include "sched/estimator.h"

using namespace tacc;

int
main()
{
    TextTable a("T8a: limit-based vs prediction-based policies");
    a.set_header({"policy", "meanWait(m)", "p99Wait(m)", "meanJCT(h)",
                  "slowdown", "util"});
    for (const char *policy :
         {"backfill-easy", "backfill-pred", "backfill-cons",
          "backfill-cons-pred", "sjf", "sjf-pred"}) {
        core::ScenarioConfig config;
        config.stack = bench::default_stack();
        config.stack.scheduler = policy;
        config.trace = bench::default_trace(800, 61);
        const auto r = core::run_scenario(config);
        a.add_row({policy, TextTable::fixed(r.mean_wait_s / 60.0, 1),
                   TextTable::fixed(r.p99_wait_s / 60.0, 1),
                   TextTable::fixed(r.mean_jct_s / 3600.0, 2),
                   TextTable::fixed(r.mean_slowdown, 2),
                   TextTable::pct(r.arrival_window_utilization)});
    }
    std::fputs(a.str().c_str(), stdout);

    // Learning curve: replay a trace, measuring |predicted - actual| /
    // actual for each completion, bucketed by completion order.
    core::StackConfig stack_config = bench::default_stack();
    core::TaccStack stack(stack_config);
    auto trace =
        workload::TraceGenerator(bench::default_trace(800, 61)).generate();
    stack.submit_trace(trace);

    // Take prediction snapshots by draining in deciles.
    struct ErrorBucket {
        RunningStats ape; ///< absolute percentage error
    };
    std::vector<ErrorBucket> buckets(4);
    size_t recorded = 0;
    const size_t per_bucket = trace.size() / buckets.size();

    // Drive the run manually so we can compare prediction vs outcome at
    // each completion.
    std::map<cluster::JobId, double> predicted;
    while (!stack.quiescent() && stack.simulator().step()) {
        for (const auto *job : stack.jobs()) {
            if (job->state() == workload::JobState::kRunning &&
                !predicted.contains(job->id())) {
                predicted[job->id()] =
                    stack.active_estimator().predict(*job).to_seconds();
            }
            if (job->terminal() && predicted.contains(job->id()) &&
                predicted[job->id()] > 0) {
                const double actual =
                    job->gpu_seconds() / std::max(1, job->spec().gpus);
                if (actual > 0) {
                    const size_t bucket = std::min(
                        buckets.size() - 1, recorded / per_bucket);
                    buckets[bucket].ape.add(
                        std::fabs(predicted[job->id()] - actual) / actual);
                    ++recorded;
                }
                predicted.erase(job->id());
            }
        }
    }

    TextTable b("T8b: estimator learning curve (MAPE by completion "
                "quartile; user limits are 1.5-4x off)");
    b.set_header({"quartile", "jobs", "MAPE"});
    for (size_t i = 0; i < buckets.size(); ++i) {
        b.add_row({TextTable::num(double(i + 1), 2),
                   TextTable::num(double(buckets[i].ape.count()), 5),
                   TextTable::pct(buckets[i].ape.mean())});
    }
    std::fputs(b.str().c_str(), stdout);
    return 0;
}
