/**
 * @file
 * Deadline-aware scheduling: earliest-deadline-first, optionally with
 * urgency-driven preemption.
 *
 * The task schema carries a per-job completion deadline (a QoS
 * requirement); EDF orders the queue by absolute deadline (deadline-free
 * jobs sort last, by arrival) and starts greedily. The preemptive
 * variant additionally computes each deadline job's *slack* — time to
 * deadline minus predicted remaining runtime — and, when a job with
 * negative-or-small slack cannot start, preempts running preemptible
 * jobs that either have no deadline or a later one (latest-deadline
 * victims first).
 */
#include <algorithm>
#include <unordered_set>

#include "sched/estimator.h"
#include "sched/greedy.h"
#include "sched/schedulers.h"
#include "sched/usage.h"

namespace tacc::sched {

namespace {

/** Predicted runtime: learned estimate when available, else the limit. */
Duration
predicted_runtime(const SchedulerContext &ctx, const workload::Job &job)
{
    return detail::runtime_bound(ctx, job, true);
}

/** Slack = time-to-deadline - predicted remaining runtime. */
Duration
slack(const SchedulerContext &ctx, const workload::Job &job)
{
    const TimePoint deadline = job.absolute_deadline();
    if (deadline == TimePoint::max())
        return Duration::max();
    return (deadline - ctx.now) - predicted_runtime(ctx, job);
}

} // namespace

ScheduleDecision
EdfScheduler::schedule(const SchedulerContext &ctx)
{
    ScheduleDecision out;
    FreeView &view = detail::scratch_view(ctx);
    auto held = detail::held_by_group(ctx);
    std::unordered_set<cluster::JobId> already_victim;

    auto order = detail::pending_by_arrival(ctx);
    std::stable_sort(order.begin(), order.end(),
                     [](const workload::Job *a, const workload::Job *b) {
                         return a->absolute_deadline() <
                                b->absolute_deadline();
                     });

    for (workload::Job *job : order) {
        if (detail::try_start(ctx, view, held, job, job->spec().gpus,
                              &out)) {
            continue;
        }
        if (!preemption_enabled_ || !job->spec().has_deadline())
            continue;
        // Only urgent jobs may preempt: slack below the urgency window.
        if (slack(ctx, *job) > urgency_window_)
            continue;
        // Victims: preemptible running jobs with no deadline or a later
        // one; latest deadline (least urgent) first.
        std::vector<const RunningInfo *> candidates;
        for (const auto &r : ctx.running) {
            if (!r.job->spec().preemptible)
                continue;
            if (r.job->absolute_deadline() > job->absolute_deadline())
                candidates.push_back(&r);
        }
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const RunningInfo *a, const RunningInfo *b) {
                             return a->job->absolute_deadline() >
                                    b->job->absolute_deadline();
                         });
        detail::try_start_with_preemption(ctx, view, held, job,
                                          candidates, already_victim, &out);
    }
    return out;
}

} // namespace tacc::sched
