/**
 * @file
 * Preemptive schedulers: strict QoS tiers and least-attained-service.
 */
#include <algorithm>
#include <unordered_set>

#include "sched/greedy.h"
#include "sched/schedulers.h"
#include "sched/usage.h"

namespace tacc::sched {

namespace {

int
qos_tier(const workload::Job &job)
{
    switch (job.spec().qos) {
      case workload::QosClass::kInteractive: return 2;
      case workload::QosClass::kBatch: return 1;
      case workload::QosClass::kBestEffort: return 0;
    }
    return 0;
}

/**
 * Work destroyed by preempting `r` now: GPUs held times the age of the
 * current segment. (Checkpointing bounds the real loss, but the
 * threshold is a policy ceiling, so the conservative estimate is the
 * right one to gate on.)
 */
double
preemption_loss_gpu_s(const RunningInfo &r, TimePoint now)
{
    const double age_s = (now - r.job->segment_start()).to_seconds();
    return double(r.job->running_gpus()) * (age_s > 0 ? age_s : 0.0);
}

} // namespace

ScheduleDecision
QosPreemptScheduler::schedule(const SchedulerContext &ctx)
{
    ScheduleDecision out;
    FreeView &view = detail::scratch_view(ctx);
    auto held = detail::held_by_group(ctx);
    std::unordered_set<cluster::JobId> already_victim;

    auto order = detail::pending_by_arrival(ctx);
    std::stable_sort(order.begin(), order.end(),
                     [](const workload::Job *a, const workload::Job *b) {
                         return qos_tier(*a) > qos_tier(*b);
                     });

    for (workload::Job *job : order) {
        if (detail::try_start(ctx, view, held, job, job->spec().gpus, &out))
            continue;
        if (!preemption_enabled_)
            continue;
        // Victims: strictly lower tier, preemptible, youngest segment
        // first (least sunk work since the last checkpoint).
        std::vector<const RunningInfo *> candidates;
        for (const auto &r : ctx.running) {
            if (qos_tier(*r.job) < qos_tier(*job) &&
                r.job->spec().preemptible &&
                (cost_threshold_gpu_s_ <= 0 ||
                 preemption_loss_gpu_s(r, ctx.now) <=
                     cost_threshold_gpu_s_)) {
                candidates.push_back(&r);
            }
        }
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const RunningInfo *a, const RunningInfo *b) {
                             if (qos_tier(*a->job) != qos_tier(*b->job))
                                 return qos_tier(*a->job) <
                                        qos_tier(*b->job);
                             return a->job->segment_start() >
                                    b->job->segment_start();
                         });
        detail::try_start_with_preemption(ctx, view, held, job,
                                          candidates, already_victim, &out);
    }
    return out;
}

ScheduleDecision
LasScheduler::schedule(const SchedulerContext &ctx)
{
    ScheduleDecision out;
    FreeView &view = detail::scratch_view(ctx);
    auto held = detail::held_by_group(ctx);
    std::unordered_set<cluster::JobId> already_victim;

    auto queue_of = [&](const workload::Job &job) {
        return job.attained_gpu_seconds(ctx.now) < threshold_ ? 0 : 1;
    };

    auto order = detail::pending_by_arrival(ctx);
    std::stable_sort(order.begin(), order.end(),
                     [&](const workload::Job *a, const workload::Job *b) {
                         if (queue_of(*a) != queue_of(*b))
                             return queue_of(*a) < queue_of(*b);
                         return a->attained_gpu_seconds(ctx.now) <
                                b->attained_gpu_seconds(ctx.now);
                     });

    for (workload::Job *job : order) {
        if (detail::try_start(ctx, view, held, job, job->spec().gpus, &out))
            continue;
        if (queue_of(*job) != 0)
            continue;
        // A short-service job is starved: preempt long-service running
        // jobs, most-attained first (classic LAS).
        std::vector<const RunningInfo *> candidates;
        for (const auto &r : ctx.running) {
            if (queue_of(*r.job) == 1 && r.job->spec().preemptible &&
                (cost_threshold_gpu_s_ <= 0 ||
                 preemption_loss_gpu_s(r, ctx.now) <=
                     cost_threshold_gpu_s_))
                candidates.push_back(&r);
        }
        std::stable_sort(candidates.begin(), candidates.end(),
                         [&](const RunningInfo *a, const RunningInfo *b) {
                             return a->job->attained_gpu_seconds(ctx.now) >
                                    b->job->attained_gpu_seconds(ctx.now);
                         });
        detail::try_start_with_preemption(ctx, view, held, job,
                                          candidates, already_victim, &out);
    }
    return out;
}

} // namespace tacc::sched
