/**
 * @file
 * FIFO, SJF and fair-share multifactor schedulers.
 */
#include <algorithm>

#include "sched/greedy.h"
#include "sched/schedulers.h"
#include "sched/usage.h"

namespace tacc::sched {

ScheduleDecision
FifoScheduler::schedule(const SchedulerContext &ctx)
{
    return detail::greedy(ctx, detail::pending_by_arrival(ctx), strict_);
}

ScheduleDecision
SjfScheduler::schedule(const SchedulerContext &ctx)
{
    auto order = detail::pending_by_arrival(ctx);
    // Shortest estimated runtime first; arrival breaks ties via the
    // stable sort over the arrival-ordered input. One bound per job,
    // not two per comparison.
    std::vector<std::pair<Duration, workload::Job *>> ranked;
    ranked.reserve(order.size());
    for (workload::Job *job : order)
        ranked.emplace_back(detail::runtime_bound(ctx, *job, use_estimates_),
                            job);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (size_t i = 0; i < ranked.size(); ++i)
        order[i] = ranked[i].second;
    return detail::greedy(ctx, order, false);
}

double
FairShareScheduler::priority(const SchedulerContext &ctx,
                             const workload::Job &job) const
{
    // Age factor: saturating linear ramp.
    const double age_s = (ctx.now - job.submit_time()).to_seconds();
    const double age = std::min(1.0, age_s / opts_.age_saturation.to_seconds());

    // Fair-share factor: groups consuming less than their (equal) share
    // rank higher. usage_share is in [0, 1].
    double fairshare = 1.0;
    if (ctx.usage)
        fairshare = 1.0 - ctx.usage->usage_share(job.spec().group, ctx.now);

    // QoS factor.
    double qos = 0.5;
    switch (job.spec().qos) {
      case workload::QosClass::kInteractive: qos = 1.0; break;
      case workload::QosClass::kBatch: qos = 0.5; break;
      case workload::QosClass::kBestEffort: qos = 0.0; break;
    }

    // Size factor: mild preference for small jobs (they drain fast and
    // fill fragmentation holes).
    const int cluster_gpus = ctx.cluster->total_gpus();
    const double size =
        1.0 - std::min(1.0, double(job.spec().gpus) /
                                std::max(1, cluster_gpus));

    return opts_.w_age * age + opts_.w_fairshare * fairshare +
           opts_.w_qos * qos + opts_.w_size * size;
}

ScheduleDecision
FairShareScheduler::schedule(const SchedulerContext &ctx)
{
    auto order = detail::pending_by_arrival(ctx);
    // priority() is a pure per-job value; evaluate it once per job rather
    // than once per comparison (the fair-share factor walks every group's
    // decayed usage).
    std::vector<std::pair<double, workload::Job *>> ranked;
    ranked.reserve(order.size());
    for (workload::Job *job : order)
        ranked.emplace_back(priority(ctx, *job), job);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    for (size_t i = 0; i < ranked.size(); ++i)
        order[i] = ranked[i].second;
    return detail::greedy(ctx, order, false);
}

} // namespace tacc::sched
