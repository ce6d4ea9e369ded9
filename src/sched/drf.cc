/**
 * @file
 * Dominant Resource Fairness across accounting groups.
 *
 * Resources are GPUs and CPU cores. Each round the group with the lowest
 * dominant share that still has a startable job receives its oldest
 * pending job; shares update and the round repeats until nothing fits.
 */
#include <algorithm>
#include <map>

#include "sched/greedy.h"
#include "sched/schedulers.h"
#include "sched/usage.h"

namespace tacc::sched {

ScheduleDecision
DrfScheduler::schedule(const SchedulerContext &ctx)
{
    ScheduleDecision out;
    FreeView &view = detail::scratch_view(ctx);
    auto held = detail::held_by_group(ctx);

    const double total_gpus = std::max(1, ctx.cluster->total_gpus());
    const double total_cpus =
        std::max(1, ctx.cluster->node_count() *
                        ctx.cluster->config().node.cpu_cores);

    // Per-group usage in both dimensions (from the running set).
    struct GroupUsage {
        double gpus = 0;
        double cpus = 0;
    };
    std::map<std::string, GroupUsage> usage; // ordered: deterministic ties
    for (const auto &r : ctx.running) {
        auto &u = usage[r.job->spec().group];
        u.gpus += r.job->running_gpus();
        u.cpus += double(r.job->running_gpus()) *
                  r.job->spec().cpu_cores_per_gpu;
    }

    // Per-group pending queues in arrival order.
    std::map<std::string, std::vector<workload::Job *>> queues;
    for (workload::Job *job : detail::pending_by_arrival(ctx))
        queues[job->spec().group].push_back(job);

    auto dominant_share = [&](const std::string &group) {
        const auto &u = usage[group];
        return std::max(u.gpus / total_gpus, u.cpus / total_cpus);
    };

    while (true) {
        // Lowest dominant share among groups with pending work.
        std::string best;
        double best_share = 0;
        for (const auto &[group, queue] : queues) {
            if (queue.empty())
                continue;
            const double share = dominant_share(group);
            if (best.empty() || share < best_share) {
                best = group;
                best_share = share;
            }
        }
        if (best.empty())
            break;

        auto &queue = queues[best];
        workload::Job *job = queue.front();
        if (detail::try_start(ctx, view, held, job, job->spec().gpus,
                              &out)) {
            queue.erase(queue.begin());
            auto &u = usage[best];
            u.gpus += job->spec().gpus;
            u.cpus +=
                double(job->spec().gpus) * job->spec().cpu_cores_per_gpu;
        } else {
            // The group's head doesn't fit: the group sits out this cycle
            // (strict DRF progressiveness).
            queue.clear();
        }
    }
    return out;
}

} // namespace tacc::sched
