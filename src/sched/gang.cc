/**
 * @file
 * Cluster-wide gang time-slicing.
 *
 * Every quantum the scheduler recomputes the set of gangs that should hold
 * the cluster, ordered by least-recently-served. Running gangs that stay in
 * the set keep their placement untouched; the rest are preempted and the
 * newly chosen gangs start. This is the "gang scheduling (time-slicing
 * jobs)" mode the paper lists among Slurm's strategies.
 */
#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "sched/greedy.h"
#include "sched/schedulers.h"
#include "sched/usage.h"

namespace tacc::sched {

ScheduleDecision
GangScheduler::schedule(const SchedulerContext &ctx)
{
    ScheduleDecision out;
    ++round_;

    // Candidates: every non-terminal job; least-recently-served first,
    // then arrival order.
    std::vector<workload::Job *> candidates = detail::pending_by_arrival(ctx);
    std::unordered_map<cluster::JobId, const RunningInfo *> running_of;
    for (const auto &r : ctx.running) {
        running_of.emplace(r.job->id(), &r);
        candidates.push_back(r.job);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](const workload::Job *a, const workload::Job *b) {
                         uint64_t la = 0, lb = 0;
                         if (auto it = last_served_.find(a->id());
                             it != last_served_.end()) {
                             la = it->second;
                         }
                         if (auto it = last_served_.find(b->id());
                             it != last_served_.end()) {
                             lb = it->second;
                         }
                         return la < lb;
                     });

    // Treat every preemptible running gang's GPUs as reclaimable.
    FreeView &view = detail::scratch_view(ctx);
    auto held = detail::held_by_group(ctx);
    std::vector<const RunningInfo *> stoppable;
    for (const auto &r : ctx.running) {
        if (r.job->spec().preemptible) {
            view.give(r.placement);
            held[size_t(r.job->group_id())] -= r.job->running_gpus();
            stoppable.push_back(&r);
        }
    }

    // Fill the cluster in service order.
    std::unordered_set<cluster::JobId> target;
    for (workload::Job *job : candidates) {
        const auto running = running_of.find(job->id());
        const bool is_running = running != running_of.end();
        if (is_running && !job->spec().preemptible) {
            // Pinned: it keeps running regardless.
            target.insert(job->id());
            last_served_[job->id()] = round_;
            continue;
        }
        if (is_running) {
            // Keep the existing placement if the view still has room for
            // it (it does unless an earlier candidate claimed the GPUs).
            const cluster::Placement &placement = running->second->placement;
            if (view.fits(placement)) {
                view.take(placement);
                held[size_t(job->group_id())] += job->running_gpus();
                target.insert(job->id());
                last_served_[job->id()] = round_;
            }
            continue;
        }
        if (detail::try_start(ctx, view, held, job, job->spec().gpus,
                              &out)) {
            target.insert(job->id());
            last_served_[job->id()] = round_;
        }
    }

    // Preempt the stoppable gangs that lost their slot.
    for (const RunningInfo *r : stoppable) {
        if (!target.contains(r->job->id()))
            out.preemptions.push_back(r->job->id());
    }

    // Drop bookkeeping for jobs that no longer exist anywhere.
    std::unordered_set<cluster::JobId> alive;
    for (const workload::Job *job : candidates)
        alive.insert(job->id());
    std::erase_if(last_served_,
                  [&](const auto &kv) { return !alive.contains(kv.first); });
    return out;
}

} // namespace tacc::sched
