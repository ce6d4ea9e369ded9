#include "sched/greedy.h"

#include <algorithm>

#include "common/interner.h"
#include "sched/estimator.h"
#include "sched/live_views.h"
#include "sched/placement.h"
#include "sched/usage.h"

namespace tacc::sched::detail {

std::vector<int>
held_by_group(const SchedulerContext &ctx)
{
    std::vector<int> held(size_t(StringInterner::groups().size()), 0);
    if (!ctx.held_gpus.empty()) {
        std::copy_n(ctx.held_gpus.begin(),
                    std::min(ctx.held_gpus.size(), held.size()),
                    held.begin());
        return held;
    }
    for (const auto &r : ctx.running)
        held[size_t(r.job->group_id())] += r.job->running_gpus();
    return held;
}

int
per_node_limit(const SchedulerContext &ctx, const workload::Job &job)
{
    return std::min(job.spec().gpus_per_node_limit,
                    ctx.cluster->max_gpus_per_node());
}

bool
try_start(const SchedulerContext &ctx, FreeView &view,
          std::vector<int> &held, workload::Job *job, int gpus,
          ScheduleDecision *out)
{
    const size_t gid = size_t(job->group_id());
    if (ctx.quota &&
        ctx.quota->would_exceed(job->spec().group, held[gid], gpus)) {
        return false;
    }
    if (ctx.power && !ctx.power->admits(gpus)) {
        ++ctx.power->rejections;
        return false;
    }
    const int limit = per_node_limit(ctx, *job);
    const auto apply_filter = [&ctx](std::vector<uint8_t> &mask) {
        for (size_t i = 0; i < mask.size(); ++i)
            mask[i] &= (*ctx.node_filter)[i];
    };

    StatusOr<cluster::Placement> plan =
        Status::resource_exhausted("unplanned");
    if (!job->spec().gpu_model.empty()) {
        // Hard requirement: only nodes with the requested GPU model.
        auto mask = ctx.cluster->eligible_mask(job->spec().gpu_model);
        if (ctx.node_filter)
            apply_filter(mask);
        plan = ctx.placement->plan(view, ctx.cluster->topology(), gpus,
                                   limit, &mask);
    } else if (ctx.avoid_gpu_mixing) {
        // Soft policy: try one hardware generation at a time so a gang
        // never mixes GPU speeds (it would run at the slowest worker).
        for (const auto &model : ctx.cluster->gpu_models()) {
            auto mask = ctx.cluster->eligible_mask(model);
            if (ctx.node_filter)
                apply_filter(mask);
            plan = ctx.placement->plan(view, ctx.cluster->topology(),
                                       gpus, limit, &mask);
            if (plan.is_ok())
                break;
        }
    } else if (ctx.node_filter) {
        plan = ctx.placement->plan(view, ctx.cluster->topology(), gpus,
                                   limit, ctx.node_filter);
    } else {
        plan = ctx.placement->plan(view, ctx.cluster->topology(), gpus,
                                   limit);
    }
    if (!plan.is_ok())
        return false;
    if (ctx.power && !ctx.power->try_commit(plan.value())) {
        ++ctx.power->rejections;
        return false;
    }
    view.take(plan.value());
    held[gid] += gpus;
    out->starts.push_back(StartAction{job->id(), std::move(plan.value())});
    return true;
}

bool
try_start_with_preemption(const SchedulerContext &ctx, FreeView &view,
                          std::vector<int> &held, workload::Job *job,
                          const std::vector<const RunningInfo *> &candidates,
                          std::unordered_set<cluster::JobId> &already_victim,
                          ScheduleDecision *out)
{
    std::vector<const RunningInfo *> chosen;
    for (const RunningInfo *victim : candidates) {
        if (already_victim.contains(victim->job->id()))
            continue;
        view.give(victim->placement);
        held[size_t(victim->job->group_id())] -= victim->job->running_gpus();
        chosen.push_back(victim);
        if (view.total_free() < job->spec().gpus)
            continue; // cheap lower bound before planning
        if (try_start(ctx, view, held, job, job->spec().gpus, out)) {
            for (const RunningInfo *v : chosen) {
                out->preemptions.push_back(v->job->id());
                already_victim.insert(v->job->id());
            }
            return true;
        }
    }
    // Roll back.
    for (const RunningInfo *v : chosen) {
        view.take(v->placement);
        held[size_t(v->job->group_id())] += v->job->running_gpus();
    }
    return false;
}

ScheduleDecision
greedy(const SchedulerContext &ctx, const std::vector<workload::Job *> &order,
       bool stop_on_block)
{
    ScheduleDecision out;
    if (order.empty())
        return out;
    FreeView &view = scratch_view(ctx);
    auto held = held_by_group(ctx);
    for (workload::Job *job : order) {
        if (!try_start(ctx, view, held, job, job->spec().gpus, &out) &&
            stop_on_block) {
            break;
        }
    }
    return out;
}

Duration
runtime_bound(const SchedulerContext &ctx, const workload::Job &job,
              bool use_estimates)
{
    // A policy asks for estimates itself (use_estimates), or the stack
    // declares its prediction authority binding for everyone
    // (predictions_authoritative): either way the estimator answers.
    if ((use_estimates || ctx.predictions_authoritative) && ctx.estimator)
        return ctx.estimator->predict(job);
    return job.spec().time_limit;
}

std::vector<workload::Job *>
pending_by_arrival(const SchedulerContext &ctx)
{
    std::vector<workload::Job *> order(ctx.pending.begin(),
                                       ctx.pending.end());
    if (!ctx.pending_sorted)
        std::stable_sort(order.begin(), order.end(), arrives_before);
    return order;
}

FreeView &
scratch_view(const SchedulerContext &ctx)
{
    static thread_local FreeView view;
    if (ctx.free)
        view = *ctx.free;
    else
        view.reset(*ctx.cluster);
    return view;
}

} // namespace tacc::sched::detail
