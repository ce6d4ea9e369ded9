/**
 * @file
 * Goodput-driven elastic scheduling (Pollux-like).
 *
 * Elastic jobs declare [min_gpus, max_gpus]; every period the scheduler
 * redistributes the GPUs left over after fixed-size jobs, assigning one
 * GPU at a time to the elastic job with the best marginal goodput gain.
 * Goodput = raw throughput x statistical efficiency, where efficiency
 * decays beyond the user's requested batch scale — so the allocation
 * saturates instead of hoarding.
 *
 * Resizing a running job is a preempt + start with the new size; the
 * execution layer charges the usual restart overhead, which is exactly the
 * cost Pollux's re-allocation pays for checkpoint-restore.
 */
#include <algorithm>
#include <cmath>
#include <numeric>

#include "sched/estimator.h"
#include "sched/greedy.h"
#include "sched/placement.h"
#include "sched/schedulers.h"
#include "sched/usage.h"

namespace tacc::sched {

namespace {

/**
 * Synthetic placement of g GPUs used only to price communication during
 * the allocation search: consecutive nodes starting at node 0, filled to
 * node capacity. The real placement is planned once sizes are final.
 */
cluster::Placement
synthetic_placement(const cluster::Cluster &cluster, int gpus)
{
    cluster::Placement p;
    const int per_node = cluster.max_gpus_per_node();
    cluster::NodeId node = 0;
    int remaining = gpus;
    while (remaining > 0 && int(node) < cluster.node_count()) {
        const int take = std::min(per_node, remaining);
        cluster::PlacementSlice slice;
        slice.node = node;
        slice.gpu_indices.resize(size_t(take));
        std::iota(slice.gpu_indices.begin(), slice.gpu_indices.end(), 0);
        p.slices.push_back(std::move(slice));
        remaining -= take;
        ++node;
    }
    return p;
}

/** Goodput (useful samples/sec) of a job at g GPUs. */
double
goodput(const SchedulerContext &ctx, const workload::Job &job, int gpus)
{
    if (gpus <= 0)
        return 0.0;
    const auto placement = synthetic_placement(*ctx.cluster, gpus);
    const double iter_s = ctx.iter_time(job, placement);
    if (iter_s <= 0)
        return 0.0;
    const double throughput = double(gpus) / iter_s;
    // Statistical efficiency: 1 up to the requested scale, then decays
    // with the square root of the over-scaling factor.
    const double requested = std::max(1, job.spec().gpus);
    const double eff =
        gpus <= job.spec().gpus
            ? 1.0
            : std::sqrt(requested / double(gpus));
    return throughput * eff;
}

} // namespace

ScheduleDecision
ElasticScheduler::schedule(const SchedulerContext &ctx)
{
    ScheduleDecision out;
    FreeView &view = detail::scratch_view(ctx);
    auto held = detail::held_by_group(ctx);

    // Fixed-size pending jobs first, arrival order, skipping blockers.
    // Demand we cannot admit now is remembered: elastic jobs yield that
    // much of the pool (shrink), so the fixed jobs start next cycle.
    std::vector<workload::Job *> elastic_pending;
    int unmet_fixed = 0;
    for (workload::Job *job : detail::pending_by_arrival(ctx)) {
        if (job->spec().is_elastic()) {
            elastic_pending.push_back(job);
        } else if (!detail::try_start(ctx, view, held, job,
                                      job->spec().gpus, &out)) {
            unmet_fixed += job->spec().gpus;
        }
    }

    // Candidates for re-allocation: elastic pending + elastic preemptible
    // running jobs. Reclaim the latter's GPUs into the trial pool.
    struct Candidate {
        workload::Job *job;
        const RunningInfo *running; ///< null if pending
        int alloc = 0;
    };
    std::vector<Candidate> candidates;
    for (workload::Job *job : elastic_pending)
        candidates.push_back(Candidate{job, nullptr, 0});
    for (const auto &r : ctx.running) {
        if (r.job->spec().is_elastic() && r.job->spec().preemptible) {
            view.give(r.placement);
            held[size_t(r.job->group_id())] -= r.job->running_gpus();
            candidates.push_back(Candidate{r.job, &r, 0});
        }
    }
    if (candidates.empty())
        return out;

    // With an authoritative prediction model, rank candidates by
    // predicted remaining work (SRPT-style): when the pool cannot cover
    // every minimum, the jobs with the *most* predicted work left are
    // the ones denied — i.e. the shrink victims — which minimizes the
    // service lost to checkpoint-restore churn. Without predictions the
    // arrival order stands (pre-prediction decisions byte-identical).
    if (ctx.predictions_authoritative && ctx.estimator) {
        struct Ranked {
            Candidate c;
            Duration remaining;
        };
        std::vector<Ranked> ranked;
        ranked.reserve(candidates.size());
        for (auto &c : candidates)
            ranked.push_back(
                Ranked{c, ctx.estimator->predict_remaining(*c.job)});
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const Ranked &a, const Ranked &b) {
                             if (a.remaining != b.remaining)
                                 return a.remaining < b.remaining;
                             if (a.c.job->submit_time() !=
                                 b.c.job->submit_time())
                                 return a.c.job->submit_time() <
                                        b.c.job->submit_time();
                             return a.c.job->id() < b.c.job->id();
                         });
        for (size_t i = 0; i < candidates.size(); ++i)
            candidates[i] = ranked[i].c;
    }

    // Phase 1: everyone gets min_gpus if the pool allows (arrival order,
    // or predicted-remaining order when predictions are authoritative).
    int pool = view.total_free();
    for (auto &c : candidates) {
        const int want = c.job->spec().min_gpus;
        if (pool >= want) {
            c.alloc = want;
            pool -= want;
        }
    }

    // Yield room for fixed jobs we could not admit: the elastic fleet
    // squeezes toward its minima and the freed GPUs serve the fixed
    // queue at the next scheduling event.
    pool = std::max(0, pool - unmet_fixed);

    // Forecast headroom: when the load forecaster projects more pending
    // GPU demand than is queued now, hold that margin back from the
    // expansion phase — growing the fleet right before an arrival wave
    // just buys a resize (checkpoint-restore) when the wave lands.
    if (ctx.forecast_backlog_gpus >= 0) {
        double queued = 0;
        for (const workload::Job *job : ctx.pending)
            queued += double(job->spec().gpus);
        const int margin =
            int(std::max(0.0, ctx.forecast_backlog_gpus - queued));
        pool = std::max(0, pool - margin);
    }

    // Phase 2: marginal-goodput hill climbing. Besides +1 steps, each
    // candidate may jump to the next node-multiple: +1 across a node
    // boundary is always bad (NVLink -> network), but filling the next
    // node whole can pay off, and a pure +1 walk would never see that.
    const int per_node = ctx.cluster->max_gpus_per_node();
    while (pool > 0) {
        Candidate *best = nullptr;
        int best_target = 0;
        double best_rate = 0;
        for (auto &c : candidates) {
            if (c.alloc == 0 || c.alloc >= c.job->spec().max_gpus)
                continue;
            const double base = goodput(ctx, *c.job, c.alloc);
            const int cap = std::min(c.job->spec().max_gpus,
                                     c.alloc + pool);
            const int next_node = (c.alloc / per_node + 1) * per_node;
            for (int target : {c.alloc + 1, next_node, cap}) {
                if (target <= c.alloc || target > cap)
                    continue;
                const double rate =
                    (goodput(ctx, *c.job, target) - base) /
                    double(target - c.alloc);
                if (rate > best_rate) {
                    best_rate = rate;
                    best = &c;
                    best_target = target;
                }
            }
        }
        if (!best)
            break;
        pool -= best_target - best->alloc;
        best->alloc = best_target;
    }

    // Phase 3a: candidates keeping their current size re-claim their
    // existing placement first, so resizing candidates cannot plan onto
    // their GPUs.
    std::vector<bool> settled(candidates.size(), false);
    for (size_t i = 0; i < candidates.size(); ++i) {
        auto &c = candidates[i];
        const int current =
            c.running ? c.running->job->running_gpus() : 0;
        // Hysteresis: a resize within +-25% of the current allocation is
        // not worth the checkpoint-restore churn (Pollux applies the same
        // re-allocation penalty); treat it as "keep".
        const bool keep =
            c.running &&
            (c.alloc == current ||
             (current >= c.job->spec().min_gpus &&
              c.alloc * 4 >= current * 3 && c.alloc * 4 <= current * 5));
        if (keep) {
            view.take(c.running->placement);
            held[size_t(c.job->group_id())] += current;
            settled[i] = true;
        }
    }

    // Phase 3b: resizes (preempt + start with the new size) and fresh
    // starts. If the new size cannot be placed (fragmentation), fall back
    // to the old placement when it still fits; otherwise the job stays
    // preempted and a later cycle restarts it.
    for (size_t i = 0; i < candidates.size(); ++i) {
        if (settled[i])
            continue;
        auto &c = candidates[i];
        const int current =
            c.running ? c.running->job->running_gpus() : 0;
        if (c.running)
            out.preemptions.push_back(c.job->id());
        if (c.alloc > 0 &&
            detail::try_start(ctx, view, held, c.job, c.alloc, &out)) {
            continue;
        }
        if (c.running && view.fits(c.running->placement)) {
            out.preemptions.pop_back();
            view.take(c.running->placement);
            held[size_t(c.job->group_id())] += current;
        }
    }
    return out;
}

} // namespace tacc::sched
