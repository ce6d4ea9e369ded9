/**
 * @file
 * EASY and conservative backfill.
 *
 * Both variants walk the queue in arrival order against a free-capacity
 * timeline built from the running jobs' projected completions. A job whose
 * earliest feasible window is "now" (and that actually places) starts; a
 * blocked job gets a reservation that debits the timeline — for the head
 * of the queue only (EASY) or for every blocked job (conservative). Later
 * candidates therefore cannot start in a way that would delay a
 * reservation. Past EASY's one reservation a blocked candidate's window
 * is never used, so those candidates only ask whether they fit now.
 */
#include "sched/capacity_profile.h"
#include "sched/greedy.h"
#include "sched/schedulers.h"
#include "sched/usage.h"

namespace tacc::sched {

ScheduleDecision
BackfillScheduler::schedule(const SchedulerContext &ctx)
{
    ScheduleDecision out;
    FreeView &view = detail::scratch_view(ctx);
    auto held = detail::held_by_group(ctx);

    // The system's runtime estimate for running jobs is the actual
    // projected end (Slurm would use the time limit; our monitoring
    // layer knows iteration progress, which is strictly better).
    releases_.clear();
    for (const auto &r : ctx.running)
        releases_.push_back({r.expected_end, r.job->running_gpus()});
    CapacityProfile &profile = profile_;
    profile.reset(ctx.now, view.total_free(), releases_);

    bool reserved_head = false;
    int examined = 0;
    for (workload::Job *job : detail::pending_by_arrival(ctx)) {
        // Bounded scan (Slurm bf_max_job_test): deep queues stop
        // contributing backfill candidates past the configured depth.
        if (depth_ > 0 && ++examined > depth_)
            break;
        const int gpus = job->spec().gpus;
        const Duration bound =
            detail::runtime_bound(ctx, *job, use_estimates_);
        if (!conservative_ && reserved_head) {
            if (profile.fits_now(gpus, bound) &&
                detail::try_start(ctx, view, held, job, gpus, &out)) {
                profile.reserve(ctx.now, bound, gpus);
            }
            continue;
        }
        const TimePoint fit = profile.earliest_fit(gpus, bound);
        if (fit == ctx.now &&
            detail::try_start(ctx, view, held, job, gpus, &out)) {
            profile.reserve(ctx.now, bound, gpus);
            continue;
        }
        // Blocked (by capacity, placement fragmentation, or quota):
        // reserve its window. EASY stops reserving after the head.
        profile.reserve(fit, bound, gpus);
        reserved_head = true;
    }
    return out;
}

} // namespace tacc::sched
