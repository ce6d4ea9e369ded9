/**
 * @file
 * Shared building blocks for scheduler implementations (internal).
 */
#pragma once

#include <unordered_set>
#include <vector>

#include "sched/free_view.h"
#include "sched/types.h"

namespace tacc::sched::detail {

/**
 * GPUs currently held per accounting group, indexed by
 * workload::Job::group_id(): a copy of the context's held_gpus, or their
 * sum over the running set in an ad-hoc context. Sized for every group
 * interned so far, so any job visible to the scheduler indexes in range.
 */
std::vector<int> held_by_group(const SchedulerContext &ctx);

/**
 * Attempts to start one job with `gpus` devices: checks the group quota,
 * plans a placement against the trial view, and on success records the
 * start in `out` and debits `view` and `held`.
 * @return true if the start was planned.
 */
bool try_start(const SchedulerContext &ctx, FreeView &view,
               std::vector<int> &held, workload::Job *job, int gpus,
               ScheduleDecision *out);

/**
 * Tries to start `job` by preempting candidates (in the given order) until
 * a placement plan succeeds. On success the chosen victims and the start
 * are appended to `out` and the view/held bookkeeping reflects them; on
 * failure all trial state is rolled back.
 */
bool try_start_with_preemption(
    const SchedulerContext &ctx, FreeView &view, std::vector<int> &held,
    workload::Job *job, const std::vector<const RunningInfo *> &candidates,
    std::unordered_set<cluster::JobId> &already_victim,
    ScheduleDecision *out);

/**
 * Plans starts for jobs in the given order.
 * @param stop_on_block true = stop at the first job that cannot start
 *        (head-of-line semantics); false = skip it and keep trying.
 */
ScheduleDecision greedy(const SchedulerContext &ctx,
                        const std::vector<workload::Job *> &order,
                        bool stop_on_block);

/**
 * Pending jobs sorted by (submit time, id). When the context's pending
 * view is flagged pre-sorted, this is a plain copy.
 */
std::vector<workload::Job *> pending_by_arrival(const SchedulerContext &ctx);

/**
 * Thread-local trial view: a copy of the context's live free view, or a
 * fresh snapshot of the cluster in an ad-hoc context. Schedulers run on
 * every queue event; reusing one view's storage avoids re-allocating the
 * per-node arrays and the bucket index each decision. At most one
 * scratch view may be in use at a time (every policy builds exactly one
 * view per decision, so this holds today).
 */
FreeView &scratch_view(const SchedulerContext &ctx);

/** Effective per-node GPU cap for a job in this cluster. */
int per_node_limit(const SchedulerContext &ctx, const workload::Job &job);

/**
 * Runtime bound for reservations/ordering: the learned prediction when
 * requested (by the policy's use_estimates knob or the stack's
 * predictions_authoritative flag) and available, otherwise the user's
 * time limit.
 */
Duration runtime_bound(const SchedulerContext &ctx,
                       const workload::Job &job, bool use_estimates);

} // namespace tacc::sched::detail
