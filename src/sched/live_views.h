/**
 * @file
 * The scheduler-facing views of a live deployment, kept current by deltas.
 *
 * The core queues, starts and stops jobs one at a time; LiveViews applies
 * each change to the views a SchedulerContext hands a policy, so a pass
 * reads them instead of rebuilding them:
 *  - pending: Job* in (submit time, id) order, binary-searched;
 *  - running: RunningInfo in ascending id order (the order policies
 *    iterate, so it feeds every decision);
 *  - held: GPUs the running set holds per Job::group_id();
 *  - free: a FreeView debited by starts and credited by stops, its health
 *    mask synced when the cluster's health tracker moves.
 * check() rebuilds every view from scratch and compares.
 */
#pragma once

#include <span>
#include <vector>

#include "common/status.h"
#include "sched/free_view.h"
#include "sched/types.h"

namespace tacc::sched {

/** True when `a` precedes `b` in arrival order: (submit time, id). */
bool arrives_before(const workload::Job *a, const workload::Job *b);

/** Incrementally maintained pending/running/held/free views. */
class LiveViews
{
  public:
    /** Views of an idle cluster, which must outlive them. */
    explicit LiveViews(const cluster::Cluster &cluster);

    void add_pending(workload::Job *job);
    void remove_pending(const workload::Job *job);
    /** A segment started on `placement`, as granted by the cluster. */
    void add_running(workload::Job *job, cluster::Placement placement,
                     TimePoint expected_end);
    void remove_running(cluster::JobId id);

    /** Syncs the health mask if the tracker moved, then points the
     *  context's pending, running, free and held fields at the views. */
    void attach(SchedulerContext &ctx);

    std::span<workload::Job *const> pending() const { return pending_; }
    std::span<const RunningInfo> running() const { return running_; }
    /** Bumped by every add and remove: at an equal version the pending
     *  and running views hold the same jobs, placements and ends. */
    uint64_t version() const { return version_; }

    /**
     * Compares every view with its rebuild: pending order and states;
     * running order, states and placements against the cluster's
     * holdings; held GPUs against held_by_group() of an ad-hoc context;
     * the free view (mask synced) against a fresh FreeView(cluster).
     */
    Status check() const;

    /** Storage recycling between runs (see core::StackArena). */
    void adopt(std::vector<workload::Job *> pending,
               std::vector<RunningInfo> running);
    void donate(std::vector<workload::Job *> &pending,
                std::vector<RunningInfo> &running);

  private:
    const cluster::Cluster *cluster_;
    std::vector<workload::Job *> pending_;
    std::vector<RunningInfo> running_;
    std::vector<int> held_;
    FreeView free_;
    uint64_t health_version_;
    uint64_t version_ = 0;
};

} // namespace tacc::sched
