#include "sched/live_views.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"
#include "sched/greedy.h"

namespace tacc::sched {

bool
arrives_before(const workload::Job *a, const workload::Job *b)
{
    if (a->submit_time() != b->submit_time())
        return a->submit_time() < b->submit_time();
    return a->id() < b->id();
}

namespace {

bool
id_below(const RunningInfo &r, cluster::JobId id)
{
    return r.job->id() < id;
}

bool
same_placement(const cluster::Placement &a, const cluster::Placement &b)
{
    return std::equal(a.slices.begin(), a.slices.end(), b.slices.begin(),
                      b.slices.end(), [](const auto &x, const auto &y) {
                          return x.node == y.node &&
                                 x.gpu_indices == y.gpu_indices;
                      });
}

} // namespace

LiveViews::LiveViews(const cluster::Cluster &cluster)
    : cluster_(&cluster), free_(cluster),
      health_version_(cluster.health().version())
{
}

void
LiveViews::add_pending(workload::Job *job)
{
    ++version_;
    pending_.insert(std::upper_bound(pending_.begin(), pending_.end(), job,
                                     arrives_before),
                    job);
}

void
LiveViews::remove_pending(const workload::Job *job)
{
    ++version_;
    const auto it = std::lower_bound(pending_.begin(), pending_.end(), job,
                                     arrives_before);
    assert(it != pending_.end() && *it == job);
    pending_.erase(it);
}

void
LiveViews::add_running(workload::Job *job, cluster::Placement placement,
                       TimePoint expected_end)
{
    ++version_;
    const size_t gid = size_t(job->group_id());
    if (gid >= held_.size())
        held_.resize(gid + 1, 0);
    held_[gid] += placement.total_gpus();
    free_.take(placement);
    running_.insert(std::lower_bound(running_.begin(), running_.end(),
                                     job->id(), id_below),
                    RunningInfo{job, std::move(placement), expected_end});
}

void
LiveViews::remove_running(cluster::JobId id)
{
    ++version_;
    const auto it =
        std::lower_bound(running_.begin(), running_.end(), id, id_below);
    assert(it != running_.end() && it->job->id() == id);
    held_[size_t(it->job->group_id())] -= it->placement.total_gpus();
    free_.give(it->placement);
    running_.erase(it);
}

void
LiveViews::attach(SchedulerContext &ctx)
{
    if (cluster_->health().version() != health_version_) {
        free_.sync_health(*cluster_);
        health_version_ = cluster_->health().version();
    }
    ctx.pending = pending_;
    ctx.pending_sorted = true;
    ctx.running = running_;
    ctx.free = &free_;
    ctx.held_gpus = held_;
}

Status
LiveViews::check() const
{
    const auto fail = [](const char *what, cluster::JobId id) {
        return Status::internal(
            strfmt("%s (job %llu)", what, (unsigned long long)id));
    };
    for (size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i]->state() != workload::JobState::kPending)
            return fail("pending view holds a non-pending job",
                        pending_[i]->id());
        if (i > 0 && !arrives_before(pending_[i - 1], pending_[i]))
            return fail("pending view out of order", pending_[i]->id());
    }
    const std::vector<cluster::JobId> holders = cluster_->running_jobs();
    if (holders.size() != running_.size())
        return Status::internal("running view and cluster holders differ");
    for (size_t i = 0; i < running_.size(); ++i) {
        const RunningInfo &r = running_[i];
        if (holders[i] != r.job->id() ||
            r.job->state() != workload::JobState::kRunning ||
            r.job->running_gpus() != r.placement.total_gpus() ||
            !same_placement(r.placement, cluster_->placement_of(r.job->id())))
            return fail("running view differs from the cluster", r.job->id());
    }
    SchedulerContext adhoc;
    adhoc.running = running_;
    std::vector<int> held = detail::held_by_group(adhoc);
    std::vector<int> live = held_;
    live.resize(std::max(held.size(), live.size()), 0);
    held.resize(live.size(), 0);
    if (held != live)
        return Status::internal("held GPUs per group differ");
    FreeView synced = free_;
    synced.sync_health(*cluster_);
    if (!(synced == FreeView(*cluster_)))
        return Status::internal("free view differs from a fresh snapshot");
    return Status::ok();
}

void
LiveViews::adopt(std::vector<workload::Job *> pending,
                 std::vector<RunningInfo> running)
{
    pending_ = std::move(pending);
    running_ = std::move(running);
    pending_.clear();
    running_.clear();
}

void
LiveViews::donate(std::vector<workload::Job *> &pending,
                  std::vector<RunningInfo> &running)
{
    pending_.clear();
    running_.clear();
    pending = std::move(pending_);
    running = std::move(running_);
}

} // namespace tacc::sched
