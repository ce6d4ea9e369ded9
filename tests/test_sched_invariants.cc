/**
 * @file
 * Randomized invariant checks over every scheduling policy.
 *
 * For a sweep of (policy, seed) pairs, builds a random cluster state
 * (random running set, random pending queue) and verifies properties
 * that every decision must satisfy regardless of policy:
 *
 *  - starts reference pending jobs only, at most once each;
 *  - preemptions reference running jobs only, at most once, and only
 *    preemptible ones;
 *  - after applying the preemptions, every start's placement fits the
 *    real cluster (slice capacities, distinct nodes);
 *  - non-elastic jobs are started with exactly their requested GPUs;
 *    elastic ones within [min, max];
 *  - group quotas are never exceeded by the post-decision holdings.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "sched_fixture.h"

namespace tacc::sched {
namespace {

using namespace time_literals;
using testing::SchedFixture;

class SchedulerInvariants
    : public SchedFixture,
      public ::testing::WithParamInterface<std::tuple<std::string, int>>
{
  protected:
    SchedulerInvariants() : SchedFixture(2, 4, 8) {}

    void
    populate(Rng &rng)
    {
        quota_.set_group_quota("quotagrp", 12);
        // Random running set.
        const int running = int(rng.uniform_int(0, 5));
        for (int i = 0; i < running; ++i) {
            JobOptions opts;
            opts.gpus = int(rng.uniform_int(1, 12));
            opts.preemptible = rng.bernoulli(0.7);
            opts.group = rng.bernoulli(0.3) ? "quotagrp"
                                            : "g" + std::to_string(i % 3);
            opts.qos = rng.bernoulli(0.3)
                           ? workload::QosClass::kBestEffort
                           : workload::QosClass::kBatch;
            if (cluster_->free_gpus() < opts.gpus)
                break;
            add_running(opts,
                        now_ + Duration::seconds(
                                   rng.uniform_int(60, 7200)),
                        rng.uniform(0, 1e5));
        }
        // Random pending queue.
        const int pending = int(rng.uniform_int(1, 10));
        for (int i = 0; i < pending; ++i) {
            JobOptions opts;
            opts.gpus = int(rng.uniform_int(1, 16));
            opts.preemptible = rng.bernoulli(0.8);
            opts.group = rng.bernoulli(0.3) ? "quotagrp"
                                            : "g" + std::to_string(i % 3);
            opts.time_limit =
                Duration::seconds(rng.uniform_int(600, 86400));
            if (rng.bernoulli(0.25)) {
                opts.qos = workload::QosClass::kInteractive;
                opts.preemptible = false;
                opts.gpus = std::min(opts.gpus, 2);
            }
            if (rng.bernoulli(0.3) && opts.gpus >= 2) {
                opts.min_gpus = std::max(1, opts.gpus / 2);
                opts.max_gpus = opts.gpus * 2;
            }
            opts.submit = now_ + Duration::seconds(i);
            add_pending(opts);
        }
    }
};

TEST_P(SchedulerInvariants, DecisionIsSound)
{
    const auto &[policy_name, seed] = GetParam();
    Rng rng(uint64_t(seed) * 7919 + 13);
    now_ = TimePoint::origin() + Duration::hours(2);
    populate(rng);

    auto scheduler = make_scheduler(policy_name);
    ASSERT_NE(scheduler, nullptr);
    const auto decision = scheduler->schedule(ctx());

    std::set<cluster::JobId> pending_ids, running_ids;
    std::map<cluster::JobId, workload::Job *> by_id;
    for (auto *job : views_->pending()) {
        pending_ids.insert(job->id());
        by_id[job->id()] = job;
    }
    for (auto &r : views_->running()) {
        running_ids.insert(r.job->id());
        by_id[r.job->id()] = r.job;
    }

    // Preemptions: running, preemptible, unique.
    std::set<cluster::JobId> preempted;
    for (auto victim : decision.preemptions) {
        EXPECT_TRUE(running_ids.contains(victim))
            << policy_name << " preempted non-running job " << victim;
        EXPECT_TRUE(preempted.insert(victim).second)
            << policy_name << " preempted job " << victim << " twice";
        EXPECT_TRUE(by_id[victim]->spec().preemptible)
            << policy_name << " preempted non-preemptible job";
    }

    // Apply preemptions to the real cluster.
    for (auto victim : preempted)
        cluster_->release(victim);

    // Starts: pending (or just-preempted) jobs, unique, correct sizes,
    // and committable placements.
    std::set<cluster::JobId> started_ids;
    std::map<std::string, int> held;
    for (auto &r : views_->running()) {
        if (!preempted.contains(r.job->id()))
            held[r.job->spec().group] += r.job->running_gpus();
    }
    // The random running set may already exceed the quota (it was built
    // without the scheduler); the invariant is that decisions never push
    // the group beyond max(quota, what it already held).
    const int quota_floor = std::max(12, held["quotagrp"]);
    for (const auto &start : decision.starts) {
        EXPECT_TRUE(pending_ids.contains(start.job) ||
                    preempted.contains(start.job))
            << policy_name << " started unknown job " << start.job;
        EXPECT_TRUE(started_ids.insert(start.job).second)
            << policy_name << " started job twice";
        workload::Job *job = by_id[start.job];
        const int granted = start.placement.total_gpus();
        if (job->spec().is_elastic()) {
            EXPECT_GE(granted, job->spec().min_gpus) << policy_name;
            EXPECT_LE(granted, job->spec().max_gpus) << policy_name;
        } else {
            EXPECT_EQ(granted, job->spec().gpus) << policy_name;
        }
        EXPECT_TRUE(cluster_->allocate(start.job, start.placement).is_ok())
            << policy_name
            << " produced an uncommittable placement for job "
            << start.job;
        held[job->spec().group] += granted;
    }

    // Quota respected after the whole decision.
    EXPECT_LE(held["quotagrp"], quota_floor)
        << policy_name << " violated quota";
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, SchedulerInvariants,
    ::testing::Combine(
        ::testing::Values("fifo", "fifo-skip", "sjf", "sjf-pred",
                          "fairshare", "backfill-easy", "backfill-cons",
                          "backfill-pred", "qos-preempt", "las", "gang",
                          "drf", "edf", "edf-preempt", "elastic"),
        ::testing::Range(0, 12)),
    [](const auto &info) {
        auto name = std::get<0>(info.param);
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name + "_s" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace tacc::sched
