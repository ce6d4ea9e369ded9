/**
 * @file
 * Shared fixture for scheduler unit tests: builds a cluster, pending and
 * running jobs, and a SchedulerContext with controllable knobs. Jobs enter
 * the same sched::LiveViews the stack keeps, so policies see the context
 * a live deployment hands them.
 */
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "sched/live_views.h"
#include "sched/placement.h"
#include "sched/schedulers.h"
#include "sched/usage.h"
#include "workload/job.h"
#include "workload/model.h"

namespace tacc::sched::testing {

class SchedFixture : public ::testing::Test
{
  protected:
    /** 2 nodes x 8 GPUs by default. */
    explicit SchedFixture(int racks = 1, int nodes_per_rack = 2,
                          int gpus_per_node = 8)
    {
        cluster::ClusterConfig config;
        config.topology.racks = racks;
        config.topology.nodes_per_rack = nodes_per_rack;
        config.node.gpu_count = gpus_per_node;
        cluster_ = std::make_unique<cluster::Cluster>(config);
        views_ = std::make_unique<LiveViews>(*cluster_);
        placement_ = std::make_unique<PackPlacement>();
    }

    struct JobOptions {
        int gpus = 1;
        workload::QosClass qos = workload::QosClass::kBatch;
        bool preemptible = true;
        Duration time_limit = Duration::hours(1);
        std::string group = "g";
        int64_t iterations = 1000;
        int min_gpus = 0;
        int max_gpus = 0;
        TimePoint submit = TimePoint::origin();
    };

    workload::Job *
    make_job(const JobOptions &opts)
    {
        workload::TaskSpec spec;
        spec.name = "job-" + std::to_string(next_id_);
        spec.user = "u";
        spec.group = opts.group;
        spec.gpus = opts.gpus;
        spec.qos = opts.qos;
        spec.preemptible = opts.preemptible;
        spec.time_limit = opts.time_limit;
        spec.model = "resnet50";
        spec.iterations = opts.iterations;
        spec.min_gpus = opts.min_gpus;
        spec.max_gpus = opts.max_gpus;
        auto profile = workload::ModelCatalog::instance().find(spec.model);
        auto job = std::make_unique<workload::Job>(
            next_id_++, spec, profile.value(), opts.submit);
        EXPECT_TRUE(job->begin_provisioning(opts.submit).is_ok());
        EXPECT_TRUE(job->finish_provisioning(opts.submit).is_ok());
        jobs_.push_back(std::move(job));
        return jobs_.back().get();
    }

    /** Creates a pending job visible to the scheduler. */
    workload::Job *
    add_pending(const JobOptions &opts)
    {
        workload::Job *job = make_job(opts);
        views_->add_pending(job);
        return job;
    }

    workload::Job *
    add_pending()
    {
        return add_pending(JobOptions{});
    }

    /**
     * Creates a running job: allocates it on the cluster (pack placement)
     * and registers it in the running set.
     * @param expected_end projected completion handed to the scheduler
     */
    workload::Job *
    add_running(const JobOptions &opts, TimePoint expected_end,
                double attained_gpu_s = 0.0)
    {
        workload::Job *job = make_job(opts);
        FreeView view(*cluster_);
        auto plan = placement_->plan(view, cluster_->topology(), opts.gpus,
                                     cluster_->config().node.gpu_count);
        EXPECT_TRUE(plan.is_ok());
        EXPECT_TRUE(cluster_->allocate(job->id(), plan.value()).is_ok());
        // Give the job prior attained service by replaying a segment.
        if (attained_gpu_s > 0) {
            const double seconds = attained_gpu_s / opts.gpus;
            EXPECT_TRUE(job->begin_segment(TimePoint::origin(), opts.gpus,
                                           1.0)
                            .is_ok());
            EXPECT_TRUE(
                job->end_segment(TimePoint::origin() +
                                 Duration::from_seconds(seconds))
                    .is_ok());
        }
        EXPECT_TRUE(
            job->begin_segment(now_, opts.gpus, iteration_s_).is_ok());
        views_->add_running(job, cluster_->placement_of(job->id()),
                            expected_end);
        return job;
    }

    /** Starts a pending job on a planned placement, as the core does. */
    void
    start_pending(workload::Job *job, const cluster::Placement &placement,
                  TimePoint expected_end)
    {
        views_->remove_pending(job);
        EXPECT_TRUE(cluster_->allocate(job->id(), placement).is_ok());
        EXPECT_TRUE(job->begin_segment(now_, placement.total_gpus(),
                                       iteration_s_)
                        .is_ok());
        views_->add_running(job, cluster_->placement_of(job->id()),
                            expected_end);
    }

    SchedulerContext
    ctx()
    {
        SchedulerContext c;
        c.now = now_;
        views_->attach(c);
        c.cluster = cluster_.get();
        c.placement = placement_.get();
        c.usage = &usage_;
        c.quota = &quota_;
        const double iter = iteration_s_;
        c.iter_time = [iter](const workload::Job &,
                             const cluster::Placement &) { return iter; };
        return c;
    }

    /** Ids of the started jobs, in decision order. */
    static std::vector<cluster::JobId>
    started(const ScheduleDecision &d)
    {
        std::vector<cluster::JobId> out;
        for (const auto &s : d.starts)
            out.push_back(s.job);
        return out;
    }

    std::unique_ptr<cluster::Cluster> cluster_;
    std::unique_ptr<PlacementPolicy> placement_;
    UsageTracker usage_{Duration::hours(24)};
    QuotaManager quota_;
    std::vector<std::unique_ptr<workload::Job>> jobs_;
    /** Pending and running jobs, the held GPUs and the free view. */
    std::unique_ptr<LiveViews> views_;
    TimePoint now_ = TimePoint::origin();
    double iteration_s_ = 1.0;
    cluster::JobId next_id_ = 1;
};

} // namespace tacc::sched::testing
