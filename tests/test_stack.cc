/**
 * @file
 * Integration tests for TaccStack: the four layers wired together on the
 * discrete-event engine.
 */
#include <gtest/gtest.h>

#include "core/stack.h"
#include "driver/sweep.h"

namespace tacc::core {
namespace {

using namespace time_literals;
using workload::JobState;

StackConfig
small_config()
{
    StackConfig config;
    config.cluster.topology.racks = 1;
    config.cluster.topology.nodes_per_rack = 2;
    config.cluster.node.gpu_count = 8;
    config.scheduler = "fifo";
    config.placement = "pack";
    return config;
}

workload::TaskSpec
spec(const std::string &name, int gpus = 2, int64_t iterations = 100)
{
    workload::TaskSpec s;
    s.name = name;
    s.user = "alice";
    s.group = "lab";
    s.gpus = gpus;
    s.model = "resnet50";
    s.iterations = iterations;
    return s;
}

TEST(TaccStack, RejectsBadSubmissions)
{
    TaccStack stack(small_config());
    auto bad = spec("x");
    bad.gpus = 0;
    EXPECT_FALSE(stack.submit(bad).is_ok());
    auto huge = spec("y", 17); // 16 GPUs in the cluster
    EXPECT_FALSE(stack.submit(huge).is_ok());
    auto unknown = spec("z");
    unknown.model = "skynet";
    EXPECT_FALSE(stack.submit(unknown).is_ok());
    EXPECT_TRUE(stack.jobs().empty());
}

TEST(TaccStack, LifecycleTimestampsAreOrdered)
{
    TaccStack stack(small_config());
    auto id = stack.submit(spec("a"));
    ASSERT_TRUE(id.is_ok());
    const workload::Job *job = stack.find_job(id.value());
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->state(), JobState::kProvisioning);
    ASSERT_TRUE(stack.run_to_completion());
    EXPECT_EQ(job->state(), JobState::kCompleted);
    EXPECT_GT(job->provision_latency().to_seconds(), 0.0);
    EXPECT_GE(job->queueing_delay(), job->provision_latency());
    EXPECT_GT(job->jct(), job->queueing_delay());
}

TEST(TaccStack, GangWaitsForEnoughGpus)
{
    TaccStack stack(small_config());
    // Fill the cluster with a long job, then submit a full-width job.
    auto long_id = stack.submit(spec("long", 16, 100000));
    ASSERT_TRUE(long_id.is_ok());
    stack.run_until(TimePoint::origin() + 5_min);
    EXPECT_EQ(stack.find_job(long_id.value())->state(),
              JobState::kRunning);

    auto wide = stack.submit(spec("wide", 16, 10));
    ASSERT_TRUE(wide.is_ok());
    stack.run_until(TimePoint::origin() + 10_min);
    EXPECT_EQ(stack.find_job(wide.value())->state(), JobState::kPending);
    ASSERT_TRUE(stack.run_to_completion());
    EXPECT_EQ(stack.find_job(wide.value())->state(),
              JobState::kCompleted);
    // The wide job started only after the long one released.
    EXPECT_GE(stack.find_job(wide.value())->queueing_delay(),
              Duration::minutes(5));
}

TEST(TaccStack, MultipleJobsShareCluster)
{
    TaccStack stack(small_config());
    std::vector<cluster::JobId> ids;
    for (int i = 0; i < 6; ++i) {
        auto id = stack.submit(spec("j" + std::to_string(i), 2, 200));
        ASSERT_TRUE(id.is_ok());
        ids.push_back(id.value());
    }
    ASSERT_TRUE(stack.run_to_completion());
    for (auto id : ids)
        EXPECT_EQ(stack.find_job(id)->state(), JobState::kCompleted);
    EXPECT_EQ(stack.metrics().completed_count(), 6u);
    EXPECT_EQ(stack.cluster().used_gpus(), 0);
    EXPECT_TRUE(stack.quiescent());
}

TEST(TaccStack, KillAtEveryLifecycleStage)
{
    TaccStack stack(small_config());

    // Kill while provisioning.
    auto a = stack.submit(spec("a"));
    ASSERT_TRUE(a.is_ok());
    EXPECT_TRUE(stack.kill(a.value()).is_ok());
    EXPECT_EQ(stack.find_job(a.value())->state(), JobState::kKilled);

    // Kill while pending (cluster full of a long job).
    auto filler = stack.submit(spec("filler", 16, 100000));
    ASSERT_TRUE(filler.is_ok());
    stack.run_until(TimePoint::origin() + 5_min);
    auto b = stack.submit(spec("b", 8));
    ASSERT_TRUE(b.is_ok());
    stack.run_until(TimePoint::origin() + 10_min);
    EXPECT_EQ(stack.find_job(b.value())->state(), JobState::kPending);
    EXPECT_TRUE(stack.kill(b.value()).is_ok());
    EXPECT_EQ(stack.find_job(b.value())->state(), JobState::kKilled);

    // Kill while running.
    EXPECT_TRUE(stack.kill(filler.value()).is_ok());
    EXPECT_EQ(stack.find_job(filler.value())->state(), JobState::kKilled);
    EXPECT_EQ(stack.cluster().used_gpus(), 0);

    // Kill a terminal or unknown job fails cleanly.
    EXPECT_FALSE(stack.kill(filler.value()).is_ok());
    EXPECT_FALSE(stack.kill(12345).is_ok());
    EXPECT_TRUE(stack.run_to_completion());
}

TEST(TaccStack, TraceSubmissionRunsToQuiescence)
{
    StackConfig config = small_config();
    config.scheduler = "fairshare";
    TaccStack stack(config);
    workload::TraceConfig trace;
    trace.num_jobs = 40;
    trace.seed = 3;
    trace.mean_interarrival_s = 120.0;
    // Scale demands to the tiny cluster.
    trace.gpu_demand_pmf = {{1, 0.6}, {2, 0.25}, {4, 0.1}, {8, 0.05}};
    stack.submit_trace(workload::TraceGenerator(trace).generate());
    ASSERT_TRUE(stack.run_to_completion());
    EXPECT_EQ(stack.jobs().size(), 40u);
    EXPECT_EQ(stack.metrics().completed_count(), 40u);
    EXPECT_EQ(stack.cluster().used_gpus(), 0);
}

TEST(TaccStack, DeterministicAcrossRuns)
{
    auto run_once = [] {
        StackConfig config = small_config();
        config.scheduler = "backfill-easy";
        TaccStack stack(config);
        workload::TraceConfig trace;
        trace.num_jobs = 30;
        trace.seed = 9;
        trace.mean_interarrival_s = 60.0;
        trace.gpu_demand_pmf = {{1, 0.6}, {2, 0.2}, {4, 0.1}, {8, 0.1}};
        stack.submit_trace(workload::TraceGenerator(trace).generate());
        EXPECT_TRUE(stack.run_to_completion());
        std::vector<double> jcts;
        for (const auto *job : stack.jobs())
            jcts.push_back(job->jct().to_seconds());
        return jcts;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(TaccStack, PreemptionRoundTripPreservesProgress)
{
    StackConfig config = small_config();
    config.scheduler = "qos-preempt";
    TaccStack stack(config);

    auto victim = stack.submit(spec("victim", 16, 10000000));
    ASSERT_TRUE(victim.is_ok());
    stack.run_until(TimePoint::origin() + 30_min);
    EXPECT_EQ(stack.find_job(victim.value())->state(), JobState::kRunning);
    const int64_t iters_before =
        stack.find_job(victim.value())->iterations_done();

    auto boss_spec = spec("boss", 8, 50);
    boss_spec.qos = workload::QosClass::kInteractive;
    boss_spec.preemptible = false;
    auto boss = stack.submit(boss_spec);
    ASSERT_TRUE(boss.is_ok());
    stack.run_until(TimePoint::origin() + 40_min);
    EXPECT_EQ(stack.find_job(boss.value())->state(),
              JobState::kCompleted);
    EXPECT_EQ(stack.find_job(victim.value())->preemption_count(), 1);
    EXPECT_GE(stack.find_job(victim.value())->iterations_done(),
              iters_before);
    EXPECT_GE(stack.metrics().preemptions(), 1u);

    ASSERT_TRUE(stack.run_to_completion());
    EXPECT_EQ(stack.find_job(victim.value())->state(),
              JobState::kCompleted);
    EXPECT_EQ(stack.find_job(victim.value())->iterations_done(),
              10000000);
}

TEST(TaccStack, FailureInjectionWithFailsafeRecovers)
{
    StackConfig config = small_config();
    config.exec.failure.persistent_prob = 1.0; // every job has a bad runtime
    config.exec.failure.failsafe_switching = true;
    config.exec.failure.max_attempts = 4;
    TaccStack stack(config);
    auto id = stack.submit(spec("flaky", 4, 100000));
    ASSERT_TRUE(id.is_ok());
    ASSERT_TRUE(stack.run_to_completion());
    const workload::Job *job = stack.find_job(id.value());
    // Either the compiled runtime was the good one (no failure) or
    // fail-safe switching saved it after one failure.
    EXPECT_EQ(job->state(), JobState::kCompleted);
    EXPECT_LE(stack.metrics().segment_failures(), 1u);
}

TEST(TaccStack, FailureWithoutFailsafeExhaustsAttempts)
{
    StackConfig config = small_config();
    config.exec.failure.persistent_prob = 1.0;
    config.exec.failure.failsafe_switching = false;
    config.exec.failure.max_attempts = 3;
    config.compiler.container_threshold_bytes = 0; // force container
    TaccStack stack(config);

    // Find a job whose *container* runtime is the broken one by brute
    // force: submit several jobs; at least one must fail permanently.
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(stack.submit(spec("f" + std::to_string(i), 1, 100000))
                        .is_ok());
    ASSERT_TRUE(stack.run_to_completion());
    EXPECT_GT(stack.metrics().failed_count(), 0u);
    for (const auto *job : stack.jobs()) {
        if (job->state() == JobState::kFailed) {
            EXPECT_EQ(job->segment_count(), 3);
        }
    }
}

TEST(TaccStack, CrashRollsBackToCheckpointEndToEnd)
{
    StackConfig config = small_config();
    config.exec.failure.persistent_prob = 1.0;
    config.exec.failure.failsafe_switching = true;
    config.exec.failure.persistent_fail_after_s = 300.0;
    config.exec.checkpoint_interval_s = 60.0;
    config.compiler.container_threshold_bytes = 0; // container first
    TaccStack stack(config);

    // Find a job whose container runtime is broken; its first segment
    // crashes at ~300 s and must roll back to a 60 s checkpoint
    // boundary, then finish on the other runtime.
    for (int i = 0; i < 6; ++i) {
        auto id = stack.submit(spec("c" + std::to_string(i), 1, 100000));
        ASSERT_TRUE(id.is_ok());
    }
    ASSERT_TRUE(stack.run_to_completion());
    EXPECT_GT(stack.metrics().segment_failures(), 0u);
    for (const auto *job : stack.jobs()) {
        EXPECT_EQ(job->state(), JobState::kCompleted);
        EXPECT_EQ(job->iterations_done(), 100000);
    }
}

TEST(TaccStack, UsageTrackerChargesGroups)
{
    TaccStack stack(small_config());
    auto id = stack.submit(spec("a", 4, 500));
    ASSERT_TRUE(id.is_ok());
    ASSERT_TRUE(stack.run_to_completion());
    EXPECT_GT(stack.usage().usage("lab", stack.simulator().now()), 0.0);
}

TEST(TaccStack, QuotaKeepsGroupWithinCap)
{
    StackConfig config = small_config();
    config.group_quotas["lab"] = 4;
    TaccStack stack(config);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(
            stack.submit(spec("q" + std::to_string(i), 2, 5000)).is_ok());
    stack.run_until(TimePoint::origin() + 30_min);
    EXPECT_LE(stack.cluster().used_gpus(), 4);
    ASSERT_TRUE(stack.run_to_completion());
    EXPECT_EQ(stack.metrics().completed_count(), 4u);
}

TEST(TaccStack, RuntimeQuotaChangeReleasesBacklog)
{
    StackConfig config = small_config();
    config.group_quotas["lab"] = 2;
    TaccStack stack(config);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(
            stack.submit(spec("q" + std::to_string(i), 2, 2000000))
                .is_ok());
    stack.run_until(TimePoint::origin() + 10_min);
    EXPECT_EQ(stack.cluster().used_gpus(), 2); // one job at a time

    // Operator widens the partition: the backlog starts immediately.
    stack.set_group_quota("lab", 8);
    EXPECT_EQ(stack.cluster().used_gpus(), 8);
    ASSERT_TRUE(stack.kill(1).is_ok());
    ASSERT_TRUE(stack.kill(2).is_ok());
    ASSERT_TRUE(stack.kill(3).is_ok());
    ASSERT_TRUE(stack.kill(4).is_ok());
    ASSERT_TRUE(stack.run_to_completion());
}

TEST(TaccStack, EstimatedStartTracksCapacityTimeline)
{
    TaccStack stack(small_config());
    auto runner = stack.submit(spec("runner", 16, 1000000));
    ASSERT_TRUE(runner.is_ok());
    stack.run_until(TimePoint::origin() + 5_min);
    ASSERT_EQ(stack.find_job(runner.value())->state(),
              JobState::kRunning);
    // Running job: estimate = its actual segment start.
    auto started = stack.estimated_start(runner.value());
    ASSERT_TRUE(started.is_ok());
    EXPECT_EQ(started.value(),
              stack.find_job(runner.value())->segment_start());

    // A full-width job queued behind it starts when the runner ends.
    auto waiter = stack.submit(spec("waiter", 16, 100));
    ASSERT_TRUE(waiter.is_ok());
    stack.run_until(stack.simulator().now() + 5_min);
    ASSERT_EQ(stack.find_job(waiter.value())->state(),
              JobState::kPending);
    auto eta = stack.estimated_start(waiter.value());
    ASSERT_TRUE(eta.is_ok()) << eta.status().str();
    EXPECT_GT(eta.value(), stack.simulator().now() + Duration::hours(1));

    ASSERT_TRUE(stack.run_to_completion());
    // The realized start must not be later than the (conservative,
    // limit-priced) estimate.
    const workload::Job *w = stack.find_job(waiter.value());
    EXPECT_LE(w->submit_time() + w->queueing_delay(), eta.value());

    // Terminal job: no estimate.
    EXPECT_FALSE(stack.estimated_start(waiter.value()).is_ok());
    EXPECT_FALSE(stack.estimated_start(12345).is_ok());
}

TEST(TaccStack, EstimatedStartOfHeldJobIsUnknown)
{
    TaccStack stack(small_config());
    auto parent = stack.submit(spec("parent", 1, 1000000));
    ASSERT_TRUE(parent.is_ok());
    auto child = stack.submit(spec("child", 1, 10), {parent.value()});
    ASSERT_TRUE(child.is_ok());
    stack.run_until(TimePoint::origin() + 5_min);
    EXPECT_FALSE(stack.estimated_start(child.value()).is_ok());
    ASSERT_TRUE(stack.kill(parent.value()).is_ok());
    ASSERT_TRUE(stack.run_to_completion());
}

TEST(TaccStack, EstimatedStartOfJobInRequeueBackoffIsUnknown)
{
    // A storm's node crash kills a running gang; the job requeues after
    // a backoff, during which it is pending but in no queue.
    StackConfig config = small_config();
    config.cluster.topology.nodes_per_rack = 4;
    ASSERT_TRUE(driver::apply_fault_mode("storm", &config).is_ok());
    TaccStack stack(config);
    for (int i = 0; i < 4; ++i) {
        workload::TaskSpec s = spec("long-" + std::to_string(i), 8,
                                    100'000'000);
        s.time_limit = Duration::days(365);
        ASSERT_TRUE(stack.submit(s).is_ok());
    }
    bool saw_backoff = false;
    for (int step = 0; step < 200'000 && !saw_backoff; ++step) {
        ASSERT_TRUE(stack.simulator().step());
        for (const workload::Job *job : stack.jobs()) {
            if (job->state() != JobState::kPending)
                continue;
            const auto eta = stack.estimated_start(job->id());
            if (eta.is_ok())
                continue;
            ASSERT_EQ(eta.status().code(), StatusCode::kFailedPrecondition)
                << eta.status().str();
            EXPECT_EQ(eta.status().message(), "waiting out requeue backoff");
            saw_backoff = true;
        }
    }
    EXPECT_TRUE(saw_backoff);
}

TEST(TaccStack, MonitorLogsCoverSegments)
{
    TaccStack stack(small_config());
    auto id = stack.submit(spec("logged", 4, 100));
    ASSERT_TRUE(id.is_ok());
    ASSERT_TRUE(stack.run_to_completion());
    const auto lines = stack.monitor().aggregate(id.value());
    ASSERT_GE(lines.size(), 2u);
    EXPECT_NE(lines.front().text.find("started"), std::string::npos);
    EXPECT_NE(lines.back().text.find("completed"), std::string::npos);
}

TEST(TaccStack, ElasticSchedulerEndToEnd)
{
    StackConfig config = small_config();
    config.scheduler = "elastic";
    TaccStack stack(config);
    auto s = spec("stretchy", 4, 20000);
    s.min_gpus = 2;
    s.max_gpus = 16;
    auto id = stack.submit(s);
    ASSERT_TRUE(id.is_ok());
    ASSERT_TRUE(stack.run_to_completion(10'000'000));
    EXPECT_EQ(stack.find_job(id.value())->state(), JobState::kCompleted);
}

} // namespace
} // namespace tacc::core
