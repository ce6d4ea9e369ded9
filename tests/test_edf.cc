/**
 * @file
 * Tests for deadlines in the schema and the EDF schedulers.
 */
#include <gtest/gtest.h>

#include "core/stack.h"
#include "sched_fixture.h"

namespace tacc::sched {
namespace {

using namespace time_literals;
using testing::SchedFixture;
using workload::JobState;

class EdfTest : public SchedFixture
{
  protected:
    workload::Job *
    add_deadline_pending(int gpus, Duration deadline, TimePoint submit)
    {
        workload::Job *job = add_pending({.gpus = gpus, .submit = submit});
        // Rebuild with a deadline: easier to mutate via a fresh spec.
        workload::TaskSpec spec = job->spec();
        spec.deadline = deadline;
        views_->remove_pending(job);
        jobs_.pop_back();
        auto profile =
            workload::ModelCatalog::instance().find(spec.model);
        auto owned = std::make_unique<workload::Job>(
            next_id_++, spec, profile.value(), submit);
        EXPECT_TRUE(owned->begin_provisioning(submit).is_ok());
        EXPECT_TRUE(owned->finish_provisioning(submit).is_ok());
        workload::Job *out = owned.get();
        views_->add_pending(out);
        jobs_.push_back(std::move(owned));
        return out;
    }
};

TEST_F(EdfTest, OrdersByAbsoluteDeadline)
{
    add_running({.gpus = 15}, now_ + 1000_s);
    // Arrived earlier but later deadline.
    add_deadline_pending(1, 10_h, now_);
    auto *urgent = add_deadline_pending(1, 1_h, now_ + 1_s);
    EdfScheduler edf(false);
    const auto decision = edf.schedule(ctx());
    EXPECT_EQ(started(decision),
              (std::vector<cluster::JobId>{urgent->id()}));
}

TEST_F(EdfTest, DeadlineFreeJobsSortLast)
{
    add_running({.gpus = 15}, now_ + 1000_s);
    add_pending({.gpus = 1}); // no deadline, arrived first
    auto *dl = add_deadline_pending(1, 5_h, now_ + 1_s);
    EdfScheduler edf(false);
    const auto decision = edf.schedule(ctx());
    EXPECT_EQ(started(decision), (std::vector<cluster::JobId>{dl->id()}));
}

TEST_F(EdfTest, NonPreemptiveVariantNeverPreempts)
{
    add_running({.gpus = 16}, now_ + 10000_s);
    add_deadline_pending(8, 10_min, now_); // hopeless without preemption
    EdfScheduler edf(false);
    EXPECT_TRUE(edf.schedule(ctx()).empty());
}

TEST_F(EdfTest, UrgentJobPreemptsLaterDeadlineWork)
{
    auto *victim = add_running({.gpus = 16}, now_ + 10000_s);
    auto *urgent = add_deadline_pending(8, 30_min, now_);
    EdfScheduler edf(true, /*urgency_window=*/Duration::hours(1));
    const auto decision = edf.schedule(ctx());
    ASSERT_EQ(decision.starts.size(), 1u);
    EXPECT_EQ(decision.starts[0].job, urgent->id());
    EXPECT_EQ(decision.preemptions,
              (std::vector<cluster::JobId>{victim->id()}));
}

TEST_F(EdfTest, NonUrgentJobWaitsInstead)
{
    add_running({.gpus = 16}, now_ + 10000_s);
    // Plenty of slack (deadline far beyond the predicted runtime).
    add_deadline_pending(8, Duration::days(10), now_);
    EdfScheduler edf(true, Duration::minutes(30));
    EXPECT_TRUE(edf.schedule(ctx()).empty());
}

TEST(DeadlineSpec, ValidationAndRoundTrip)
{
    workload::TaskSpec spec;
    spec.name = "t";
    spec.user = "u";
    spec.group = "g";
    spec.model = "resnet50";
    spec.deadline = Duration::hours(3);
    EXPECT_TRUE(spec.has_deadline());
    auto parsed = workload::TaskSpec::parse(spec.to_text());
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value().deadline, Duration::hours(3));
    spec.deadline = Duration::seconds(-1);
    EXPECT_FALSE(spec.validate().is_ok());
}

TEST(DeadlineStack, MissAccountingEndToEnd)
{
    core::StackConfig config;
    config.cluster.topology.racks = 1;
    config.cluster.topology.nodes_per_rack = 2;
    config.scheduler = "edf";
    core::TaccStack stack(config);

    workload::TaskSpec ok_spec;
    ok_spec.name = "makes-it";
    ok_spec.user = "u";
    ok_spec.group = "g";
    ok_spec.gpus = 4;
    ok_spec.model = "resnet50";
    ok_spec.iterations = 100;
    ok_spec.deadline = Duration::hours(10);
    auto ok_id = stack.submit(ok_spec);
    ASSERT_TRUE(ok_id.is_ok());

    workload::TaskSpec late_spec = ok_spec;
    late_spec.name = "misses";
    late_spec.iterations = 1'000'000;
    late_spec.deadline = Duration::minutes(5); // impossible
    auto late_id = stack.submit(late_spec);
    ASSERT_TRUE(late_id.is_ok());

    ASSERT_TRUE(stack.run_to_completion());
    EXPECT_FALSE(stack.find_job(ok_id.value())->missed_deadline());
    EXPECT_TRUE(stack.find_job(late_id.value())->missed_deadline());
    EXPECT_DOUBLE_EQ(stack.metrics().deadline_miss_rate(), 0.5);
}

TEST(DeadlineJob, AbsoluteDeadlineAndMissRules)
{
    workload::TaskSpec spec;
    spec.name = "t";
    spec.user = "u";
    spec.group = "g";
    spec.model = "resnet50";
    spec.iterations = 10;
    auto profile = workload::ModelCatalog::instance().find(spec.model);

    // No deadline: never a miss.
    workload::Job free_job(1, spec, profile.value(),
                           TimePoint::origin() + 100_s);
    EXPECT_EQ(free_job.absolute_deadline(), TimePoint::max());
    EXPECT_TRUE(free_job.kill(TimePoint::origin() + 200_s).is_ok());
    EXPECT_FALSE(free_job.missed_deadline());

    // Deadline carried from submit time; a killed job counts as missed.
    spec.deadline = 50_s;
    workload::Job dl(2, spec, profile.value(),
                     TimePoint::origin() + 100_s);
    EXPECT_EQ(dl.absolute_deadline(), TimePoint::origin() + 150_s);
    EXPECT_FALSE(dl.missed_deadline()); // not terminal yet
    EXPECT_TRUE(dl.kill(TimePoint::origin() + 120_s).is_ok());
    EXPECT_TRUE(dl.missed_deadline());
}

} // namespace
} // namespace tacc::sched
