/**
 * @file
 * Behavioural tests for every scheduling policy, against hand-built
 * cluster states where the correct decision is known.
 */
#include <gtest/gtest.h>

#include "sched_fixture.h"

namespace tacc::sched {
namespace {

using namespace time_literals;
using testing::SchedFixture;
using workload::QosClass;

class FifoTest : public SchedFixture
{
};

TEST_F(FifoTest, StrictBlocksBehindBigJob)
{
    add_running({.gpus = 12}, now_ + 1000_s);
    add_pending({.gpus = 8});  // cannot fit (4 free)
    add_pending({.gpus = 1});  // could fit, but strict FIFO blocks
    FifoScheduler fifo(true);
    const auto decision = fifo.schedule(ctx());
    EXPECT_TRUE(decision.starts.empty());
    EXPECT_TRUE(decision.preemptions.empty());
}

TEST_F(FifoTest, SkipVariantFillsAroundBlocker)
{
    add_running({.gpus = 12}, now_ + 1000_s);
    add_pending({.gpus = 8});
    auto *small = add_pending({.gpus = 1});
    FifoScheduler fifo(false);
    const auto decision = fifo.schedule(ctx());
    EXPECT_EQ(started(decision), (std::vector<cluster::JobId>{small->id()}));
}

TEST_F(FifoTest, ArrivalOrderRespected)
{
    auto *late = add_pending({.gpus = 2, .submit = now_ + 10_s});
    auto *early = add_pending({.gpus = 2, .submit = now_ + 5_s});
    FifoScheduler fifo(true);
    const auto decision = fifo.schedule(ctx());
    ASSERT_EQ(decision.starts.size(), 2u);
    EXPECT_EQ(decision.starts[0].job, early->id());
    EXPECT_EQ(decision.starts[1].job, late->id());
}

TEST_F(FifoTest, StartsCarryCommittablePlacements)
{
    auto *job = add_pending({.gpus = 10});
    FifoScheduler fifo(true);
    const auto decision = fifo.schedule(ctx());
    ASSERT_EQ(decision.starts.size(), 1u);
    EXPECT_EQ(decision.starts[0].placement.total_gpus(), 10);
    EXPECT_TRUE(
        cluster_->allocate(job->id(), decision.starts[0].placement)
            .is_ok());
}

class SjfTest : public SchedFixture
{
};

TEST_F(SjfTest, ShortestEstimateFirst)
{
    add_running({.gpus = 15}, now_ + 1000_s); // 1 GPU free
    auto *long_job = add_pending({.gpus = 1, .time_limit = 10_h,
                                  .submit = now_});
    auto *short_job = add_pending({.gpus = 1, .time_limit = 1_h,
                                   .submit = now_ + 1_s});
    (void)long_job;
    SjfScheduler sjf;
    const auto decision = sjf.schedule(ctx());
    EXPECT_EQ(started(decision),
              (std::vector<cluster::JobId>{short_job->id()}));
}

class FairShareTest : public SchedFixture
{
};

TEST_F(FairShareTest, LightUserBeatsHeavyUser)
{
    add_running({.gpus = 15}, now_ + 1000_s);
    usage_.charge("heavy", 1e6, now_);
    usage_.charge("light", 10.0, now_);
    add_pending({.gpus = 1, .group = "heavy"});
    auto *light = add_pending({.gpus = 1, .group = "light"});
    FairShareScheduler fair;
    const auto decision = fair.schedule(ctx());
    EXPECT_EQ(started(decision),
              (std::vector<cluster::JobId>{light->id()}));
}

TEST_F(FairShareTest, QosRaisesPriority)
{
    add_running({.gpus = 15}, now_ + 1000_s);
    add_pending({.gpus = 1, .qos = QosClass::kBestEffort});
    auto *interactive =
        add_pending({.gpus = 1, .qos = QosClass::kInteractive,
                     .preemptible = false});
    FairShareScheduler fair;
    const auto decision = fair.schedule(ctx());
    EXPECT_EQ(started(decision),
              (std::vector<cluster::JobId>{interactive->id()}));
}

TEST_F(FairShareTest, AgeEventuallyDominates)
{
    SchedulerOptions opts;
    FairShareScheduler fair(opts);
    auto *old_be = add_pending({.gpus = 1, .qos = QosClass::kBestEffort,
                                .submit = TimePoint::origin()});
    auto *new_batch = add_pending({.gpus = 1, .qos = QosClass::kBatch});
    now_ = TimePoint::origin() + Duration::hours(13);
    new_batch->kill(now_); // recreate: want a *fresh* batch job
    views_->remove_pending(new_batch);
    auto *fresh = add_pending({.gpus = 1, .qos = QosClass::kBatch,
                               .submit = now_});
    auto c = ctx();
    EXPECT_GT(fair.priority(c, *old_be), fair.priority(c, *fresh));
}

class BackfillTest : public SchedFixture
{
};

TEST_F(BackfillTest, BackfillsShortJobInsideReservationGap)
{
    // 4 free now; 12 more at t+100 s.
    add_running({.gpus = 12}, now_ + 100_s);
    add_pending({.gpus = 8, .time_limit = 1000_s}); // head: blocked
    auto *fits_before_shadow =
        add_pending({.gpus = 4, .time_limit = 50_s});
    BackfillScheduler easy(false);
    const auto decision = easy.schedule(ctx());
    EXPECT_EQ(started(decision),
              (std::vector<cluster::JobId>{fits_before_shadow->id()}));
}

TEST_F(BackfillTest, RefusesBackfillThatDelaysHead)
{
    add_running({.gpus = 12}, now_ + 100_s);
    add_pending({.gpus = 16, .time_limit = 1000_s}); // head needs all
    // Long small job: would still be running when the head could start.
    add_pending({.gpus = 4, .time_limit = 5000_s});
    BackfillScheduler easy(false);
    const auto decision = easy.schedule(ctx());
    EXPECT_TRUE(decision.starts.empty());
}

TEST_F(BackfillTest, ConservativeProtectsSecondReservation)
{
    // 16 GPUs total; 12 held until t+100.
    add_running({.gpus = 12}, now_ + 100_s);
    add_pending({.gpus = 8, .time_limit = 50_s});   // head -> [100, 150)
    add_pending({.gpus = 14, .time_limit = 100_s}); // 2nd  -> [150, 250)
    auto *candidate = add_pending({.gpus = 4, .time_limit = 300_s});

    BackfillScheduler easy(false);
    const auto easy_decision = easy.schedule(ctx());
    EXPECT_EQ(started(easy_decision),
              (std::vector<cluster::JobId>{candidate->id()}));

    BackfillScheduler conservative(true);
    const auto cons_decision = conservative.schedule(ctx());
    EXPECT_TRUE(cons_decision.starts.empty());
}

TEST_F(BackfillTest, StartsEverythingOnEmptyCluster)
{
    add_pending({.gpus = 8});
    add_pending({.gpus = 8});
    BackfillScheduler easy(false);
    EXPECT_EQ(easy.schedule(ctx()).starts.size(), 2u);
}

class QosPreemptTest : public SchedFixture
{
};

TEST_F(QosPreemptTest, InteractivePreemptsBestEffort)
{
    auto *victim1 = add_running(
        {.gpus = 8, .qos = QosClass::kBestEffort}, now_ + 1000_s);
    auto *victim2 = add_running(
        {.gpus = 8, .qos = QosClass::kBestEffort}, now_ + 1000_s);
    auto *boss = add_pending({.gpus = 16, .qos = QosClass::kInteractive,
                              .preemptible = false});
    QosPreemptScheduler sched(true);
    const auto decision = sched.schedule(ctx());
    ASSERT_EQ(decision.starts.size(), 1u);
    EXPECT_EQ(decision.starts[0].job, boss->id());
    EXPECT_EQ(decision.preemptions.size(), 2u);
    (void)victim1;
    (void)victim2;
}

TEST_F(QosPreemptTest, PreemptsOnlyAsMuchAsNeeded)
{
    add_running({.gpus = 8, .qos = QosClass::kBestEffort}, now_ + 1000_s);
    add_running({.gpus = 8, .qos = QosClass::kBestEffort}, now_ + 1000_s);
    add_pending({.gpus = 8, .qos = QosClass::kInteractive,
                 .preemptible = false});
    QosPreemptScheduler sched(true);
    const auto decision = sched.schedule(ctx());
    EXPECT_EQ(decision.preemptions.size(), 1u);
    EXPECT_EQ(decision.starts.size(), 1u);
}

TEST_F(QosPreemptTest, NeverPreemptsNonPreemptibleOrHigherTier)
{
    add_running({.gpus = 8, .qos = QosClass::kBatch,
                 .preemptible = false},
                now_ + 1000_s);
    add_running({.gpus = 8, .qos = QosClass::kInteractive,
                 .preemptible = true},
                now_ + 1000_s);
    add_pending({.gpus = 4, .qos = QosClass::kInteractive,
                 .preemptible = false});
    QosPreemptScheduler sched(true);
    const auto decision = sched.schedule(ctx());
    EXPECT_TRUE(decision.preemptions.empty());
    EXPECT_TRUE(decision.starts.empty());
}

TEST_F(QosPreemptTest, DisabledVariantNeverPreempts)
{
    add_running({.gpus = 16, .qos = QosClass::kBestEffort},
                now_ + 1000_s);
    add_pending({.gpus = 8, .qos = QosClass::kInteractive,
                 .preemptible = false});
    QosPreemptScheduler sched(false);
    const auto decision = sched.schedule(ctx());
    EXPECT_TRUE(decision.empty());
}

class LasTest : public SchedFixture
{
};

TEST_F(LasTest, PreemptsLongServiceForNewcomer)
{
    now_ = TimePoint::origin() + 10_h;
    add_running({.gpus = 16}, now_ + 1000_s, /*attained_gpu_s=*/50000.0);
    auto *newcomer = add_pending({.gpus = 8, .submit = now_});
    LasScheduler las(3600.0);
    const auto decision = las.schedule(ctx());
    ASSERT_EQ(decision.starts.size(), 1u);
    EXPECT_EQ(decision.starts[0].job, newcomer->id());
    EXPECT_EQ(decision.preemptions.size(), 1u);
}

TEST_F(LasTest, DoesNotPreemptForLongServicePending)
{
    now_ = TimePoint::origin() + 10_h;
    add_running({.gpus = 16}, now_ + 1000_s, 50000.0);
    // The pending job itself already consumed a lot: same queue.
    auto *old_timer = add_pending({.gpus = 8, .submit = now_});
    // Simulate prior service.
    EXPECT_TRUE(old_timer
                    ->begin_segment(now_ - 2_h, 8, 1.0)
                    .is_ok());
    EXPECT_TRUE(old_timer->end_segment(now_ - 1_h).is_ok());
    LasScheduler las(3600.0);
    const auto decision = las.schedule(ctx());
    EXPECT_TRUE(decision.empty());
}

TEST_F(LasTest, OrdersPendingByAttainedService)
{
    add_running({.gpus = 15}, now_ + 1000_s);
    auto *veteran = add_pending({.gpus = 1});
    EXPECT_TRUE(veteran->begin_segment(now_, 1, 1.0).is_ok());
    now_ += 100_s;
    EXPECT_TRUE(veteran->end_segment(now_).is_ok());
    auto *fresh = add_pending({.gpus = 1, .submit = now_});
    LasScheduler las(3600.0);
    const auto decision = las.schedule(ctx());
    EXPECT_EQ(started(decision),
              (std::vector<cluster::JobId>{fresh->id()}));
}

class GangTest : public SchedFixture
{
};

TEST_F(GangTest, RotatesGangsAcrossRounds)
{
    auto *a = add_pending({.gpus = 16});
    auto *b = add_pending({.gpus = 16, .submit = now_ + 1_s});
    GangScheduler gang(10_min);

    // Round 1: A starts (arrived first), B waits.
    auto d1 = gang.schedule(ctx());
    EXPECT_EQ(started(d1), (std::vector<cluster::JobId>{a->id()}));

    // Apply: A runs, B pending.
    start_pending(a, d1.starts[0].placement, now_ + 1000_s);

    // Round 2: A is preempted, B starts (least recently served).
    now_ += 10_min;
    auto d2 = gang.schedule(ctx());
    EXPECT_EQ(d2.preemptions,
              (std::vector<cluster::JobId>{a->id()}));
    EXPECT_EQ(started(d2), (std::vector<cluster::JobId>{b->id()}));
}

TEST_F(GangTest, KeepsRunningGangWhenCapacityAllows)
{
    auto *a = add_running({.gpus = 4}, now_ + 1000_s);
    auto *b = add_pending({.gpus = 4});
    GangScheduler gang(10_min);
    const auto decision = gang.schedule(ctx());
    // Both fit: no preemption, b starts.
    EXPECT_TRUE(decision.preemptions.empty());
    EXPECT_EQ(started(decision), (std::vector<cluster::JobId>{b->id()}));
    (void)a;
}

class DrfTest : public SchedFixture
{
};

TEST_F(DrfTest, FavorsGroupWithLowerDominantShare)
{
    add_running({.gpus = 12, .group = "hogs"}, now_ + 1000_s);
    add_pending({.gpus = 4, .group = "hogs"});
    auto *meek = add_pending({.gpus = 4, .group = "meek",
                              .submit = now_ + 1_s});
    DrfScheduler drf;
    const auto decision = drf.schedule(ctx());
    ASSERT_FALSE(decision.starts.empty());
    EXPECT_EQ(decision.starts[0].job, meek->id());
}

TEST_F(DrfTest, AlternatesBetweenEqualGroups)
{
    for (int i = 0; i < 3; ++i) {
        add_pending({.gpus = 2, .group = "a"});
        add_pending({.gpus = 2, .group = "b"});
    }
    DrfScheduler drf;
    const auto decision = drf.schedule(ctx());
    ASSERT_EQ(decision.starts.size(), 6u);
    // First two starts must come from different groups.
    const auto *j0 = jobs_[size_t(decision.starts[0].job - 1)].get();
    const auto *j1 = jobs_[size_t(decision.starts[1].job - 1)].get();
    EXPECT_NE(j0->spec().group, j1->spec().group);
}

class ElasticTest : public SchedFixture
{
};

TEST_F(ElasticTest, GrowsElasticJobUpToMax)
{
    auto *job = add_pending(
        {.gpus = 4, .iterations = 100000, .min_gpus = 2, .max_gpus = 16});
    ElasticScheduler elastic;
    const auto decision = elastic.schedule(ctx());
    ASSERT_EQ(decision.starts.size(), 1u);
    EXPECT_EQ(decision.starts[0].job, job->id());
    EXPECT_EQ(decision.starts[0].placement.total_gpus(), 16);
}

TEST_F(ElasticTest, SplitsPoolBetweenElasticJobs)
{
    auto *a = add_pending(
        {.gpus = 8, .iterations = 100000, .min_gpus = 2, .max_gpus = 16});
    auto *b = add_pending(
        {.gpus = 8, .iterations = 100000, .min_gpus = 2, .max_gpus = 16,
         .submit = now_ + 1_s});
    ElasticScheduler elastic;
    const auto decision = elastic.schedule(ctx());
    ASSERT_EQ(decision.starts.size(), 2u);
    int total = 0;
    for (const auto &s : decision.starts) {
        EXPECT_GE(s.placement.total_gpus(), 2);
        total += s.placement.total_gpus();
    }
    EXPECT_EQ(total, 16); // whole cluster used
    (void)a;
    (void)b;
}

TEST_F(ElasticTest, ResizesRunningElasticJob)
{
    // Running elastic job pinned small; cluster otherwise empty.
    auto *job = add_running(
        {.gpus = 2, .iterations = 100000, .min_gpus = 2, .max_gpus = 16},
        now_ + 10000_s);
    ElasticScheduler elastic;
    const auto decision = elastic.schedule(ctx());
    ASSERT_EQ(decision.preemptions.size(), 1u);
    EXPECT_EQ(decision.preemptions[0], job->id());
    ASSERT_EQ(decision.starts.size(), 1u);
    EXPECT_GT(decision.starts[0].placement.total_gpus(), 2);
}

TEST_F(ElasticTest, LeavesNonElasticAlone)
{
    auto *fixed = add_running({.gpus = 4}, now_ + 1000_s);
    auto *pending_fixed = add_pending({.gpus = 4});
    ElasticScheduler elastic;
    const auto decision = elastic.schedule(ctx());
    EXPECT_TRUE(decision.preemptions.empty());
    EXPECT_EQ(started(decision),
              (std::vector<cluster::JobId>{pending_fixed->id()}));
    (void)fixed;
}

class QuotaSchedTest : public SchedFixture
{
};

TEST_F(QuotaSchedTest, GroupQuotaLimitsConcurrentGpus)
{
    quota_.set_group_quota("g", 8);
    add_pending({.gpus = 8, .group = "g"});
    add_pending({.gpus = 8, .group = "g"});
    FifoScheduler fifo(false);
    const auto decision = fifo.schedule(ctx());
    EXPECT_EQ(decision.starts.size(), 1u);
}

TEST_F(QuotaSchedTest, QuotaCountsRunningJobs)
{
    quota_.set_group_quota("g", 8);
    add_running({.gpus = 8, .group = "g"}, now_ + 1000_s);
    add_pending({.gpus = 1, .group = "g"});
    auto *other = add_pending({.gpus = 1, .group = "other"});
    FifoScheduler fifo(false);
    const auto decision = fifo.schedule(ctx());
    EXPECT_EQ(started(decision),
              (std::vector<cluster::JobId>{other->id()}));
}

TEST(SchedulerFactory, BuildsEveryListedName)
{
    for (const auto &name : scheduler_names()) {
        auto sched = make_scheduler(name);
        ASSERT_NE(sched, nullptr) << name;
        EXPECT_EQ(sched->name().find("unknown"), std::string::npos);
    }
    EXPECT_EQ(make_scheduler("bogus"), nullptr);
}

TEST(SchedulerFactory, TickPeriods)
{
    EXPECT_TRUE(make_scheduler("fifo")->tick_period().is_zero());
    EXPECT_FALSE(make_scheduler("gang")->tick_period().is_zero());
    EXPECT_FALSE(make_scheduler("elastic")->tick_period().is_zero());
    EXPECT_FALSE(make_scheduler("las")->tick_period().is_zero());
}

} // namespace
} // namespace tacc::sched
