/**
 * @file
 * Unit tests for the stack's runtime estimate with prediction off (a
 * RuntimeModel built from a disabled PredictConfig) and its scheduler
 * integration.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/rng.h"
#include "predict/runtime_model.h"
#include "sched_fixture.h"
#include "workload/model.h"

namespace tacc::sched {
namespace {

using namespace time_literals;
using predict::PredictConfig;
using predict::RuntimeModel;

workload::Job
completed_job(cluster::JobId id, const std::string &user,
              const std::string &model, int64_t iterations,
              double iter_seconds, int gpus = 2,
              const std::string &group = "g")
{
    workload::TaskSpec spec;
    spec.name = "e" + std::to_string(id);
    spec.user = user;
    spec.group = group;
    spec.gpus = gpus;
    spec.model = model;
    spec.iterations = iterations;
    spec.time_limit = Duration::hours(100);
    auto profile = workload::ModelCatalog::instance().find(model);
    workload::Job job(id, spec, profile.value(), TimePoint::origin());
    EXPECT_TRUE(job.begin_provisioning(TimePoint::origin()).is_ok());
    EXPECT_TRUE(job.finish_provisioning(TimePoint::origin()).is_ok());
    EXPECT_TRUE(
        job.begin_segment(TimePoint::origin(), gpus, iter_seconds).is_ok());
    EXPECT_TRUE(job.complete(TimePoint::origin() +
                             Duration::from_seconds(double(iterations) *
                                                    iter_seconds))
                    .is_ok());
    return job;
}

/** The prediction-off estimate: a RuntimeModel from a default config. */
RuntimeModel
off_model()
{
    return RuntimeModel(PredictConfig{});
}

TEST(RuntimeEstimator, FallsBackToTimeLimitWithoutHistory)
{
    const RuntimeModel estimator = off_model();
    const auto job = completed_job(1, "alice", "resnet50", 100, 1.0);
    EXPECT_FALSE(estimator.has_history(job));
    EXPECT_EQ(estimator.predict(job), job.spec().time_limit);
}

TEST(RuntimeEstimator, LearnsPerIterationRate)
{
    RuntimeModel estimator = off_model();
    estimator.observe(completed_job(1, "alice", "resnet50", 1000, 2.0));
    const auto next = completed_job(2, "alice", "resnet50", 500, 2.0);
    ASSERT_TRUE(estimator.has_history(next));
    // 500 iterations x 2 s x the fixed 1.25 safety.
    EXPECT_NEAR(estimator.predict(next).to_seconds(), 1250.0, 1.0);
    EXPECT_EQ(estimator.model_observations(), 1u);
}

TEST(RuntimeEstimator, SafetyFactorApplied)
{
    RuntimeModel estimator = off_model();
    estimator.observe(completed_job(1, "alice", "resnet50", 1000, 2.0));
    const auto next = completed_job(2, "alice", "resnet50", 1000, 2.0);
    EXPECT_NEAR(estimator.predict(next).to_seconds(), 2500.0, 1.0);
}

TEST(RuntimeEstimator, PredictionCappedByTimeLimit)
{
    RuntimeModel estimator = off_model();
    estimator.observe(completed_job(1, "alice", "resnet50", 1000, 2.0));
    auto next = completed_job(2, "alice", "resnet50", 1'000'000, 2.0);
    // Prediction would be ~2.5e6 s; the limit (100 h) caps it.
    EXPECT_EQ(estimator.predict(next), Duration::hours(100));
}

TEST(RuntimeEstimator, KeysAreUserAndModel)
{
    RuntimeModel estimator = off_model();
    estimator.observe(completed_job(1, "alice", "resnet50", 1000, 2.0));
    const auto other_user =
        completed_job(2, "bob", "resnet50", 1000, 2.0);
    const auto other_model =
        completed_job(3, "alice", "vgg19", 1000, 2.0);
    const auto other_group =
        completed_job(4, "alice", "resnet50", 1000, 2.0, 2, "g2");
    EXPECT_FALSE(estimator.has_history(other_user));
    EXPECT_FALSE(estimator.has_history(other_model));
    EXPECT_TRUE(estimator.has_history(other_group));
    EXPECT_EQ(estimator.model_keys(), 1u);
}

TEST(RuntimeEstimator, EmaTracksDrift)
{
    RuntimeModel estimator = off_model();
    estimator.observe(completed_job(1, "alice", "resnet50", 100, 1.0));
    estimator.observe(completed_job(2, "alice", "resnet50", 100, 3.0));
    const auto next = completed_job(3, "alice", "resnet50", 100, 1.0);
    // EMA: 0.3*3 + 0.7*1 = 1.6 s/iter, x 100 iterations x 1.25.
    EXPECT_NEAR(estimator.predict(next).to_seconds(), 200.0, 0.5);
}

TEST(RuntimeEstimator, IgnoresNonCompletedJobs)
{
    RuntimeModel estimator = off_model();
    workload::TaskSpec spec;
    spec.name = "k";
    spec.user = "alice";
    spec.group = "g";
    spec.gpus = 1;
    spec.model = "resnet50";
    spec.iterations = 100;
    auto profile = workload::ModelCatalog::instance().find(spec.model);
    workload::Job job(9, spec, profile.value(), TimePoint::origin());
    ASSERT_TRUE(job.kill(TimePoint::origin()).is_ok());
    estimator.observe(job);
    EXPECT_EQ(estimator.model_observations(), 0u);
}

/**
 * The per-(user, model) EMA table the stack kept beside the runtime
 * model before a disabled model took its place, kept verbatim: a
 * disabled RuntimeModel must answer exactly as this does.
 */
class ReferenceEma
{
  public:
    void
    observe(const workload::Job &job)
    {
        if (job.state() != workload::JobState::kCompleted)
            return;
        if (job.iterations_done() <= 0 || job.spec().gpus <= 0)
            return;
        const double sample = job.gpu_seconds() /
                              double(job.spec().gpus) /
                              double(job.iterations_done());
        Entry &entry = entries_[key_of(job)];
        if (entry.count == 0)
            entry.per_iter_s = sample;
        else
            entry.per_iter_s =
                kAlpha * sample + (1.0 - kAlpha) * entry.per_iter_s;
        ++entry.count;
    }

    bool
    has_history(const workload::Job &job) const
    {
        auto it = entries_.find(key_of(job));
        return it != entries_.end() && it->second.count > 0;
    }

    Duration
    predict(const workload::Job &job) const
    {
        auto it = entries_.find(key_of(job));
        if (it == entries_.end() || it->second.count == 0)
            return job.spec().time_limit;
        const double predicted_s = it->second.per_iter_s *
                                   double(job.spec().iterations) * kSafety;
        return std::min(Duration::from_seconds(predicted_s),
                        job.spec().time_limit);
    }

    Duration
    predict_remaining(const workload::Job &job) const
    {
        const double frac =
            job.spec().iterations > 0
                ? double(job.iterations_remaining()) /
                      double(job.spec().iterations)
                : 0.0;
        return Duration::from_seconds(predict(job).to_seconds() *
                                      std::clamp(frac, 0.0, 1.0));
    }

  private:
    static constexpr double kSafety = 1.25;
    static constexpr double kAlpha = 0.3;

    struct Entry {
        double per_iter_s = 0;
        uint64_t count = 0;
    };

    static uint64_t
    key_of(const workload::Job &job)
    {
        return uint64_t(uint32_t(job.user_id())) << 32 |
               uint64_t(uint32_t(job.model_id()));
    }

    std::map<uint64_t, Entry> entries_;
};

/**
 * One random job of the reference stream: six users in two groups,
 * three models, per-(user, model) service rates with jitter, limits
 * from one minute to 100 h, and zero-iteration specs.
 * `outcome` 0 leaves it pending after a partial segment (a probe for
 * predict_remaining), 1 completes it (sometimes over two segments at
 * different GPU counts), 2 kills it mid-run.
 */
workload::Job
random_job(Rng &rng, cluster::JobId id, int outcome)
{
    static const char *const kModels[] = {"resnet50", "vgg19", "dlrm"};
    const int user = int(rng.uniform_int(0, 5));
    const int model = int(rng.uniform_int(0, 2));
    workload::TaskSpec spec;
    spec.name = "r" + std::to_string(id);
    spec.user = "ref-u" + std::to_string(user);
    spec.group = user < 3 ? "ref-gA" : "ref-gB";
    spec.model = kModels[model];
    spec.gpus = int(rng.uniform_int(1, 8));
    spec.iterations =
        rng.bernoulli(0.05) ? 0 : rng.uniform_int(1, 5000);
    // Log-uniform from 60 s to 100 h, so about half the limits cap.
    spec.time_limit = Duration::from_seconds(
        60.0 * std::exp(rng.uniform(0.0, std::log(6000.0))));
    auto profile = workload::ModelCatalog::instance().find(spec.model);
    workload::Job job(id, spec, profile.value(), TimePoint::origin());
    EXPECT_TRUE(job.begin_provisioning(TimePoint::origin()).is_ok());
    EXPECT_TRUE(job.finish_provisioning(TimePoint::origin()).is_ok());

    const double iter_s =
        (0.1 + 0.2 * user + 0.5 * model) * rng.uniform(0.8, 1.25);
    TimePoint t = TimePoint::origin();
    if (outcome != 1 || rng.bernoulli(0.3)) {
        // A partial segment: progress without finishing.
        EXPECT_TRUE(job.begin_segment(t, spec.gpus, iter_s).is_ok());
        t = t + Duration::from_seconds(
                    iter_s * double(spec.iterations) * rng.uniform());
        EXPECT_TRUE(job.preempt(t).is_ok());
    }
    if (outcome == 1) {
        const int gpus = int(rng.uniform_int(1, spec.gpus));
        EXPECT_TRUE(job.begin_segment(t, gpus, iter_s).is_ok());
        t = t + job.remaining_runtime(iter_s);
        EXPECT_TRUE(job.complete(t).is_ok());
    } else if (outcome == 2) {
        EXPECT_TRUE(job.kill(t).is_ok());
    }
    return job;
}

TEST(RuntimeEstimator, DisabledModelMatchesReferenceEma)
{
    // A disabled config ignores every knob but the switch, whatever
    // they hold.
    for (const auto mode :
         {predict::EstimatorMode::kLimit, predict::EstimatorMode::kEma,
          predict::EstimatorMode::kRegress}) {
        PredictConfig config;
        config.enabled = false;
        config.mode = mode;
        config.bias = 2.0;
        config.decay = 0.5;
        config.sample_floor = 2;
        config.safety_min = 1.5;
        config.safety_max = 3.0;
        for (uint64_t seed : {1u, 2u, 3u}) {
            Rng rng(seed);
            RuntimeModel model(config);
            ReferenceEma reference;
            cluster::JobId id = 1;
            size_t capped = 0, learned = 0;
            for (int step = 0; step < 400; ++step) {
                const double roll = rng.uniform();
                const auto done =
                    random_job(rng, id++, roll < 0.8 ? 1 : 2);
                model.observe(done);
                reference.observe(done);
                for (int probe = 0; probe < 3; ++probe) {
                    const auto job = random_job(rng, id++, 0);
                    ASSERT_EQ(model.has_history(job),
                              reference.has_history(job));
                    EXPECT_EQ(model.predict(job), reference.predict(job));
                    EXPECT_EQ(model.predict_remaining(job),
                              reference.predict_remaining(job));
                    if (reference.has_history(job)) {
                        const bool cap = reference.predict(job) ==
                                         job.spec().time_limit;
                        ++(cap ? capped : learned);
                    }
                }
            }
            // The streams exercise both sides of the limit cap.
            EXPECT_GT(capped, 100u);
            EXPECT_GT(learned, 100u);
        }
    }
}

class PredictiveSchedulers : public testing::SchedFixture
{
};

TEST_F(PredictiveSchedulers, SjfPredReordersByHistory)
{
    // Two 1-GPU jobs compete for one free GPU. By user limits, A looks
    // shorter; by learned history (same user+model rate, far fewer
    // iterations), B is actually shorter.
    add_running({.gpus = 15}, now_ + 1000_s);
    auto *a = add_pending({.gpus = 1, .time_limit = 1_h,
                           .iterations = 100000});
    auto *b = add_pending({.gpus = 1, .time_limit = 10_h, .group = "g",
                           .iterations = 10, .submit = now_ + 1_s});

    RuntimeModel estimator = off_model();
    // History: B's user+model pair completes at 0.001 s/iter.
    {
        workload::TaskSpec s = b->spec();
        s.name = "hist";
        auto profile =
            workload::ModelCatalog::instance().find(s.model);
        workload::Job hist(99, s, profile.value(), TimePoint::origin());
        EXPECT_TRUE(hist.begin_provisioning(TimePoint::origin()).is_ok());
        EXPECT_TRUE(hist.finish_provisioning(TimePoint::origin()).is_ok());
        EXPECT_TRUE(
            hist.begin_segment(TimePoint::origin(), 1, 0.001).is_ok());
        EXPECT_TRUE(hist.complete(TimePoint::origin() + 1_s).is_ok());
        estimator.observe(hist);
    }

    auto context = ctx();
    context.estimator = &estimator;

    SjfScheduler plain(false);
    EXPECT_EQ(started(plain.schedule(context)),
              (std::vector<cluster::JobId>{a->id()}));

    SjfScheduler predictive(true);
    EXPECT_EQ(started(predictive.schedule(context)),
              (std::vector<cluster::JobId>{b->id()}));
}

TEST_F(PredictiveSchedulers, BackfillPredAdmitsMoreWithTightBounds)
{
    // 4 GPUs free until a 12-GPU job releases at t+100 s; the head needs
    // 16. A 4-GPU candidate claims a 5000 s limit but history says its
    // jobs finish in ~50 s: plain backfill refuses, predictive admits.
    add_running({.gpus = 12}, now_ + 100_s);
    add_pending({.gpus = 16, .time_limit = 1000_s});
    auto *candidate = add_pending({.gpus = 4, .time_limit = 5000_s,
                                   .iterations = 50});

    RuntimeModel estimator = off_model();
    {
        workload::TaskSpec s = candidate->spec();
        s.name = "hist";
        auto profile =
            workload::ModelCatalog::instance().find(s.model);
        workload::Job hist(99, s, profile.value(), TimePoint::origin());
        EXPECT_TRUE(hist.begin_provisioning(TimePoint::origin()).is_ok());
        EXPECT_TRUE(hist.finish_provisioning(TimePoint::origin()).is_ok());
        EXPECT_TRUE(
            hist.begin_segment(TimePoint::origin(), 4, 1.0).is_ok());
        EXPECT_TRUE(hist.complete(TimePoint::origin() + 50_s).is_ok());
        estimator.observe(hist);
    }

    auto context = ctx();
    context.estimator = &estimator;

    BackfillScheduler plain(false, false);
    EXPECT_TRUE(plain.schedule(context).starts.empty());

    BackfillScheduler predictive(false, true);
    EXPECT_EQ(started(predictive.schedule(context)),
              (std::vector<cluster::JobId>{candidate->id()}));
}

} // namespace
} // namespace tacc::sched
