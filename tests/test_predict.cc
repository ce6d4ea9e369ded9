/**
 * @file
 * Prediction-layer tests: the decayed-regression runtime model (limit
 * cap, fallback chain, observation-order invariance, error quantiles),
 * the Holt load forecaster, the sweep estimator axis, the tune dims,
 * and the digest-identity contracts (prediction off == pre-prediction
 * baseline; prediction on deterministic across worker counts and
 * batch/streaming retention).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/config_io.h"
#include "driver/runner.h"
#include "driver/sweep.h"
#include "predict/forecast.h"
#include "predict/hub.h"
#include "predict/runtime_model.h"
#include "tune/param_space.h"
#include "workload/model.h"

namespace tacc::predict {
namespace {

using namespace time_literals;

workload::Job
completed_job(cluster::JobId id, const std::string &group,
              const std::string &model, int64_t iterations,
              double iter_seconds, int gpus = 2,
              Duration limit = Duration::hours(100))
{
    workload::TaskSpec spec;
    spec.name = "p" + std::to_string(id);
    spec.user = "alice";
    spec.group = group;
    spec.gpus = gpus;
    spec.model = model;
    spec.iterations = iterations;
    spec.time_limit = limit;
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

PredictConfig
regress_config()
{
    PredictConfig config;
    config.enabled = true;
    config.mode = EstimatorMode::kRegress;
    return config;
}

TEST(PredictConfig, ValidatesBounds)
{
    PredictConfig config = regress_config();
    EXPECT_TRUE(config.validate().is_ok());
    config.decay = 1.0;
    EXPECT_FALSE(config.validate().is_ok());
    config = regress_config();
    config.safety_min = 3.0; // above safety_max
    EXPECT_FALSE(config.validate().is_ok());
    config = regress_config();
    config.bias = 0.0;
    EXPECT_FALSE(config.validate().is_ok());
    config = regress_config();
    config.sample_floor = 0;
    EXPECT_FALSE(config.validate().is_ok());
}

TEST(PredictConfig, ModeNamesRoundTrip)
{
    for (auto mode : {EstimatorMode::kLimit, EstimatorMode::kEma,
                      EstimatorMode::kRegress}) {
        auto parsed = parse_estimator_mode(estimator_mode_name(mode));
        ASSERT_TRUE(parsed.is_ok());
        EXPECT_EQ(parsed.value(), mode);
    }
    EXPECT_FALSE(parse_estimator_mode("oracle").is_ok());
}

TEST(RuntimeModel, LimitModeIsInert)
{
    PredictConfig config = regress_config();
    config.mode = EstimatorMode::kLimit;
    RuntimeModel model(config);
    model.observe(completed_job(1, "g", "resnet50", 1000, 2.0));
    const auto next = completed_job(2, "g", "resnet50", 500, 2.0);
    EXPECT_FALSE(model.has_history(next));
    EXPECT_EQ(model.predict(next), next.spec().time_limit);
}

TEST(RuntimeModel, NeverExceedsLimitEvenUnderBias)
{
    PredictConfig config = regress_config();
    config.bias = 2.0; // systematic 2x over-prediction
    RuntimeModel model(config);
    for (int i = 0; i < 10; ++i)
        model.observe(completed_job(cluster::JobId(i + 1), "g",
                                    "resnet50", 1000, 2.0));
    // True runtime 2000 s; a 30 min limit must cap whatever the model
    // (raw * safety * 2x bias, far above the limit) wants to say.
    const auto tight = completed_job(99, "g", "resnet50", 1000, 2.0, 2,
                                     Duration::minutes(30));
    EXPECT_TRUE(model.has_history(tight));
    EXPECT_LE(model.predict(tight), Duration::minutes(30));
    EXPECT_LE(model.predict_remaining(tight), Duration::minutes(30));
}

TEST(RuntimeModel, EmaFallbackBelowSampleFloor)
{
    PredictConfig config = regress_config();
    config.sample_floor = 5;
    RuntimeModel model(config);
    model.observe(completed_job(1, "g", "resnet50", 1000, 2.0));
    // One sample < floor: EMA path, per-iter 2 s, empty error ring ->
    // safety clamps to safety_min (1.25).
    const auto next = completed_job(2, "g", "resnet50", 500, 2.0);
    EXPECT_NEAR(model.predict(next).to_seconds(), 500 * 2.0 * 1.25, 1.0);
}

TEST(RuntimeModel, RegressionLearnsGpuScaling)
{
    // Ground truth: per-iteration seconds = 2 + 0.5 * gpus, i.e. wall
    // = 2*iters + 0.5*iters*gpus — exactly the model's feature plane.
    PredictConfig config = regress_config();
    config.sample_floor = 3;
    config.decay = 0.05;
    RuntimeModel regress(config);
    config.mode = EstimatorMode::kEma;
    RuntimeModel ema(config);
    cluster::JobId id = 1;
    for (int64_t iters : {100, 200, 400, 800}) {
        for (int gpus : {1, 2, 4}) {
            const auto job =
                completed_job(id++, "g", "resnet50", iters,
                              2.0 + 0.5 * double(gpus), gpus);
            regress.observe(job);
            ema.observe(job);
        }
    }
    // An 8-GPU job at a scale never observed: truth is 6 s/iter. The
    // safety factor is the clamped p95 of the *online* error history
    // (early predictions came from partial fits), so divide out the
    // disclosed value to judge the converged fit itself.
    const auto big = completed_job(id, "g", "resnet50", 1000, 6.0, 8);
    const double truth = 6000.0;
    const double regress_safety =
        std::clamp(regress.key_p95(big), 1.25, 2.5);
    const double regress_raw =
        regress.predict(big).to_seconds() / regress_safety;
    const double ema_raw = ema.predict(big).to_seconds() / 1.25;
    EXPECT_NEAR(regress_raw, truth, 0.02 * truth);
    // The flat per-iteration EMA cannot extrapolate the comm term.
    EXPECT_GT(std::abs(ema_raw - truth), 0.15 * truth);
    EXPECT_LT(std::abs(regress_raw - truth), std::abs(ema_raw - truth));
}

TEST(RuntimeModel, ObservationOrderIrrelevantAtZeroDecay)
{
    // With decay 0 the sufficient statistics are plain sums; with
    // exactly representable samples (powers of two) the float folds are
    // exact, so any permutation yields the identical fit. Only the
    // confidence ring is path-dependent (it measures the *online* error
    // sequence, by design), so divide the clamped safety back out and
    // compare the underlying regression output.
    PredictConfig config = regress_config();
    config.decay = 0.0;
    config.sample_floor = 1;
    std::vector<std::pair<int64_t, int>> samples = {
        {128, 1}, {256, 2}, {512, 4}, {1024, 8}, {64, 2}, {32, 4}};
    auto feed = [&](const std::vector<std::pair<int64_t, int>> &order) {
        RuntimeModel model(config);
        cluster::JobId id = 1;
        for (const auto &[iters, gpus] : order)
            model.observe(
                completed_job(id++, "g", "resnet50", iters, 2.0, gpus));
        return model;
    };
    const RuntimeModel forward = feed(samples);
    std::vector<std::pair<int64_t, int>> reversed(samples.rbegin(),
                                                  samples.rend());
    const RuntimeModel backward = feed(reversed);
    for (int64_t iters : {100, 1000, 5000}) {
        const auto probe =
            completed_job(99, "g", "resnet50", iters, 2.0, 4);
        const double fwd =
            forward.predict(probe).to_seconds() /
            std::clamp(forward.key_p95(probe), 1.25, 2.5);
        const double bwd =
            backward.predict(probe).to_seconds() /
            std::clamp(backward.key_p95(probe), 1.25, 2.5);
        EXPECT_NEAR(fwd, bwd, 1e-5 * fwd) << "iters=" << iters;
    }
}

TEST(RuntimeModel, KeysAreGroupAndModel)
{
    RuntimeModel model(regress_config());
    model.observe(completed_job(1, "groupA", "resnet50", 1000, 2.0));
    EXPECT_TRUE(
        model.has_history(completed_job(2, "groupA", "resnet50", 10, 1.0)));
    EXPECT_FALSE(
        model.has_history(completed_job(3, "groupB", "resnet50", 10, 1.0)));
    EXPECT_FALSE(
        model.has_history(completed_job(4, "groupA", "vgg19", 10, 1.0)));
    EXPECT_EQ(model.model_keys(), 1u);
}

/**
 * The runtime model as it was before it cached its solve at observe():
 * every prediction solves the key's normal equations and clamps its p95
 * again. It also counts, in regress mode at or past the sample floor,
 * the solves that failed and the keys whose solve went from failing to
 * succeeding, so the stream can show it covered both.
 */
class ReferenceModel
{
  public:
    explicit ReferenceModel(const PredictConfig &config) : config_(config)
    {
        config_.decay = std::clamp(config_.decay, 0.0, 0.999);
        config_.sample_floor = std::max(1, config_.sample_floor);
        config_.safety_min = std::max(1.0, config_.safety_min);
        config_.safety_max = std::max(config_.safety_min, config_.safety_max);
        if (!(config_.bias > 0))
            config_.bias = 1.0;
    }

    void
    observe(const workload::Job &job)
    {
        if (job.state() != workload::JobState::kCompleted ||
            job.iterations_done() <= 0 || job.spec().gpus <= 0)
            return;
        const double per_iter = job.gpu_seconds() /
                                double(job.spec().gpus) /
                                double(job.iterations_done());
        Key &key = keys_[key_of(job)];
        if (config_.enabled) {
            const double iters = double(job.iterations_done());
            const double x2 = iters * double(job.spec().gpus);
            const double y = per_iter * iters;
            const double prior = raw_s(key, job, job.iterations_done());
            if (prior > 0)
                key.errors.observe(y / prior);
            const double keep = 1.0 - config_.decay;
            for (double &v : key.xtx)
                v *= keep;
            for (double &v : key.xty)
                v *= keep;
            key.xtx[0] += 1.0;
            key.xtx[1] += iters;
            key.xtx[2] += x2;
            key.xtx[3] += iters * iters;
            key.xtx[4] += iters * x2;
            key.xtx[5] += x2 * x2;
            key.xty[0] += y;
            key.xty[1] += y * iters;
            key.xty[2] += y * x2;
        }
        key.ema = key.count == 0 ? per_iter : 0.3 * per_iter + 0.7 * key.ema;
        ++key.count;
    }

    bool has_history(const workload::Job &job) const
    {
        return history(job) != nullptr;
    }

    Duration
    predict(const workload::Job &job) const
    {
        const Key *key = history(job);
        if (key == nullptr)
            return job.spec().time_limit;
        if (!config_.enabled) {
            return std::min(Duration::from_seconds(
                                key->ema * double(job.spec().iterations) *
                                1.25),
                            job.spec().time_limit);
        }
        const double raw = raw_s(*key, job, job.spec().iterations);
        if (raw <= 0)
            return job.spec().time_limit;
        return std::min(
            Duration::from_seconds(raw * safety(*key) * config_.bias),
            job.spec().time_limit);
    }

    Duration
    predict_remaining(const workload::Job &job) const
    {
        const Key *key = history(job);
        if (key == nullptr || !config_.enabled) {
            const double frac =
                job.spec().iterations > 0
                    ? double(job.iterations_remaining()) /
                          double(job.spec().iterations)
                    : 0.0;
            return Duration::from_seconds(predict(job).to_seconds() *
                                          std::clamp(frac, 0.0, 1.0));
        }
        const double raw = raw_s(*key, job, job.iterations_remaining());
        if (raw <= 0)
            return Duration::zero();
        return std::min(
            Duration::from_seconds(raw * safety(*key) * config_.bias),
            job.spec().time_limit);
    }

    double
    key_p50(const workload::Job &job) const
    {
        auto it = keys_.find(key_of(job));
        return it == keys_.end() ? 1.0 : it->second.errors.p50();
    }

    double
    key_p95(const workload::Job &job) const
    {
        auto it = keys_.find(key_of(job));
        return it == keys_.end() ? 1.0 : it->second.errors.p95();
    }

    mutable uint64_t solve_failures = 0;
    mutable uint64_t solve_recoveries = 0;

  private:
    struct Key {
        double xtx[6] = {0, 0, 0, 0, 0, 0};
        double xty[3] = {0, 0, 0};
        double ema = 0;
        uint64_t count = 0;
        ErrorQuantiles errors;
        /** -1 before the first solve, else whether the last one worked. */
        mutable int last_solve = -1;
    };

    uint64_t
    key_of(const workload::Job &job) const
    {
        const int owner = config_.enabled ? job.group_id() : job.user_id();
        return uint64_t(uint32_t(owner)) << 32 |
               uint64_t(uint32_t(job.model_id()));
    }

    const Key *
    history(const workload::Job &job) const
    {
        if (config_.enabled && config_.mode == EstimatorMode::kLimit)
            return nullptr;
        auto it = keys_.find(key_of(job));
        return it != keys_.end() && it->second.count > 0 ? &it->second
                                                         : nullptr;
    }

    double
    safety(const Key &key) const
    {
        return config_.mode == EstimatorMode::kRegress
                   ? std::clamp(key.errors.p95(), config_.safety_min,
                                config_.safety_max)
                   : 1.25;
    }

    static bool
    solve(const Key &key, double coeff[3])
    {
        const double trace = key.xtx[0] + key.xtx[3] + key.xtx[5];
        const double ridge = 1e-8 * trace + 1e-12;
        const double a = key.xtx[0] + ridge;
        const double b = key.xtx[1];
        const double c = key.xtx[2];
        const double d = key.xtx[3] + ridge;
        const double e = key.xtx[4];
        const double f = key.xtx[5] + ridge;
        const double det = a * (d * f - e * e) - b * (b * f - c * e) +
                           c * (b * e - c * d);
        if (!std::isfinite(det) || std::abs(det) <= 1e-12 * (trace + 1.0))
            return false;
        const double y0 = key.xty[0];
        const double y1 = key.xty[1];
        const double y2 = key.xty[2];
        coeff[0] = (y0 * (d * f - e * e) - b * (y1 * f - y2 * e) +
                    c * (y1 * e - y2 * d)) /
                   det;
        coeff[1] = (a * (y1 * f - y2 * e) - y0 * (b * f - c * e) +
                    c * (b * y2 - c * y1)) /
                   det;
        coeff[2] = (a * (d * y2 - e * y1) - b * (b * y2 - c * y1) +
                    y0 * (b * e - c * d)) /
                   det;
        return std::isfinite(coeff[0]) && std::isfinite(coeff[1]) &&
               std::isfinite(coeff[2]);
    }

    double
    raw_s(const Key &key, const workload::Job &job, int64_t iterations) const
    {
        if (key.count == 0 || iterations <= 0)
            return -1.0;
        const double iters = double(iterations);
        if (config_.mode == EstimatorMode::kRegress &&
            key.count >= uint64_t(config_.sample_floor)) {
            double coeff[3];
            const bool ok = solve(key, coeff);
            solve_failures += !ok;
            solve_recoveries += ok && key.last_solve == 0;
            key.last_solve = ok;
            if (ok) {
                const double pred =
                    coeff[0] + coeff[1] * iters +
                    coeff[2] * iters * double(job.spec().gpus);
                if (std::isfinite(pred) && pred > 0)
                    return pred;
            }
        }
        return key.ema * iters;
    }

    PredictConfig config_;
    std::unordered_map<uint64_t, Key> keys_;
};

/**
 * One job of the cache test's stream, on one of six (group, model)
 * keys with users spread across groups. Group "gC" starts as a
 * degenerate key, every job 2 iterations on 1 GPU (one point, so the
 * solve fails until enough weight piles up, and always at high decay),
 * and turns into a well-spread key once `spread`. Group "gB" is
 * collinear: one GPU count. `complete` finishes the job (an
 * observation); otherwise it is left pending after a partial segment,
 * a probe for predict_remaining.
 */
workload::Job
stream_job(Rng &rng, cluster::JobId id, bool complete, bool spread)
{
    static const char *const kGroups[] = {"gA", "gB", "gC"};
    static const char *const kModels[] = {"resnet50", "vgg19"};
    const int group = int(rng.uniform_int(0, 2));
    workload::TaskSpec spec;
    spec.name = "c" + std::to_string(id);
    spec.user = "u" + std::to_string(rng.uniform_int(0, 3));
    spec.group = kGroups[group];
    spec.model = kModels[rng.uniform_int(0, 1)];
    spec.gpus = group == 1 ? 4 : int(rng.uniform_int(1, 8));
    spec.iterations = rng.uniform_int(1, 4000);
    if (group == 2 && !spread) {
        spec.gpus = 1;
        spec.iterations = 2;
    }
    spec.time_limit = Duration::from_seconds(
        60.0 * std::exp(rng.uniform(0.0, std::log(3000.0))));
    auto profile = workload::ModelCatalog::instance().find(spec.model);
    workload::Job job(id, spec, profile.value(), TimePoint::origin());
    EXPECT_TRUE(job.begin_provisioning(TimePoint::origin()).is_ok());
    EXPECT_TRUE(job.finish_provisioning(TimePoint::origin()).is_ok());
    const double iter_s = (0.2 + 0.3 * group + 0.05 * spec.gpus) *
                          rng.uniform(0.7, 1.4);
    EXPECT_TRUE(
        job.begin_segment(TimePoint::origin(), spec.gpus, iter_s).is_ok());
    if (complete) {
        EXPECT_TRUE(
            job.complete(TimePoint::origin() +
                         job.remaining_runtime(iter_s))
                .is_ok());
    } else {
        EXPECT_TRUE(job.preempt(TimePoint::origin() +
                                Duration::from_seconds(
                                    iter_s * double(spec.iterations) *
                                    rng.uniform()))
                        .is_ok());
    }
    return job;
}

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

TEST(RuntimeModel, CachedSolveMatchesPerCallReference)
{
    struct Case {
        bool enabled;
        EstimatorMode mode;
        double decay;
        int floor;
        double bias;
        double safety_max;
    };
    const Case cases[] = {
        {false, EstimatorMode::kRegress, 0.5, 2, 2.0, 2.5},
        {true, EstimatorMode::kLimit, 0.0, 1, 1.0, 2.5},
        {true, EstimatorMode::kEma, 0.0, 3, 1.5, 2.5},
        {true, EstimatorMode::kRegress, 0.0, 1, 1.0, 2.5},
        {true, EstimatorMode::kRegress, 0.0, 8, 0.7, 1.5},
        {true, EstimatorMode::kRegress, 0.999, 3, 1.0, 2.5},
        {true, EstimatorMode::kRegress, 0.999, 1, 2.0, 4.0},
    };
    uint64_t failures = 0, recoveries = 0;
    for (const Case &c : cases) {
        PredictConfig config;
        config.enabled = c.enabled;
        config.mode = c.mode;
        config.decay = c.decay;
        config.sample_floor = c.floor;
        config.bias = c.bias;
        config.safety_max = c.safety_max;
        for (uint64_t seed : {1u, 2u}) {
            Rng rng(seed);
            RuntimeModel model(config);
            ReferenceModel reference(config);
            cluster::JobId id = 1;
            for (int step = 0; step < 600; ++step) {
                const bool spread = step >= 300;
                const auto done = stream_job(rng, id++, true, spread);
                model.observe(done);
                reference.observe(done);
                for (int probe = 0; probe < 4; ++probe) {
                    const auto job = stream_job(rng, id++, false, spread);
                    ASSERT_EQ(model.has_history(job),
                              reference.has_history(job));
                    ASSERT_EQ(model.predict(job), reference.predict(job))
                        << "step " << step;
                    ASSERT_EQ(model.predict_remaining(job),
                              reference.predict_remaining(job))
                        << "step " << step;
                    ASSERT_EQ(bits(model.key_p50(job)),
                              bits(reference.key_p50(job)));
                    ASSERT_EQ(bits(model.key_p95(job)),
                              bits(reference.key_p95(job)));
                }
            }
            failures += reference.solve_failures;
            recoveries += reference.solve_recoveries;
        }
    }
    // The streams reach both sides of a failing solve.
    EXPECT_GT(failures, 0u);
    EXPECT_GT(recoveries, 0u);
}

TEST(ErrorQuantiles, ScaleEquivariantAndOrdered)
{
    ErrorQuantiles plain, inflated;
    const std::vector<double> ratios = {0.5, 0.75, 1.0, 1.1,  1.3,
                                        0.9, 2.0,  1.7, 0.95, 1.05};
    for (double r : ratios) {
        plain.observe(r);
        inflated.observe(2.0 * r);
    }
    EXPECT_LE(plain.p50(), plain.p95());
    // Inflating every ratio by k scales both quantiles by exactly k
    // (nearest-rank on the sorted ring) — monotone under inflation.
    EXPECT_DOUBLE_EQ(inflated.p50(), 2.0 * plain.p50());
    EXPECT_DOUBLE_EQ(inflated.p95(), 2.0 * plain.p95());
    // Negative / zero / NaN ratios are dropped, not folded.
    ErrorQuantiles guarded;
    guarded.observe(-1.0);
    guarded.observe(0.0);
    EXPECT_EQ(guarded.samples(), 0u);
    EXPECT_DOUBLE_EQ(guarded.p95(), 1.0);
}

TEST(ErrorQuantiles, RingBoundsMemory)
{
    ErrorQuantiles q;
    for (int i = 0; i < 1000; ++i)
        q.observe(1.0 + double(i % 7) * 0.1);
    EXPECT_EQ(q.samples(), ErrorQuantiles::kCapacity);
}

TEST(ErrorQuantiles, MatchSortedRing)
{
    // Reference: sort the last kCapacity accepted ratios on every read.
    ErrorQuantiles q;
    std::vector<double> ring;
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        // Coarse values, so the ring holds many duplicates.
        const double r = rng.bernoulli(0.05)
                             ? -1.0
                             : 0.25 * double(rng.uniform_int(1, 12));
        q.observe(r);
        if (r > 0)
            ring.push_back(r);
        if (ring.size() > ErrorQuantiles::kCapacity)
            ring.erase(ring.begin());
        std::vector<double> sorted = ring;
        std::sort(sorted.begin(), sorted.end());
        auto at = [&](double frac) {
            return sorted[std::min(sorted.size() - 1,
                                   size_t(frac * double(sorted.size())))];
        };
        if (sorted.empty()) {
            EXPECT_EQ(q.p95(), 1.0);
            continue;
        }
        EXPECT_EQ(q.p50(), at(0.50)) << "after " << i;
        EXPECT_EQ(q.p95(), at(0.95)) << "after " << i;
    }
}

TEST(HoltSeries, FallsBackUntilTwoObservations)
{
    HoltSeries series(0.5, 0.2);
    EXPECT_DOUBLE_EQ(series.forecast(1, 42.0), 42.0);
    series.observe(10.0);
    EXPECT_DOUBLE_EQ(series.forecast(1, 42.0), 42.0);
    series.observe(12.0);
    EXPECT_NE(series.forecast(1, 42.0), 42.0);
}

TEST(HoltSeries, TracksRampAboveLastSample)
{
    // A steady ramp must forecast above the most recent measurement:
    // that is the whole point of carrying a trend term.
    HoltSeries series(0.5, 0.2);
    double last = 0;
    for (int i = 1; i <= 20; ++i) {
        last = 10.0 * i;
        series.observe(last);
    }
    EXPECT_GT(series.forecast(1, 0.0), series.level());
    EXPECT_GT(series.trend(), 0.0);
    // And it is a pure fold: same inputs, same outputs.
    HoltSeries replay(0.5, 0.2);
    for (int i = 1; i <= 20; ++i)
        replay.observe(10.0 * i);
    EXPECT_DOUBLE_EQ(series.forecast(3, 0.0), replay.forecast(3, 0.0));
    // Forecasts never go negative on a falling series.
    HoltSeries falling(0.9, 0.9);
    for (int i = 0; i < 10; ++i)
        falling.observe(100.0 - 30.0 * i);
    EXPECT_GE(falling.forecast(5, 0.0), 0.0);
}

TEST(PredictionHub, ForecastServeRateWarmsUp)
{
    PredictConfig config = regress_config();
    PredictionHub hub(config);
    // First sample: fallback (the measurement itself).
    EXPECT_DOUBLE_EQ(hub.forecast_serve_rate(10.0), 10.0);
    // A sustained ramp: once the trend term converges, the plan-ahead
    // rate must exceed the latest measurement — capacity lands when the
    // load does instead of one period late.
    double f = 0, last = 0;
    for (int i = 2; i <= 40; ++i) {
        last = 5.0 * i;
        f = hub.forecast_serve_rate(last);
    }
    EXPECT_GT(f, last);
}

TEST(PredictTune, DimsRegisteredWithIdempotentClamp)
{
    auto space = tune::ParamSpace::subset(
        {"predict.decay", "predict.sample_floor", "predict.safety_min",
         "predict.safety_max"});
    ASSERT_TRUE(space.is_ok()) << space.status().str();
    const auto &dims = space.value();
    // Clamp idempotence: clamp(clamp(v)) == clamp(v) across a spread of
    // raw values, including the integer dim's rounding path.
    for (double raw : {-10.0, 0.0, 0.333, 1.49, 7.7, 1e6}) {
        std::vector<double> v(4, raw);
        const auto once = dims.clamp(v);
        EXPECT_EQ(dims.clamp(once), once) << "raw=" << raw;
    }
    // Round trip through a StackConfig lands inside validate()'s space.
    core::StackConfig config;
    config.predict.enabled = true;
    dims.apply({0.2, 8.0, 1.1, 2.0}, &config);
    EXPECT_DOUBLE_EQ(config.predict.decay, 0.2);
    EXPECT_EQ(config.predict.sample_floor, 8);
    EXPECT_TRUE(config.predict.validate().is_ok());
}

TEST(PredictConfigIo, RendersOnlyWhenEnabledAndRoundTrips)
{
    core::StackConfig off;
    EXPECT_EQ(core::stack_config_to_text(off).find("predict"),
              std::string::npos);

    core::StackConfig on;
    on.predict.enabled = true;
    on.predict.mode = EstimatorMode::kEma;
    on.predict.decay = 0.125;
    on.predict.sample_floor = 7;
    on.predict.safety_min = 1.1;
    on.predict.safety_max = 3.0;
    on.predict.bias = 2.0;
    on.predict.forecast_alpha = 0.25;
    on.predict.forecast_beta = 0.5;
    auto parsed = core::parse_stack_config(core::stack_config_to_text(on));
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().str();
    const auto &p = parsed.value().predict;
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.mode, EstimatorMode::kEma);
    EXPECT_DOUBLE_EQ(p.decay, 0.125);
    EXPECT_EQ(p.sample_floor, 7);
    EXPECT_DOUBLE_EQ(p.safety_min, 1.1);
    EXPECT_DOUBLE_EQ(p.safety_max, 3.0);
    EXPECT_DOUBLE_EQ(p.bias, 2.0);
    EXPECT_DOUBLE_EQ(p.forecast_alpha, 0.25);
    EXPECT_DOUBLE_EQ(p.forecast_beta, 0.5);
}

/** A grid small enough to simulate inside a unit test, long enough
 *  that completions interleave with scheduling (predictions bite). */
driver::SweepSpec
predict_spec()
{
    driver::SweepSpec spec;
    spec.schedulers = {"backfill-easy"};
    spec.placements = {"topology"};
    spec.preempt_modes = {"graceful"};
    spec.loads = {1.6};
    spec.seeds = {1};
    spec.base.trace.num_jobs = 60;
    spec.base.trace.mean_interarrival_s = 60.0;
    spec.base.stack.cluster.topology.racks = 2;
    spec.base.stack.cluster.topology.nodes_per_rack = 4;
    spec.base.stack.emit_monitor_logs = false;
    return spec;
}

TEST(PredictSweep, ParsesAxesAndRejectsBadValues)
{
    auto parsed = driver::parse_sweep_spec(
        "estimator_modes: limit,ema,regress\nmispredict_bias: 0.5,1,2\n");
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().str();
    EXPECT_EQ(parsed.value().estimator_modes,
              (std::vector<std::string>{"limit", "ema", "regress"}));
    EXPECT_EQ(parsed.value().mispredict_bias,
              (std::vector<double>{0.5, 1.0, 2.0}));
    // limit collapses regardless of the bias list: 1 + 2*3 points.
    EXPECT_EQ(parsed.value().predict_point_count(), 7u);
    EXPECT_FALSE(driver::parse_sweep_spec("estimator_modes: oracle\n")
                     .is_ok());
    EXPECT_FALSE(driver::parse_sweep_spec("mispredict_bias: 0\n").is_ok());
    EXPECT_FALSE(driver::parse_sweep_spec("mispredict_bias: -1\n").is_ok());
}

TEST(PredictSweep, ExpansionNamesAndCollapse)
{
    driver::SweepSpec spec = predict_spec();
    spec.estimator_modes = {"limit", "ema", "regress"};
    spec.mispredict_bias = {0.5, 1.0, 2.0};
    auto scenarios = driver::expand_sweep(spec);
    ASSERT_EQ(scenarios.size(), 7u);
    // The prediction-off point is first and unsuffixed: pre-existing
    // grids survive as a prefix of the expansion.
    EXPECT_EQ(scenarios[0].name, "backfill-easy/topology/graceful/x1.6/s1");
    EXPECT_FALSE(scenarios[0].config.stack.predict.enabled);
    EXPECT_EQ(scenarios[1].name,
              "backfill-easy/topology/graceful/x1.6/s1+est-ema-x0.5");
    EXPECT_EQ(scenarios[2].name,
              "backfill-easy/topology/graceful/x1.6/s1+est-ema");
    EXPECT_EQ(scenarios[3].name,
              "backfill-easy/topology/graceful/x1.6/s1+est-ema-x2");
    EXPECT_EQ(scenarios[6].name,
              "backfill-easy/topology/graceful/x1.6/s1+est-regress-x2");
    EXPECT_TRUE(scenarios[6].config.stack.predict.enabled);
    EXPECT_EQ(scenarios[6].config.stack.predict.mode,
              EstimatorMode::kRegress);
    EXPECT_DOUBLE_EQ(scenarios[6].config.stack.predict.bias, 2.0);
}

TEST(PredictSweep, LimitModeDigestsIdenticalToBaseline)
{
    // The integration form of "off is off": a sweep whose estimator
    // axis is the default (limit only) must render byte-identical
    // digests to the same sweep before the prediction layer existed.
    const driver::SweepSpec baseline = predict_spec();
    driver::SweepSpec limit_axis = predict_spec();
    limit_axis.estimator_modes = {"limit"};
    limit_axis.mispredict_bias = {0.5, 1.0, 2.0};
    const auto base_run = driver::run_sweep(baseline, 1);
    const auto limit_run = driver::run_sweep(limit_axis, 1);
    EXPECT_EQ(driver::digests_text(base_run),
              driver::digests_text(limit_run));
}

TEST(PredictSweep, PredictionChangesOutcomesDeterministically)
{
    driver::SweepSpec spec = predict_spec();
    // Sensitivity needs completions interleaved with arrivals (same
    // rationale as ci_sweep_predict.spec): at 60 jobs the trace
    // schedules before the model has history and the axis is inert.
    spec.base.trace.num_jobs = 160;
    spec.estimator_modes = {"limit", "regress"};
    const auto serial = driver::run_sweep(spec, 1);
    const auto parallel = driver::run_sweep(spec, 4);
    ASSERT_EQ(serial.runs.size(), 2u);
    // Worker count is throughput, never semantics — with predictions on.
    EXPECT_EQ(driver::digests_text(serial), driver::digests_text(parallel));
    // And the axis is not inert at this scale: the authoritative model
    // must actually change scheduling outcomes.
    EXPECT_NE(serial.runs[0].digest, serial.runs[1].digest);
}

TEST(PredictSweep, BatchAndStreamingDigestsAgree)
{
    driver::SweepSpec spec = predict_spec();
    spec.estimator_modes = {"regress"};
    driver::SweepSpec streaming = spec;
    streaming.base.streaming = true;
    const auto batch_run = driver::run_sweep(spec, 2);
    const auto stream_run = driver::run_sweep(streaming, 2);
    EXPECT_EQ(driver::digests_text(batch_run),
              driver::digests_text(stream_run));
}

} // namespace
} // namespace tacc::predict
