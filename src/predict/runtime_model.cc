#include "predict/runtime_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tacc::predict {

namespace {

/** Fixed safety of the EMA estimate. */
constexpr double kEmaSafety = 1.25;

/** Per-iteration service-time sample a completed job contributes, or
 *  < 0 when the job carries no usable signal. */
double
sample_of(const workload::Job &job)
{
    if (job.state() != workload::JobState::kCompleted)
        return -1.0;
    if (job.iterations_done() <= 0 || job.spec().gpus <= 0)
        return -1.0;
    // Realized wall service per iteration at the job's requested scale:
    // GPU-seconds normalizes away elastic resizes and retries.
    return job.gpu_seconds() / double(job.spec().gpus) /
           double(job.iterations_done());
}

} // namespace

void
ErrorQuantiles::observe(double ratio)
{
    if (!(ratio > 0) || !std::isfinite(ratio))
        return;
    if (ring_.size() < kCapacity) {
        ring_.push_back(ratio);
    } else {
        // Ratios are finite and positive, so equal values are identical
        // and any copy of the evicted one may go.
        sorted_.erase(
            std::lower_bound(sorted_.begin(), sorted_.end(), ring_[next_]));
        ring_[next_] = ratio;
        next_ = (next_ + 1) % kCapacity;
    }
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), ratio),
                   ratio);
}

double
ErrorQuantiles::quantile(double q) const
{
    if (sorted_.empty())
        return 1.0;
    const size_t idx =
        std::min(sorted_.size() - 1, size_t(q * double(sorted_.size())));
    return sorted_[idx];
}

RuntimeModel::RuntimeModel(const PredictConfig &config) : config_(config)
{
    // Defensive ordering/clamping: the tune search mutates dims
    // independently, so a mid-search config may carry min > max or an
    // out-of-range decay; the model orders them instead of asserting.
    config_.decay = std::clamp(config_.decay, 0.0, 0.999);
    config_.sample_floor = std::max(1, config_.sample_floor);
    config_.safety_min = std::max(1.0, config_.safety_min);
    config_.safety_max = std::max(config_.safety_min, config_.safety_max);
    if (!(config_.bias > 0))
        config_.bias = 1.0;
}

const RuntimeModel::KeyState *
RuntimeModel::find(const workload::Job &job) const
{
    auto it = keys_.find(key_of(job));
    return it == keys_.end() ? nullptr : &it->second;
}

bool
RuntimeModel::solve(const KeyState &state, double coeff[3])
{
    // Upper triangle of the decayed moment matrix:
    //   [ a b c ]
    //   [ b d e ]
    //   [ c e f ]
    // Ridge on the diagonal keeps collinear keys (every job at the same
    // GPU count) solvable; the shrinkage is negligible elsewhere.
    const double trace = state.xtx[0] + state.xtx[3] + state.xtx[5];
    const double ridge = 1e-8 * trace + 1e-12;
    const double a = state.xtx[0] + ridge;
    const double b = state.xtx[1];
    const double c = state.xtx[2];
    const double d = state.xtx[3] + ridge;
    const double e = state.xtx[4];
    const double f = state.xtx[5] + ridge;

    const double det = a * (d * f - e * e) - b * (b * f - c * e) +
                       c * (b * e - c * d);
    if (!std::isfinite(det) || std::abs(det) <= 1e-12 * (trace + 1.0))
        return false;

    const double y0 = state.xty[0];
    const double y1 = state.xty[1];
    const double y2 = state.xty[2];
    // Cramer's rule on the symmetric system.
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
RuntimeModel::raw_predict_s(const KeyState &state,
                            const workload::Job &job, int64_t iterations)
{
    if (state.count == 0 || iterations <= 0)
        return -1.0;
    const double iters = double(iterations);
    if (state.solved) {
        // Features (1, iters, iters*gpus): the interaction term lets the
        // fit learn how per-iteration time stretches with scale
        // (communication), which a flat per-iteration average cannot.
        const double pred = state.coeff[0] + state.coeff[1] * iters +
                            state.coeff[2] * iters *
                                double(job.spec().gpus);
        if (std::isfinite(pred) && pred > 0)
            return pred;
    }
    return state.ema_per_iter_s * iters;
}

Duration
RuntimeModel::padded(const KeyState &state, const workload::Job &job,
                     double raw) const
{
    return std::min(
        Duration::from_seconds(raw * state.safety * config_.bias),
        job.spec().time_limit);
}

void
RuntimeModel::fold_regression(KeyState &state, const workload::Job &job,
                              double per_iter) const
{
    const double iters = double(job.iterations_done());
    const double gpus = double(job.spec().gpus);
    const double y = per_iter * iters; // wall service seconds

    // Error tracking first: the ratio must compare the actual outcome
    // against what the model would have predicted *before* seeing it
    // (raw model output — no safety, no bias — so the safety factor
    // derived from these quantiles measures model error, not itself).
    // The state still holds the previous observation's solve.
    const double prior = raw_predict_s(state, job, job.iterations_done());
    if (prior > 0)
        state.errors.observe(y / prior);

    // Decay old evidence, then fold the new sample at weight 1.
    const double keep = 1.0 - config_.decay;
    for (double &v : state.xtx)
        v *= keep;
    for (double &v : state.xty)
        v *= keep;
    const double x1 = iters;
    const double x2 = iters * gpus;
    state.xtx[0] += 1.0;
    state.xtx[1] += x1;
    state.xtx[2] += x2;
    state.xtx[3] += x1 * x1;
    state.xtx[4] += x1 * x2;
    state.xtx[5] += x2 * x2;
    state.xty[0] += y;
    state.xty[1] += y * x1;
    state.xty[2] += y * x2;
}

void
RuntimeModel::observe(const workload::Job &job)
{
    const double per_iter = sample_of(job);
    if (per_iter < 0)
        return;
    auto &state = keys_[key_of(job)];
    if (config_.enabled)
        fold_regression(state, job, per_iter);
    if (state.count == 0)
        state.ema_per_iter_s = per_iter;
    else
        state.ema_per_iter_s =
            0.3 * per_iter + 0.7 * state.ema_per_iter_s;
    ++state.count;
    ++observations_;
    if (!config_.enabled)
        return;
    const bool regress = config_.mode == EstimatorMode::kRegress;
    state.solved = regress &&
                   state.count >= uint64_t(config_.sample_floor) &&
                   solve(state, state.coeff);
    state.safety = regress ? std::clamp(state.errors.p95(),
                                        config_.safety_min,
                                        config_.safety_max)
                           : kEmaSafety;
}

const RuntimeModel::KeyState *
RuntimeModel::history(const workload::Job &job) const
{
    if (config_.enabled && config_.mode == EstimatorMode::kLimit)
        return nullptr;
    const KeyState *state = find(job);
    return state != nullptr && state->count > 0 ? state : nullptr;
}

bool
RuntimeModel::has_history(const workload::Job &job) const
{
    return history(job) != nullptr;
}

Duration
RuntimeModel::predict(const workload::Job &job) const
{
    const Duration limit = job.spec().time_limit;
    const KeyState *state = history(job);
    if (state == nullptr)
        return limit;
    if (!config_.enabled) {
        // Prediction off: the EMA at the fixed safety, no bias.
        return std::min(
            Duration::from_seconds(state->ema_per_iter_s *
                                   double(job.spec().iterations) *
                                   kEmaSafety),
            limit);
    }
    const double raw = raw_predict_s(*state, job, job.spec().iterations);
    return raw > 0 ? padded(*state, job, raw) : limit;
}

Duration
RuntimeModel::predict_remaining(const workload::Job &job) const
{
    const KeyState *state = history(job);
    if (state == nullptr || !config_.enabled) {
        // The remaining share of the whole-job estimate.
        const double frac =
            job.spec().iterations > 0
                ? double(job.iterations_remaining()) /
                      double(job.spec().iterations)
                : 0.0;
        return Duration::from_seconds(predict(job).to_seconds() *
                                      std::clamp(frac, 0.0, 1.0));
    }
    const double raw =
        raw_predict_s(*state, job, job.iterations_remaining());
    return raw > 0 ? padded(*state, job, raw) : Duration::zero();
}

double
RuntimeModel::key_p50(const workload::Job &job) const
{
    const KeyState *state = find(job);
    return state ? state->errors.p50() : 1.0;
}

double
RuntimeModel::key_p95(const workload::Job &job) const
{
    const KeyState *state = find(job);
    return state ? state->errors.p95() : 1.0;
}

} // namespace tacc::predict
