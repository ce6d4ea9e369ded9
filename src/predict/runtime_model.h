/**
 * @file
 * Online runtime model: the stack's one runtime estimator.
 *
 * Every stack owns one, whether prediction is on or off. A disabled
 * PredictConfig is the T8 estimator: an EMA of per-iteration service
 * time per (user, model) key at a fixed 1.25 safety, capped by the
 * user limit, with every other knob ignored. An enabled config keys by
 * (group, model) and upgrades that table to the scheme the related work
 * centers on (Sliwko: online models continuously retrained on
 * completions drive allocation). Per key the model maintains
 * recency-weighted least-squares sufficient statistics over the
 * features (1, iterations, iterations x gpus) with target per-job wall
 * service seconds; every completion decays old weight by (1 - decay) and adds
 * the new sample at weight 1, so the fit tracks drift (new framework
 * version, new dataset) without a retrain step.
 *
 * The fallback chain is explicit and monotone in information:
 *   regress (>= sample_floor completions) -> per-key EMA -> user limit
 * and the user limit always caps the result — the system kills at the
 * limit, so no estimate may plan past it.
 *
 * Confidence: per key a bounded ring of actual/predicted ratios feeds
 * p50/p95 error quantiles. The p95 (clamped to [safety_min,
 * safety_max]) *is* the safety factor — a key that has been predicting
 * well reserves tightly, a noisy key keeps slack. That replaces the
 * fixed 1.25 of the EMA estimator with evidence.
 *
 * Determinism: state is a pure fold over the completion sequence in
 * simulation-event order; predictions read state only. No wall clock,
 * no RNG, no map-iteration-order dependence.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "predict/config.h"
#include "sched/estimator.h"

namespace tacc::predict {

/** p50/p95 of a bounded ring of actual/predicted ratios. */
class ErrorQuantiles
{
  public:
    static constexpr size_t kCapacity = 64;

    void observe(double ratio);

    /** Median ratio; 1.0 until the first sample. */
    double p50() const { return quantile(0.50); }
    /** 95th-percentile ratio; 1.0 until the first sample. */
    double p95() const { return quantile(0.95); }
    size_t samples() const { return ring_.size(); }

  private:
    double quantile(double q) const;

    std::vector<double> ring_;
    /** The ring's values in ascending order, kept in step by observe(),
     *  so a quantile read is one index. */
    std::vector<double> sorted_;
    size_t next_ = 0;
};

/**
 * The scheduler-facing prediction authority: the one implementation of
 * the sched estimator interface `SchedulerContext::estimator` points at.
 */
class RuntimeModel : public sched::RuntimeEstimator
{
  public:
    explicit RuntimeModel(const PredictConfig &config);

    /** Folds a completed job; any other job carries no signal. */
    void observe(const workload::Job &job);
    Duration predict(const workload::Job &job) const override;
    Duration predict_remaining(const workload::Job &job) const override;
    /** True if a prediction (not just the fallback) exists for the job. */
    bool has_history(const workload::Job &job) const;

    /** Error quantiles of the job's (group, model) key. */
    double key_p50(const workload::Job &job) const;
    double key_p95(const workload::Job &job) const;

    uint64_t model_observations() const { return observations_; }
    size_t model_keys() const { return keys_.size(); }

  private:
    struct KeyState {
        /** Decayed sufficient statistics of the 3-feature least squares
         *  (x = [1, iters, iters*gpus], y = wall service seconds):
         *  xtx is the symmetric 3x3 moment matrix (6 unique entries,
         *  row-major upper triangle), xty the 3-vector. */
        double xtx[6] = {0, 0, 0, 0, 0, 0};
        double xty[3] = {0, 0, 0};
        /** Per-iteration EMA (the whole estimate when disabled). */
        double ema_per_iter_s = 0;
        uint64_t count = 0;
        ErrorQuantiles errors;
        /** Cached at observe(), the only place the state changes:
         *  whether the regression answers (regress mode, at least
         *  sample_floor completions, solvable) and its coefficients,
         *  and the safety factor predictions pad with. */
        bool solved = false;
        double coeff[3] = {0, 0, 0};
        double safety = 0;
    };

    /** Interned (user, model) ids packed into one word when disabled,
     *  (group, model) when enabled. */
    uint64_t
    key_of(const workload::Job &job) const
    {
        const int owner = config_.enabled ? job.group_id() : job.user_id();
        return uint64_t(uint32_t(owner)) << 32 |
               uint64_t(uint32_t(job.model_id()));
    }

    const KeyState *find(const workload::Job &job) const;
    /** The job's key state if it answers predictions, else nullptr. */
    const KeyState *history(const workload::Job &job) const;
    /** Folds a sample into the regression and its error ring. */
    void fold_regression(KeyState &state, const workload::Job &job,
                         double per_iter) const;
    /** Raw (unbiased, uncapped) prediction in seconds for `iterations`
     *  iterations of the job; < 0 when no usable history exists. */
    static double raw_predict_s(const KeyState &state,
                                const workload::Job &job,
                                int64_t iterations);
    /** A positive raw prediction padded by the key's safety and the
     *  bias, capped by the job's limit. */
    Duration padded(const KeyState &state, const workload::Job &job,
                    double raw) const;
    /** Solves the decayed normal equations; false if ill-conditioned. */
    static bool solve(const KeyState &state, double coeff[3]);

    PredictConfig config_;
    uint64_t observations_ = 0;
    std::unordered_map<uint64_t, KeyState> keys_;
};

} // namespace tacc::predict
