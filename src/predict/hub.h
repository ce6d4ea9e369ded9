/**
 * @file
 * PredictionHub: the stack's single prediction authority.
 *
 * Every TaccStack owns one. It observes completions on the existing
 * metrics path (finalize), folds load series as the stack runs, and
 * serves every consumer:
 *
 *   - schedulers see the RuntimeModel through SchedulerContext::estimator
 *     (backfill reservations, SJF orderings, elastic shrink victims) —
 *     with `predict.enabled` off it is the per-(user, model) EMA, and
 *     it is the stack's only runtime estimate either way;
 *   - the elastic scaler reads the backlog forecast to leave headroom
 *     for demand that is still arriving;
 *   - the serve autoscaler hands its measured arrival rate in and plans
 *     against the one-period-ahead forecast instead of the raw sample.
 *
 * The hub is plain state folded in simulation-event order — it owns no
 * threads and reads no clocks, so predictions are pure functions of the
 * observation history and every digest stays worker-count-independent.
 */
#pragma once

#include "predict/config.h"
#include "predict/forecast.h"
#include "predict/runtime_model.h"
#include "workload/job.h"

namespace tacc::predict {

class PredictionHub
{
  public:
    explicit PredictionHub(const PredictConfig &config)
        : config_(config),
          model_(config),
          serve_rate_(config.forecast_alpha, config.forecast_beta),
          backlog_(config.forecast_alpha, config.forecast_beta)
    {
    }

    const PredictConfig &config() const { return config_; }
    RuntimeModel &model() { return model_; }
    const RuntimeModel &model() const { return model_; }

    /** Completion observed on the metrics path (stack finalize); the
     *  forecasters below are fed only when `predict.enabled`. */
    void observe_completion(const workload::Job &job)
    {
        model_.observe(job);
    }

    /** Pending GPU demand sampled at each scheduling pass. */
    void observe_backlog(double pending_gpus)
    {
        backlog_.observe(pending_gpus);
    }

    /** One-pass-ahead backlog forecast; `fallback` until warmed up. */
    double
    forecast_backlog(double fallback) const
    {
        return backlog_.forecast(1, fallback);
    }

    /**
     * Serve autoscaler entry point: folds the rate measured over the
     * last scale period and returns the rate to provision for the next
     * one (the measured sample itself until the series warms up).
     */
    double
    forecast_serve_rate(double measured_hz)
    {
        serve_rate_.observe(measured_hz);
        return serve_rate_.forecast(1, measured_hz);
    }

  private:
    PredictConfig config_;
    RuntimeModel model_;
    HoltSeries serve_rate_;
    HoltSeries backlog_;
};

} // namespace tacc::predict
