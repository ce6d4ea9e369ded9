/**
 * @file
 * Configuration of the prediction subsystem.
 *
 * One switch (`enabled`) gates the layer. With it off, the runtime
 * model is the plain per-(user, model) EMA at a fixed 1.25 safety and
 * every other field here is ignored; the load forecasters stay idle.
 * With it on, `mode` picks the prediction authority the schedulers
 * see, and the remaining knobs shape the online model. All
 * four learning knobs register in the tune ParamSpace
 * (`predict.decay`, `predict.sample_floor`, `predict.safety_min/max`).
 */
#pragma once

#include <string>

#include "common/status.h"

namespace tacc::predict {

/**
 * Which estimate the scheduling layer treats as authoritative when
 * prediction is enabled. Both learned modes key by (group, model); the
 * disabled config's EMA keys by (user, model).
 */
enum class EstimatorMode {
    kLimit,   ///< user time limit only
    kEma,     ///< per-(group, model) EMA at a fixed 1.25 safety
    kRegress, ///< decayed regression with EMA + limit fallback
};

const char *estimator_mode_name(EstimatorMode mode);
StatusOr<EstimatorMode> parse_estimator_mode(const std::string &name);

/** Knobs of the prediction layer (see file comment). */
struct PredictConfig {
    /** Master switch; off means the per-(user, model) EMA only. */
    bool enabled = false;
    EstimatorMode mode = EstimatorMode::kRegress;

    /** @name Runtime model (tune dims) */
    ///@{
    /** Per-observation decay of the regression's sufficient statistics:
     *  each new completion multiplies old weight by (1 - decay). */
    double decay = 0.05;
    /** Completions a (group, model) key needs before the regression is
     *  trusted; below it the per-key EMA answers. */
    int sample_floor = 5;
    /** Bounds on the error-quantile-driven safety factor applied to
     *  predictions (p95 of actual/predicted, clamped to [min, max]).
     *  The floor matches the fixed EMA safety: EASY shadow reservations
     *  built from under-padded predictions let backfilled jobs overrun
     *  into the head job's slot and blow up tail wait. */
    double safety_min = 1.25;
    double safety_max = 2.5;
    ///@}

    /**
     * Mispredict-robustness ablation: systematic multiplier applied to
     * *predictions only* (observations stay truthful). 1.0 = honest
     * model; 2.0 = systematic overestimate; 0.5 = underestimate. The
     * user time limit still caps the result — the kill bound is real.
     */
    double bias = 1.0;

    /** @name Load forecaster (double-exponential smoothing) */
    ///@{
    double forecast_alpha = 0.5; ///< level gain
    double forecast_beta = 0.2;  ///< trend gain
    ///@}

    /** Validates ranges; returns the first offending knob. */
    Status validate() const;
};

} // namespace tacc::predict
