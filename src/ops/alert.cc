#include "ops/alert.h"

#include <algorithm>
#include <cassert>

namespace tacc::ops {

const char *
alert_severity_name(AlertSeverity severity)
{
    switch (severity) {
      case AlertSeverity::kWarning: return "warning";
      case AlertSeverity::kCritical: return "critical";
    }
    return "?";
}

void
AlertEngine::add_rule(AlertRule rule)
{
    assert(!rule.name.empty() && !rule.series.empty());
    assert(!rule.for_duration.is_negative());
    rules_.push_back(std::move(rule));
    states_.emplace_back();
    bound_store_ = nullptr; // bind the new rule at the next evaluation
}

void
AlertEngine::bind(const MetricStore &store)
{
    if (bound_store_ == &store && bound_series_ == store.series_count())
        return;
    for (size_t i = 0; i < rules_.size(); ++i) {
        RuleState &state = states_[i];
        if (bound_store_ != &store) {
            state.series = kInvalidSeries;
            state.window_hint = {};
        }
        if (state.series == kInvalidSeries)
            state.series = store.find(rules_[i].series);
    }
    bound_store_ = &store;
    bound_series_ = store.series_count();
}

std::optional<double>
AlertEngine::aggregate(const AlertRule &rule, RuleState &state,
                       const MetricStore &store, TimePoint now)
{
    const SeriesId id = state.series;
    if (id == kInvalidSeries)
        return std::nullopt;
    switch (rule.agg) {
      case AlertRule::Agg::kLast: {
        const auto sample = store.latest(id);
        if (!sample)
            return std::nullopt;
        return sample->v;
      }
      case AlertRule::Agg::kMean:
        // No data in the window -> inert, not "mean of nothing is 0".
        return store.mean_if_data(id, now, rule.window, &state.window_hint);
      case AlertRule::Agg::kRate: {
        if (!store.latest(id))
            return std::nullopt;
        return store.rate_over(id, now, rule.window, &state.window_hint);
      }
    }
    return std::nullopt;
}

void
AlertEngine::evaluate(const MetricStore &store, TimePoint now)
{
    bind(store);
    for (size_t i = 0; i < rules_.size(); ++i) {
        const AlertRule &rule = rules_[i];
        RuleState &state = states_[i];

        const auto value = aggregate(rule, state, store, now);
        const bool condition =
            value && (rule.cmp == AlertRule::Cmp::kAbove
                          ? *value > rule.threshold
                          : *value < rule.threshold);

        if (condition) {
            state.clear_since.reset();
            if (!state.true_since) {
                state.true_since = now;
                state.peak = *value;
            } else {
                state.peak = rule.cmp == AlertRule::Cmp::kAbove
                                 ? std::max(state.peak, *value)
                                 : std::min(state.peak, *value);
            }
            if (!state.firing &&
                now - *state.true_since >= rule.for_duration) {
                state.firing = true;
                state.incident = incidents_.size();
                incidents_.push_back(AlertIncident{
                    rule.name, rule.severity, now, TimePoint::max(),
                    state.peak});
            }
            if (state.firing)
                incidents_[state.incident].peak = state.peak;
        } else {
            state.true_since.reset();
            if (state.firing) {
                if (!state.clear_since)
                    state.clear_since = now;
                if (now - *state.clear_since >= rule.for_duration) {
                    state.firing = false;
                    state.clear_since.reset();
                    incidents_[state.incident].resolved_at = now;
                }
            }
        }
    }
}

bool
AlertEngine::is_firing(const std::string &rule) const
{
    for (size_t i = 0; i < rules_.size(); ++i) {
        if (rules_[i].name == rule)
            return states_[i].firing;
    }
    return false;
}

size_t
AlertEngine::active_count() const
{
    return size_t(std::count_if(states_.begin(), states_.end(),
                                [](const RuleState &s) {
                                    return s.firing;
                                }));
}

} // namespace tacc::ops
