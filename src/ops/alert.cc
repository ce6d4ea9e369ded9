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
        state.settled = kUnsettled;
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
        return store.value_at(id, now, &state.window_hint);
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

namespace {

/** True if a rule's value read at now holds at every later instant
 *  until its series records again (see RuleState::settled). */
bool
holds(const AlertRule &rule, const MetricStore &store, SeriesId id,
      TimePoint now)
{
    switch (rule.agg) {
      case AlertRule::Agg::kLast: return store.settled_at(id, now);
      case AlertRule::Agg::kRate:
        return store.settled_at(id, now - rule.window);
      case AlertRule::Agg::kMean:
        // The window's sample count may still change; not tracked.
        return false;
    }
    return false;
}

} // namespace

void
AlertEngine::evaluate(const MetricStore &store, TimePoint now,
                      bool recorded_ahead)
{
    bind(store);
    for (size_t i = 0; i < rules_.size(); ++i) {
        const AlertRule &rule = rules_[i];
        RuleState &state = states_[i];
        if (state.settled != kUnsettled &&
            state.settled == store.samples_recorded(state.series))
            continue;

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
        state.settled = recorded_ahead && value &&
                                condition == state.firing &&
                                holds(rule, store, state.series, now)
                            ? store.samples_recorded(state.series)
                            : kUnsettled;
    }
}

void
AlertEngine::hold_back(const MetricStore &store, TimePoint first,
                       Duration step, size_t k,
                       std::span<const uint32_t> samples,
                       std::span<uint8_t> held)
{
    bind(store);
    for (size_t i = 0; i < rules_.size(); ++i) {
        const SeriesId id = states_[i].series;
        if (id == kInvalidSeries)
            continue;
        const uint32_t n = samples[size_t(id)];
        const AlertRule &rule = rules_[i];
        if (n != 0 &&
            (n != k ||
             (rule.agg != AlertRule::Agg::kLast &&
              !store.answers_as_of(id, first, step, k, rule.window,
                                   rule.agg == AlertRule::Agg::kMean))))
            held[size_t(id)] = 1;
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
