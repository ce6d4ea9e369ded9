/**
 * @file
 * Alert rules over the metric store, with for-duration hysteresis.
 *
 * A rule names a series, an aggregation (latest value, windowed mean, or
 * counter burn rate), a comparison, and a `for` duration. The engine is
 * evaluated on the collector's sampling cadence; a rule transitions to
 * *firing* only after its condition has held continuously for the `for`
 * duration, and back to *resolved* only after the condition has been
 * continuously clear for the same duration — the hysteresis that keeps a
 * noisy metric from flapping pages. Every firing/resolved pair is kept as
 * an AlertIncident, the raw material of the operator's incident timeline.
 *
 * Rules over series that do not exist yet (or hold no samples in the
 * aggregation window) are inert: no data never fires. A rule binds to
 * its series' id once the series is defined, so steady-state evaluation
 * does no name lookup.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/time.h"
#include "ops/metric_store.h"

namespace tacc::ops {

enum class AlertSeverity { kWarning, kCritical };

const char *alert_severity_name(AlertSeverity severity);

/** One alerting condition. */
struct AlertRule {
    std::string name;   ///< unique rule name ("queue-depth-spike")
    std::string series; ///< metric series the rule watches

    enum class Agg {
        kLast, ///< newest sample
        kMean, ///< count-weighted mean over `window`
        kRate, ///< counter per-second increase over `window` (burn rate)
    };
    enum class Cmp { kAbove, kBelow };

    Agg agg = Agg::kLast;
    Cmp cmp = Cmp::kAbove;
    double threshold = 0;
    /** Aggregation window for kMean / kRate. */
    Duration window = Duration::minutes(10);
    /** Condition must hold (or clear) this long before transitioning. */
    Duration for_duration = Duration::minutes(5);
    AlertSeverity severity = AlertSeverity::kWarning;
    std::string description;
};

/** One firing episode of a rule. */
struct AlertIncident {
    std::string rule;
    AlertSeverity severity = AlertSeverity::kWarning;
    TimePoint fired_at;
    /** TimePoint::max() while still firing. */
    TimePoint resolved_at = TimePoint::max();
    /** Most extreme observed value while the condition held. */
    double peak = 0;

    bool active() const { return resolved_at == TimePoint::max(); }
};

/** Evaluates rules against a store; owns rule state and incident log. */
class AlertEngine
{
  public:
    AlertEngine() = default;

    void add_rule(AlertRule rule);
    size_t rule_count() const { return rules_.size(); }
    const std::vector<AlertRule> &rules() const { return rules_; }

    /**
     * Evaluates every rule at time now (must be non-decreasing across
     * calls). Called once per collector sample. Rules bind to the
     * store's series ids; evaluating a different store rebinds them.
     * `recorded_ahead` says the store may already hold samples after
     * now (a run was recorded before its instants are evaluated): only
     * then can a rule settle until its series records again
     * (RuleState::settled), so only then is that worked out.
     */
    void evaluate(const MetricStore &store, TimePoint now,
                  bool recorded_ahead = false);

    /**
     * For a run of k instants at first, first + step, ... whose other
     * samples are all recorded before the rules are evaluated at its
     * first instant: sets held[id] for each series a rule reads that
     * must instead be recorded instant by instant, just before each
     * evaluation, for the rule to read what it would have read then.
     * `samples[id]` is how many samples series id gets in the run; a
     * read series is held unless it gets none, or one per instant and
     * every rule on it answers as of each instant
     * (MetricStore::answers_as_of). Binds the rules to `store`.
     */
    void hold_back(const MetricStore &store, TimePoint first, Duration step,
                   size_t k, std::span<const uint32_t> samples,
                   std::span<uint8_t> held);

    /** True if the named rule is currently firing. */
    bool is_firing(const std::string &rule) const;

    /** All incidents, oldest first (including still-active ones). */
    const std::vector<AlertIncident> &incidents() const
    {
        return incidents_;
    }

    size_t active_count() const;

    /** A rule's hysteresis state. */
    struct RuleStatus {
        /** First evaluation time of the current uninterrupted
         *  condition-true run; unset when the condition is clear. */
        std::optional<TimePoint> true_since;
        /** First evaluation time of the current clear run while firing. */
        std::optional<TimePoint> clear_since;
        bool firing = false;
        /** Most extreme value of the current condition-true run. */
        double peak = 0;
    };

    /** The state of rules()[i]. */
    const RuleStatus &status(size_t i) const { return states_[i]; }

  private:
    struct RuleState : RuleStatus {
        /** Index into incidents_ of the active incident. */
        size_t incident = 0;
        /** The rule's series in the bound store, once defined. */
        SeriesId series = kInvalidSeries;
        /** Where the rule's window started at the last evaluation. */
        MetricStore::WindowHint window_hint;
        /**
         * The series' samples_recorded() when the rule settled: its
         * value holds at every later instant until the series records
         * again, in a state such an instant leaves unchanged (firing
         * on a true condition, or quiet on a false one). kUnsettled
         * otherwise, and always outside a run recorded ahead.
         */
        uint64_t settled = kUnsettled;
    };
    static constexpr uint64_t kUnsettled = ~uint64_t(0);

    /** Binds unbound rules to series defined since the last call. */
    void bind(const MetricStore &store);

    /** Rule condition value at now; nullopt = no data (inert). */
    static std::optional<double> aggregate(const AlertRule &rule,
                                           RuleState &state,
                                           const MetricStore &store,
                                           TimePoint now);

    std::vector<AlertRule> rules_;
    std::vector<RuleState> states_;
    std::vector<AlertIncident> incidents_;
    /** The store the rules are bound to, and its series count then. */
    const MetricStore *bound_store_ = nullptr;
    size_t bound_series_ = 0;
};

} // namespace tacc::ops
