#include "ops/ops_center.h"

#include <cassert>

namespace tacc::ops {

std::vector<AlertRule>
default_rules()
{
    using Agg = AlertRule::Agg;
    using Cmp = AlertRule::Cmp;
    std::vector<AlertRule> rules;

    AlertRule r;
    r.name = "queue-depth-spike";
    r.series = series::kQueueDepth;
    r.agg = Agg::kLast;
    r.cmp = Cmp::kAbove;
    r.threshold = 40;
    r.for_duration = Duration::minutes(30);
    r.severity = AlertSeverity::kWarning;
    r.description = "pending queue backed up beyond 40 jobs";
    rules.push_back(r);

    r = AlertRule{};
    r.name = "queue-age";
    r.series = series::kQueueOldestWait;
    r.agg = Agg::kLast;
    r.cmp = Cmp::kAbove;
    r.threshold = 6 * 3600.0;
    r.for_duration = Duration::minutes(30);
    r.severity = AlertSeverity::kWarning;
    r.description = "oldest pending job has waited over 6 hours";
    rules.push_back(r);

    r = AlertRule{};
    r.name = "utilization-collapse";
    r.series = series::kGpuUtil;
    r.agg = Agg::kMean;
    r.cmp = Cmp::kBelow;
    r.threshold = 0.05;
    r.window = Duration::minutes(30);
    r.for_duration = Duration::minutes(30);
    r.severity = AlertSeverity::kCritical;
    r.description = "cluster GPU utilization collapsed below 5%";
    rules.push_back(r);

    r = AlertRule{};
    r.name = "failure-storm";
    r.series = series::kSegmentFailures;
    r.agg = Agg::kRate;
    r.cmp = Cmp::kAbove;
    r.threshold = 5.0 / 3600.0; // > 5 segment crashes per hour
    r.window = Duration::hours(1);
    r.for_duration = Duration::minutes(15);
    r.severity = AlertSeverity::kCritical;
    r.description = "segment failures burning above 5/hour";
    rules.push_back(r);

    r = AlertRule{};
    r.name = "preemption-churn";
    r.series = series::kPreemptions;
    r.agg = Agg::kRate;
    r.cmp = Cmp::kAbove;
    r.threshold = 60.0 / 3600.0; // > 60 preemptions per hour
    r.window = Duration::hours(1);
    r.for_duration = Duration::minutes(30);
    r.severity = AlertSeverity::kWarning;
    r.description = "scheduler churning through preemptions";
    rules.push_back(r);

    r = AlertRule{};
    r.name = "deadline-burn";
    r.series = series::kDeadlineMisses;
    r.agg = Agg::kRate;
    r.cmp = Cmp::kAbove;
    r.threshold = 2.0 / 3600.0; // > 2 missed deadlines per hour
    r.window = Duration::hours(2);
    r.for_duration = Duration::minutes(30);
    r.severity = AlertSeverity::kWarning;
    r.description = "deadline-carrying jobs finishing late";
    rules.push_back(r);

    r = AlertRule{};
    r.name = "slo-burn";
    r.series = series::kSloAttainment;
    r.agg = Agg::kMean;
    r.cmp = Cmp::kBelow;
    r.threshold = 0.98;
    r.window = Duration::minutes(30);
    r.for_duration = Duration::minutes(30);
    r.severity = AlertSeverity::kCritical;
    r.description = "serving SLO attainment burning below 98%";
    rules.push_back(r);

    r = AlertRule{};
    r.name = "node-down-storm";
    r.series = series::kNodeFaults;
    r.agg = Agg::kRate;
    r.cmp = Cmp::kAbove;
    r.threshold = 4.0 / 3600.0; // > 4 node faults per hour
    r.window = Duration::hours(1);
    r.for_duration = Duration::minutes(10);
    r.severity = AlertSeverity::kCritical;
    r.description = "nodes going down faster than 4/hour";
    rules.push_back(r);

    r = AlertRule{};
    r.name = "capacity-loss";
    r.series = series::kSchedulableCapacity;
    r.agg = Agg::kLast;
    r.cmp = Cmp::kBelow;
    r.threshold = 0.9;
    r.for_duration = Duration::minutes(10);
    r.severity = AlertSeverity::kWarning;
    r.description = "over 10% of GPU capacity unschedulable";
    rules.push_back(r);

    return rules;
}

OpsCenter::OpsCenter(OpsConfig config)
    : config_(config), store_(config.store),
      accounting_(config.billing_period)
{
    if (config_.install_default_rules) {
        for (auto &rule : default_rules())
            alerts_.add_rule(std::move(rule));
    }
}

void
OpsCenter::add_gauge_source(const std::string &name, SourceFn fn)
{
    assert(fn);
    sources_.push_back(
        Source{store_.define(name, SeriesKind::kGauge), std::move(fn)});
}

void
OpsCenter::add_counter_source(const std::string &name, SourceFn fn)
{
    assert(fn);
    sources_.push_back(
        Source{store_.define(name, SeriesKind::kCounter), std::move(fn)});
}

void
OpsCenter::add_multi_source(
    std::function<void(OpsCenter &, TimePoint)> fn)
{
    assert(fn);
    multi_sources_.push_back(std::move(fn));
}

void
OpsCenter::record_gauge(const std::string &name, TimePoint t, double v)
{
    store_.record(store_.define(name, SeriesKind::kGauge), t, v);
}

void
OpsCenter::sample(TimePoint now)
{
    for (const auto &source : sources_)
        store_.record(source.id, now, source.fn(now));
    for (const auto &fn : multi_sources_)
        fn(*this, now);
    alerts_.evaluate(store_, now);
    ++samples_;
}

} // namespace tacc::ops
