#include "ops/ops_center.h"

#include <algorithm>
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
OpsCenter::add_gauge_source(const std::string &name, SourceFn fn,
                            Reads reads)
{
    assert(fn);
    flush(); // a chunk's values cover the sources it was taken with
    sources_.push_back(Source{store_.define(name, SeriesKind::kGauge),
                              std::move(fn), reads});
}

void
OpsCenter::add_counter_source(const std::string &name, SourceFn fn,
                              Reads reads)
{
    assert(fn);
    flush();
    sources_.push_back(Source{store_.define(name, SeriesKind::kCounter),
                              std::move(fn), reads});
}

void
OpsCenter::add_multi_source(MultiSourceFn fn)
{
    assert(fn);
    flush();
    multi_sources_.push_back(std::move(fn));
}

void
OpsCenter::record_gauge(const std::string &name, TimePoint t, double v)
{
    flush();
    store_.record(store_.define(name, SeriesKind::kGauge), t, v);
}

void
OpsCenter::append(TimePoint first, size_t k)
{
    assert(k > 0);
    const Duration period = config_.sample_period;
    const size_t n = sources_.size();
    const size_t capacity = std::min(kRunChunk, store_.raw_capacity());
    Chunk &c = chunk_;
    if (c.count > 0 && first != c.first + int64_t(c.count) * period)
        flush();
    c.values.resize(n * kRunChunk);
    c.ends.resize(kRunChunk);
    polled_.resize(n);
    for (size_t s = 0; s < n; ++s) {
        if (sources_[s].reads == Reads::kState)
            polled_[s] = sources_[s].fn(first);
    }
    for (size_t done = 0; done < k;) {
        if (c.count == 0)
            c.first = first + int64_t(done) * period;
        const size_t m = std::min(capacity - c.count, k - done);
        auto at = [&](size_t i) {
            return first + int64_t(done + i) * period;
        };
        // The values of the instants this chunk takes, in time order
        // per source.
        for (size_t s = 0; s < n; ++s) {
            double *column = &c.values[s * kRunChunk + c.count];
            if (sources_[s].reads == Reads::kState) {
                std::fill_n(column, m, polled_[s]);
            } else {
                for (size_t i = 0; i < m; ++i)
                    column[i] = sources_[s].fn(at(i));
            }
        }
        for (size_t i = 0; i < m; ++i) {
            for (const auto &fn : multi_sources_)
                fn(store_, at(i), c.readings);
            c.ends[c.count + i] = c.readings.size();
        }
        c.count += m;
        done += m;
        if (c.count == capacity)
            flush();
    }
}

void
OpsCenter::record_chunk() const
{
    Chunk &c = chunk_;
    const Duration period = config_.sample_period;
    const size_t n = sources_.size();
    const size_t m = c.count;
    const TimePoint start = c.first;
    auto at = [start, period](size_t i) {
        return start + int64_t(i) * period;
    };
    // Readings of the same series at every instant (the usual shape)
    // can be recorded a series at a time.
    const size_t per = c.ends[0];
    bool columns = true;
    for (size_t i = 1; columns && i < m; ++i) {
        columns = c.ends[i] == (i + 1) * per;
        for (size_t j = 0; columns && j < per; ++j)
            columns = c.readings[i * per + j].id == c.readings[j].id;
    }

    // A series is recorded ahead, a chunk in one call, unless a rule
    // must read it instant by instant or two producers write it (their
    // samples then interleave by instant).
    c.run_counts.assign(store_.series_count(), 0);
    for (const Source &source : sources_)
        c.run_counts[size_t(source.id)] += uint32_t(m);
    for (const Reading &r : c.readings)
        ++c.run_counts[size_t(r.id)];
    c.held.assign(c.run_counts.size(), 0);
    for (size_t id = 0; id < c.run_counts.size(); ++id)
        c.held[id] = c.run_counts[id] > m;
    alerts_.hold_back(store_, start, period, m, c.run_counts, c.held);

    for (size_t s = 0; s < n; ++s) {
        if (!c.held[size_t(sources_[s].id)])
            store_.record_run(sources_[s].id, start, period,
                              {&c.values[s * kRunChunk], m});
    }
    if (columns) {
        c.column.resize(m);
        for (size_t j = 0; j < per; ++j) {
            if (c.held[size_t(c.readings[j].id)])
                continue;
            for (size_t i = 0; i < m; ++i)
                c.column[i] = c.readings[i * per + j].v;
            store_.record_run(c.readings[j].id, start, period, c.column);
        }
    }
    for (size_t i = 0; i < m; ++i) {
        for (size_t s = 0; s < n; ++s) {
            if (c.held[size_t(sources_[s].id)])
                store_.record(sources_[s].id, at(i),
                              c.values[s * kRunChunk + i]);
        }
        for (size_t r = i > 0 ? c.ends[i - 1] : 0; r < c.ends[i]; ++r) {
            if (!columns || c.held[size_t(c.readings[r].id)])
                store_.record(c.readings[r].id, at(i), c.readings[r].v);
        }
        alerts_.evaluate(store_, at(i), true);
    }
    samples_ += m;
    c.count = 0;
    c.readings.clear();
}

} // namespace tacc::ops
