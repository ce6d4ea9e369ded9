/**
 * @file
 * Tests for the alert engine's for-duration hysteresis: deterministic
 * boundary cases, burn-rate rules, and a property-style test under
 * randomized metric streams against an independent reference state
 * machine — neither firing nor resolving may ever happen without the
 * condition holding (or staying clear) for the full `for` duration —
 * and the run paths: rules evaluated after a run of samples was
 * recorded ahead, and the ops center's chunks of appended instants,
 * against evaluation of every instant in full.
 */
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>

#include "common/rng.h"
#include "ops/alert.h"
#include "ops/metric_store.h"
#include "ops/ops_center.h"

namespace tacc::ops {
namespace {

using namespace time_literals;

TimePoint
at(double seconds)
{
    return TimePoint::origin() + Duration::from_seconds(seconds);
}

AlertRule
above_rule(double threshold, Duration for_duration)
{
    AlertRule rule;
    rule.name = "above";
    rule.series = "g";
    rule.agg = AlertRule::Agg::kLast;
    rule.cmp = AlertRule::Cmp::kAbove;
    rule.threshold = threshold;
    rule.for_duration = for_duration;
    return rule;
}

TEST(AlertEngine, FiresOnlyAfterForDuration)
{
    MetricStore store;
    const SeriesId id = store.define("g", SeriesKind::kGauge);
    AlertEngine engine;
    engine.add_rule(above_rule(10.0, 5_min));

    // Condition true from t=0, evaluated every minute.
    for (int i = 0; i <= 4; ++i) {
        store.record(id, at(60.0 * i), 20.0);
        engine.evaluate(store, at(60.0 * i));
        EXPECT_FALSE(engine.is_firing("above")) << "minute " << i;
    }
    store.record(id, at(300), 20.0);
    engine.evaluate(store, at(300)); // held exactly 5 minutes
    EXPECT_TRUE(engine.is_firing("above"));
    ASSERT_EQ(engine.incidents().size(), 1u);
    EXPECT_EQ(engine.incidents()[0].fired_at, at(300));
    EXPECT_TRUE(engine.incidents()[0].active());
    EXPECT_EQ(engine.active_count(), 1u);
}

TEST(AlertEngine, BlipShorterThanForNeverFires)
{
    MetricStore store;
    const SeriesId id = store.define("g", SeriesKind::kGauge);
    AlertEngine engine;
    engine.add_rule(above_rule(10.0, 5_min));

    // 4-minute spikes separated by clear samples: never fires.
    for (int cycle = 0; cycle < 10; ++cycle) {
        const double base = 600.0 * cycle;
        for (int i = 0; i < 4; ++i) {
            store.record(id, at(base + 60.0 * i), 20.0);
            engine.evaluate(store, at(base + 60.0 * i));
        }
        store.record(id, at(base + 240.0), 0.0);
        engine.evaluate(store, at(base + 240.0));
    }
    EXPECT_FALSE(engine.is_firing("above"));
    EXPECT_TRUE(engine.incidents().empty());
}

TEST(AlertEngine, ResolvesOnlyAfterClearHeldForDuration)
{
    MetricStore store;
    const SeriesId id = store.define("g", SeriesKind::kGauge);
    AlertEngine engine;
    engine.add_rule(above_rule(10.0, 2_min));

    double t = 0;
    auto step = [&](double v) {
        store.record(id, at(t), v);
        engine.evaluate(store, at(t));
        t += 60.0;
    };
    step(20.0);
    step(20.0);
    step(20.0); // held 2 min -> firing
    ASSERT_TRUE(engine.is_firing("above"));

    step(0.0);  // clear run starts
    step(20.0); // ...interrupted: clear_since resets
    EXPECT_TRUE(engine.is_firing("above"));
    step(0.0);
    step(0.0);
    EXPECT_TRUE(engine.is_firing("above")); // clear held only 1 min
    step(0.0);                              // clear held 2 min -> resolved
    EXPECT_FALSE(engine.is_firing("above"));
    ASSERT_EQ(engine.incidents().size(), 1u);
    EXPECT_FALSE(engine.incidents()[0].active());
    EXPECT_EQ(engine.incidents()[0].resolved_at, at(t - 60.0));
    EXPECT_DOUBLE_EQ(engine.incidents()[0].peak, 20.0);
}

TEST(AlertEngine, MissingSeriesAndEmptyWindowsAreInert)
{
    MetricStore store;
    AlertEngine engine;
    AlertRule rule = above_rule(-1.0, 0_s); // would fire on any data
    rule.name = "no-series";
    engine.add_rule(rule);

    AlertRule mean = above_rule(-1.0, 0_s);
    mean.name = "empty-mean";
    mean.series = "m";
    mean.agg = AlertRule::Agg::kMean;
    mean.window = 10_min;
    engine.add_rule(mean);
    store.define("m", SeriesKind::kGauge); // defined but never recorded

    for (int i = 0; i < 10; ++i)
        engine.evaluate(store, at(60.0 * i));
    EXPECT_FALSE(engine.is_firing("no-series"));
    EXPECT_FALSE(engine.is_firing("empty-mean"));
    EXPECT_TRUE(engine.incidents().empty());
}

// Rules bind to series ids once the series exists: a rule whose series
// is defined after the rule (group shares and serving attainment appear
// mid-run) stays inert until then and fires afterwards; evaluating a
// second store rebinds every rule to that store's ids.
TEST(AlertEngine, RuleOverLaterSeriesBindsOnceDefined)
{
    MetricStore store;
    AlertEngine engine;
    AlertRule share = above_rule(0.5, 2_min);
    share.name = "share";
    share.series = "group.share.lab";
    engine.add_rule(share);
    AlertRule slo = above_rule(0.9, 0_s);
    slo.name = "slo";
    slo.series = "serve.slo_attainment";
    slo.agg = AlertRule::Agg::kMean;
    slo.cmp = AlertRule::Cmp::kBelow;
    slo.window = 10_min;
    engine.add_rule(slo);

    const SeriesId g = store.define("g", SeriesKind::kGauge);
    int minute = 0;
    for (; minute < 10; ++minute) {
        store.record(g, at(60.0 * minute), 1.0);
        engine.evaluate(store, at(60.0 * minute));
    }
    EXPECT_TRUE(engine.incidents().empty());

    const SeriesId lab = store.define("group.share.lab", SeriesKind::kGauge);
    const SeriesId att =
        store.define("serve.slo_attainment", SeriesKind::kGauge);
    for (; minute < 14; ++minute) {
        store.record(g, at(60.0 * minute), 1.0);
        store.record(lab, at(60.0 * minute), 0.75);
        store.record(att, at(60.0 * minute), 0.5);
        engine.evaluate(store, at(60.0 * minute));
    }
    EXPECT_TRUE(engine.is_firing("share"));
    EXPECT_TRUE(engine.is_firing("slo"));
    ASSERT_EQ(engine.incidents().size(), 2u);
    EXPECT_EQ(engine.incidents()[0].rule, "slo");
    EXPECT_EQ(engine.incidents()[0].fired_at, at(600));
    EXPECT_EQ(engine.incidents()[1].rule, "share");
    EXPECT_EQ(engine.incidents()[1].fired_at, at(720));

    // Same names, other ids: the rules must follow the names.
    MetricStore other;
    const SeriesId other_att =
        other.define("serve.slo_attainment", SeriesKind::kGauge);
    const SeriesId other_lab =
        other.define("group.share.lab", SeriesKind::kGauge);
    for (; minute < 20; ++minute) {
        other.record(other_att, at(60.0 * minute), 1.0);
        other.record(other_lab, at(60.0 * minute), 0.1);
        engine.evaluate(other, at(60.0 * minute));
    }
    EXPECT_FALSE(engine.is_firing("share"));
    EXPECT_FALSE(engine.is_firing("slo"));
}

TEST(AlertEngine, BurnRateRuleFiresOnCounterSlope)
{
    MetricStore store;
    const SeriesId id = store.define("failures", SeriesKind::kCounter);
    AlertEngine engine;
    AlertRule rule;
    rule.name = "failure-storm";
    rule.series = "failures";
    rule.agg = AlertRule::Agg::kRate;
    rule.cmp = AlertRule::Cmp::kAbove;
    rule.threshold = 5.0 / 3600.0; // >5 events/hour
    rule.window = 1_h;
    rule.for_duration = 10_min;
    engine.add_rule(rule);

    // Quiet counter: 1 event/hour, no alert.
    double count = 0;
    double t = 0;
    for (int i = 0; i < 120; ++i, t += 60.0) {
        if (i % 60 == 0)
            count += 1;
        store.record(id, at(t), count);
        engine.evaluate(store, at(t));
    }
    EXPECT_FALSE(engine.is_firing("failure-storm"));

    // Storm: an event per minute.
    for (int i = 0; i < 30; ++i, t += 60.0) {
        store.record(id, at(t), count += 1);
        engine.evaluate(store, at(t));
    }
    EXPECT_TRUE(engine.is_firing("failure-storm"));

    // Counter flattens; the hour-long window drains below threshold and
    // the alert resolves after the hysteresis.
    for (int i = 0; i < 90; ++i, t += 60.0) {
        store.record(id, at(t), count);
        engine.evaluate(store, at(t));
    }
    EXPECT_FALSE(engine.is_firing("failure-storm"));
    ASSERT_EQ(engine.incidents().size(), 1u);
    EXPECT_FALSE(engine.incidents()[0].active());
}

/**
 * Reference hysteresis state machine, written independently of the
 * engine: condition history in, firing state out.
 */
class ReferenceHysteresis
{
  public:
    explicit ReferenceHysteresis(Duration for_duration)
        : for_(for_duration)
    {
    }

    bool
    step(TimePoint now, bool condition)
    {
        if (condition) {
            clear_held_ = false;
            if (!true_held_) {
                true_since_ = now;
                true_held_ = true;
            }
            if (!firing_ && now - true_since_ >= for_) {
                firing_ = true;
                ++fired;
            }
        } else {
            true_held_ = false;
            if (firing_) {
                if (!clear_held_) {
                    clear_since_ = now;
                    clear_held_ = true;
                }
                if (now - clear_since_ >= for_) {
                    firing_ = false;
                    clear_held_ = false;
                    ++resolved;
                }
            }
        }
        return firing_;
    }

    int fired = 0;
    int resolved = 0;

  private:
    Duration for_;
    TimePoint true_since_;
    TimePoint clear_since_;
    bool true_held_ = false;
    bool clear_held_ = false;
    bool firing_ = false;
};

// Property test: under randomized gauge streams and irregular sampling
// cadences, the engine's firing state must match the reference machine
// at every step — no fire or resolve without the condition holding (or
// staying clear) for the full `for` duration.
TEST(AlertEngine, HysteresisMatchesReferenceUnderRandomStreams)
{
    Rng rng(20250806);
    for (int trial = 0; trial < 20; ++trial) {
        MetricStore store;
        const SeriesId id = store.define("g", SeriesKind::kGauge);
        const double threshold = rng.uniform(20.0, 80.0);
        const Duration for_duration =
            Duration::from_seconds(rng.uniform(60.0, 900.0));

        AlertEngine engine;
        engine.add_rule(above_rule(threshold, for_duration));
        ReferenceHysteresis reference(for_duration);

        TimePoint now = TimePoint::origin();
        for (int step = 0; step < 400; ++step) {
            now += Duration::from_seconds(rng.uniform(5.0, 120.0));
            // A random walk that crosses the threshold repeatedly.
            const double value = rng.uniform(0.0, 100.0);
            store.record(id, now, value);
            engine.evaluate(store, now);
            const bool expected =
                reference.step(now, value > threshold);
            ASSERT_EQ(engine.is_firing("above"), expected)
                << "trial " << trial << " step " << step << " value "
                << value << " threshold " << threshold;
        }
        // Incident ledger agrees with the reference transition counts.
        size_t resolved_incidents = 0;
        for (const auto &incident : engine.incidents())
            resolved_incidents += !incident.active();
        EXPECT_EQ(engine.incidents().size(), size_t(reference.fired));
        EXPECT_EQ(resolved_incidents, size_t(reference.resolved));
        // Every resolved incident's lifetime must exceed `for` twice
        // (held to fire, held clear to resolve).
        for (const auto &incident : engine.incidents()) {
            if (!incident.active()) {
                EXPECT_GE(incident.resolved_at - incident.fired_at,
                          for_duration);
            }
        }
    }
}

/**
 * The engine's rules evaluated every instant in full, against a store
 * recorded instant by instant: plain queries (no hints, so no
 * shortcut), then the same hysteresis, peaks and incidents.
 */
class FullEvaluation
{
  public:
    explicit FullEvaluation(std::vector<AlertRule> rules)
        : rules_(std::move(rules)), states_(rules_.size())
    {
    }

    void
    evaluate(const MetricStore &store, TimePoint now)
    {
        for (size_t i = 0; i < rules_.size(); ++i) {
            const AlertRule &rule = rules_[i];
            AlertEngine::RuleStatus &st = states_[i];
            const SeriesId id = store.find(rule.series);
            std::optional<double> value;
            if (id != kInvalidSeries) {
                switch (rule.agg) {
                  case AlertRule::Agg::kLast:
                    if (const auto sample = store.latest(id))
                        value = sample->v;
                    break;
                  case AlertRule::Agg::kMean:
                    value = store.mean_if_data(id, now, rule.window);
                    break;
                  case AlertRule::Agg::kRate:
                    if (store.latest(id))
                        value = store.rate_over(id, now, rule.window);
                    break;
                }
            }
            const bool above = rule.cmp == AlertRule::Cmp::kAbove;
            if (value && (above ? *value > rule.threshold
                                : *value < rule.threshold)) {
                st.clear_since.reset();
                if (!st.true_since) {
                    st.true_since = now;
                    st.peak = *value;
                } else {
                    st.peak = above ? std::max(st.peak, *value)
                                    : std::min(st.peak, *value);
                }
                if (!st.firing && now - *st.true_since >= rule.for_duration) {
                    st.firing = true;
                    incident_[i] = incidents.size();
                    incidents.push_back(AlertIncident{
                        rule.name, rule.severity, now, TimePoint::max(),
                        st.peak});
                }
                if (st.firing)
                    incidents[incident_[i]].peak = st.peak;
            } else {
                st.true_since.reset();
                if (st.firing) {
                    if (!st.clear_since)
                        st.clear_since = now;
                    if (now - *st.clear_since >= rule.for_duration) {
                        st.firing = false;
                        st.clear_since.reset();
                        incidents[incident_[i]].resolved_at = now;
                    }
                }
            }
        }
    }

    const AlertEngine::RuleStatus &status(size_t i) const { return states_[i]; }

    std::vector<AlertIncident> incidents;

  private:
    std::vector<AlertRule> rules_;
    std::vector<AlertEngine::RuleStatus> states_;
    std::map<size_t, size_t> incident_;
};

AlertRule
rule(const char *name, const char *series, AlertRule::Agg agg,
     AlertRule::Cmp cmp, double threshold, Duration window,
     Duration for_duration)
{
    AlertRule r;
    r.name = name;
    r.series = series;
    r.agg = agg;
    r.cmp = cmp;
    r.threshold = threshold;
    r.window = window;
    r.for_duration = for_duration;
    return r;
}

/** Last, mean and rate rules over a state gauge "g", a clock gauge "w"
 *  and a counter "c": windows shorter and longer than the streams'
 *  constant stretches, for-durations 0 and longer than a quiet gap. */
std::vector<AlertRule>
run_rules()
{
    using Agg = AlertRule::Agg;
    using Cmp = AlertRule::Cmp;
    return {
        rule("g-high", "g", Agg::kLast, Cmp::kAbove, 1.5, 0_s, 0_s),
        rule("g-low", "g", Agg::kLast, Cmp::kBelow, 0.5, 0_s, 10_min),
        rule("w-old", "w", Agg::kLast, Cmp::kAbove, 900, 0_s, 5_min),
        rule("g-mean-short", "g", Agg::kMean, Cmp::kAbove, 1.5, 2_min,
             5_min),
        rule("g-mean-long", "g", Agg::kMean, Cmp::kBelow, 1.0, 1_h, 0_s),
        rule("w-mean", "w", Agg::kMean, Cmp::kAbove, 300, 10_min, 2_min),
        rule("c-burn", "c", Agg::kRate, Cmp::kAbove, 0.002, 5_min, 15_min),
        rule("c-slow-burn", "c", Agg::kRate, Cmp::kAbove, 0.0005, 2_h, 0_s),
        rule("absent", "never-recorded", Agg::kLast, Cmp::kAbove, 0, 0_s,
             0_s),
    };
}

void
expect_same_incidents(const std::vector<AlertIncident> &got,
                      const std::vector<AlertIncident> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].rule, want[i].rule) << "incident " << i;
        EXPECT_EQ(got[i].fired_at, want[i].fired_at) << "incident " << i;
        EXPECT_EQ(got[i].resolved_at, want[i].resolved_at)
            << "incident " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i].peak),
                  std::bit_cast<uint64_t>(want[i].peak))
            << "incident " << i;
    }
}

// Piecewise-constant streams at a fixed 30 s cadence, changed between
// runs of quiet instants (as events change stack state) and, in busy
// runs, between instants too. Each run is recorded ahead with
// record_run except the series hold_back
// keeps for instant-by-instant recording; the engine is then evaluated
// at every instant of the run. At every instant its firing states, rule
// states and incidents (fire and resolve times, peak bits) must equal
// those of every instant evaluated in full over a store recorded
// instant by instant. Small raw rings make long windows outgrow them,
// so held series occur too.
TEST(AlertEngine, RunEvaluationMatchesFullEvaluationReference)
{
    Rng rng(20261020);
    const Duration period = 30_s;
    int held_runs = 0;
    int ahead_runs = 0;
    int fired_mid_run = 0;
    int resolved_mid_run = 0;
    int busy_runs = 0;
    for (int trial = 0; trial < 24; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        MetricStoreConfig config;
        config.raw_capacity = size_t(trial % 3 == 0   ? 40
                                     : trial % 3 == 1 ? 300
                                                      : 2048);
        MetricStore ahead(config);
        MetricStore instant(config);
        const std::vector<AlertRule> rules = run_rules();
        AlertEngine engine;
        for (const AlertRule &r : rules)
            engine.add_rule(r);
        FullEvaluation reference(rules);
        const SeriesId g = ahead.define("g", SeriesKind::kGauge);
        const SeriesId w = ahead.define("w", SeriesKind::kGauge);
        const SeriesId c = ahead.define("c", SeriesKind::kCounter);
        ASSERT_EQ(instant.define("g", SeriesKind::kGauge), g);
        ASSERT_EQ(instant.define("w", SeriesKind::kGauge), w);
        ASSERT_EQ(instant.define("c", SeriesKind::kCounter), c);

        double level = 1.0;
        double count = 0;
        TimePoint waiting_since = TimePoint::origin();
        TimePoint next = TimePoint::origin() + period;
        for (int run = 0; run < 60; ++run) {
            // An event between runs: new levels.
            if (rng.uniform() < 0.7)
                level = double(rng.uniform_int(0, 3));
            if (rng.uniform() < 0.5)
                count += double(rng.uniform_int(1, 4));
            if (rng.uniform() < 0.3)
                waiting_since = next - Duration::seconds(
                                           rng.uniform_int(0, 600));
            const size_t k = size_t(std::min<int64_t>(
                rng.uniform() < 0.2 ? 1 : rng.uniform_int(2, 150),
                int64_t(config.raw_capacity)));
            // A third of the chunks hold instants with events between
            // them, as the ops center's chunks do: the state-only
            // values then change from instant to instant.
            const bool busy = rng.uniform() < 0.3;
            busy_runs += busy;
            std::vector<double> gv(k), cv(k), wv(k);
            for (size_t i = 0; i < k; ++i) {
                if (busy && i > 0 && rng.uniform() < 0.15)
                    level = double(rng.uniform_int(0, 3));
                if (busy && i > 0 && rng.uniform() < 0.1)
                    count += double(rng.uniform_int(1, 4));
                gv[i] = level;
                cv[i] = count;
                wv[i] = level > 0 ? (next + int64_t(i) * period -
                                     waiting_since)
                                        .to_seconds()
                                  : 0.0;
            }

            std::vector<uint32_t> samples(ahead.series_count(),
                                          uint32_t(k));
            std::vector<uint8_t> held(ahead.series_count(), 0);
            engine.hold_back(ahead, next, period, k, samples, held);
            const std::vector<std::pair<SeriesId, const std::vector<double> *>>
                series = {{g, &gv}, {w, &wv}, {c, &cv}};
            bool any_held = false;
            for (const auto &[id, v] : series) {
                if (held[size_t(id)])
                    any_held = true;
                else
                    ahead.record_run(id, next, period, *v);
            }
            held_runs += any_held;
            ahead_runs += !any_held;

            for (size_t i = 0; i < k; ++i) {
                const TimePoint t = next + int64_t(i) * period;
                for (const auto &[id, v] : series) {
                    if (held[size_t(id)])
                        ahead.record(id, t, (*v)[i]);
                    instant.record(id, t, (*v)[i]);
                }
                const size_t fired = reference.incidents.size();
                size_t resolved = 0;
                for (const AlertIncident &x : reference.incidents)
                    resolved += !x.active();
                engine.evaluate(ahead, t, true);
                reference.evaluate(instant, t);
                if (i > 0) {
                    fired_mid_run += reference.incidents.size() > fired;
                    size_t now_resolved = 0;
                    for (const AlertIncident &x : reference.incidents)
                        now_resolved += !x.active();
                    resolved_mid_run += now_resolved > resolved;
                }
                for (size_t r = 0; r < rules.size(); ++r) {
                    SCOPED_TRACE("run " + std::to_string(run) + " instant " +
                                 std::to_string(i) + " rule " +
                                 rules[r].name);
                    const AlertEngine::RuleStatus got = engine.status(r);
                    const AlertEngine::RuleStatus &want = reference.status(r);
                    ASSERT_EQ(engine.is_firing(rules[r].name), want.firing);
                    ASSERT_EQ(got.firing, want.firing);
                    ASSERT_EQ(got.true_since, want.true_since);
                    ASSERT_EQ(got.clear_since, want.clear_since);
                    if (got.true_since) {
                        ASSERT_EQ(std::bit_cast<uint64_t>(got.peak),
                                  std::bit_cast<uint64_t>(want.peak));
                    }
                }
                ASSERT_NO_FATAL_FAILURE(expect_same_incidents(
                    engine.incidents(), reference.incidents));
            }
            next += int64_t(k) * period;
        }
    }
    EXPECT_GT(held_runs, 50);
    EXPECT_GT(ahead_runs, 500);
    EXPECT_GT(fired_mid_run, 100);
    EXPECT_GT(resolved_mid_run, 100);
    EXPECT_GT(busy_runs, 300);
}

/**
 * A pass per instant, kept as the reference for the ops center's
 * chunks: at each instant every source is polled, every series records
 * with its own record call, then every rule is evaluated.
 */
class PerInstantCenter
{
  public:
    explicit PerInstantCenter(MetricStoreConfig config) : store_(config)
    {
        for (AlertRule &r : default_rules())
            alerts_.add_rule(std::move(r));
    }

    void
    add_gauge_source(const char *name, OpsCenter::SourceFn fn,
                     Reads = Reads::kClock)
    {
        sources_.push_back({store_.define(name, SeriesKind::kGauge),
                            std::move(fn)});
    }
    void
    add_counter_source(const char *name, OpsCenter::SourceFn fn,
                       Reads = Reads::kClock)
    {
        sources_.push_back({store_.define(name, SeriesKind::kCounter),
                            std::move(fn)});
    }
    void
    add_multi_source(OpsCenter::MultiSourceFn fn)
    {
        multi_sources_.push_back(std::move(fn));
    }
    AlertEngine &alerts() { return alerts_; }
    const MetricStore &store() const { return store_; }
    uint64_t samples_taken() const { return samples_; }

    void
    sample(TimePoint now)
    {
        for (const auto &[id, fn] : sources_)
            store_.record(id, now, fn(now));
        std::vector<OpsCenter::Reading> readings;
        for (const auto &fn : multi_sources_)
            fn(store_, now, readings);
        for (const OpsCenter::Reading &r : readings)
            store_.record(r.id, now, r.v);
        alerts_.evaluate(store_, now);
        ++samples_;
    }

  private:
    MetricStore store_;
    AlertEngine alerts_;
    std::vector<std::pair<SeriesId, OpsCenter::SourceFn>> sources_;
    std::vector<OpsCenter::MultiSourceFn> multi_sources_;
    uint64_t samples_ = 0;
};

/** State the test's sources read, changed between appends. */
struct FakeStack {
    double level = 0;
    double count = 0;
    int groups = 0;
    bool idle = false;
    TimePoint since = TimePoint::origin();
};

/** State-only and clock-reading gauges, a counter, a source with state
 *  of its own, a multi-source whose gauges appear late and skip
 *  instants, and a rule over one of its gauges. */
template <typename Center>
void
wire_sources(Center &center, FakeStack &stack)
{
    center.add_gauge_source(
        series::kGpuUtil, [&stack](TimePoint) { return stack.level; },
        Reads::kState);
    center.add_counter_source(
        series::kSegmentFailures,
        [&stack](TimePoint) { return stack.count; }, Reads::kState);
    center.add_gauge_source(series::kQueueOldestWait,
                            [&stack](TimePoint now) {
                                return (now - stack.since).to_seconds();
                            });
    center.add_gauge_source(series::kSloAttainment,
                            [calls = 0](TimePoint) mutable {
                                return ++calls % 7 == 0 ? 0.5 : 1.0;
                            });
    center.add_multi_source(
        [&stack, ids = std::vector<SeriesId>()](
            MetricStore &s, TimePoint now,
            std::vector<OpsCenter::Reading> &out) mutable {
            if (stack.idle && now.to_micros() / 30'000'000 % 5 == 0)
                return;
            while (int(ids.size()) < stack.groups) {
                ids.push_back(s.define("group.share.g" +
                                           std::to_string(ids.size()),
                                       SeriesKind::kGauge));
            }
            for (size_t i = 0; i < ids.size(); ++i)
                out.push_back({ids[i], stack.level / double(i + 1)});
        });
    AlertRule share;
    share.name = "share";
    share.series = "group.share.g0";
    share.agg = AlertRule::Agg::kMean;
    share.window = 10_min;
    share.threshold = 1.5;
    share.for_duration = 5_min;
    center.alerts().add_rule(share);
}

// Appended instants must leave an ops center exactly as a pass per
// instant leaves it: every series at three resolutions bit for bit,
// the incidents and the sample count. Quiet runs of up to 200 instants
// alternate with busy stretches that change the state between single
// instants, and the center is read only now and then, so its chunks
// (flushed when full or when read) span both.
TEST(OpsCenter, SampleRunMatchesSampleAtEveryInstant)
{
    Rng rng(20261021);
    for (int trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        MetricStoreConfig store;
        store.raw_capacity = trial % 2 ? 50 : 2048;
        FakeStack stack;
        OpsConfig config;
        config.store = store;
        OpsCenter chunks(config);
        PerInstantCenter reference(store);
        wire_sources(chunks, stack);
        wire_sources(reference, stack);
        const Duration period = chunks.config().sample_period;
        TimePoint next = TimePoint::origin() + period;
        auto change = [&] {
            stack.level = double(rng.uniform_int(0, 4));
            if (rng.uniform() < 0.5)
                stack.count += double(rng.uniform_int(1, 9));
            if (rng.uniform() < 0.2)
                stack.since = next;
            if (rng.uniform() < 0.1)
                ++stack.groups;
            stack.idle = rng.uniform() < 0.3;
        };
        int compared = 0;
        for (int run = 0; run < 120; ++run) {
            change();
            if (rng.uniform() < 0.3) {
                const int busy = int(rng.uniform_int(1, 90));
                for (int i = 0; i < busy; ++i) {
                    if (i > 0 && rng.uniform() < 0.6)
                        change();
                    chunks.append(next);
                    reference.sample(next);
                    next += period;
                }
            } else {
                const size_t k = size_t(rng.uniform_int(1, 200));
                chunks.append(next, k);
                for (size_t i = 0; i < k; ++i)
                    reference.sample(next + int64_t(i) * period);
                next += int64_t(k) * period;
            }
            if (run != 119 && rng.uniform() < 0.7)
                continue;
            ++compared;

            ASSERT_EQ(chunks.samples_taken(), reference.samples_taken());
            const MetricStore &a = chunks.store();
            const MetricStore &b = reference.store();
            ASSERT_EQ(a.series_count(), b.series_count());
            for (SeriesId id = 0; size_t(id) < a.series_count(); ++id) {
                ASSERT_EQ(a.name_of(id), b.name_of(id));
                for (const Resolution res :
                     {Resolution::kRaw, Resolution::kMinute,
                      Resolution::kHour}) {
                    const auto pa = a.range(id, TimePoint::origin(),
                                            TimePoint::max(), res);
                    const auto pb = b.range(id, TimePoint::origin(),
                                            TimePoint::max(), res);
                    ASSERT_EQ(pa.size(), pb.size());
                    for (size_t i = 0; i < pa.size(); ++i) {
                        ASSERT_EQ(pa[i].start, pb[i].start);
                        ASSERT_EQ(std::bit_cast<uint64_t>(pa[i].min),
                                  std::bit_cast<uint64_t>(pb[i].min));
                        ASSERT_EQ(std::bit_cast<uint64_t>(pa[i].max),
                                  std::bit_cast<uint64_t>(pb[i].max));
                        ASSERT_EQ(std::bit_cast<uint64_t>(pa[i].sum),
                                  std::bit_cast<uint64_t>(pb[i].sum));
                        ASSERT_EQ(std::bit_cast<uint64_t>(pa[i].last),
                                  std::bit_cast<uint64_t>(pb[i].last));
                        ASSERT_EQ(pa[i].count, pb[i].count);
                    }
                }
            }
            ASSERT_NO_FATAL_FAILURE(expect_same_incidents(
                chunks.alerts().incidents(), reference.alerts().incidents()));
        }
        EXPECT_GT(compared, 20);
        EXPECT_FALSE(chunks.alerts().incidents().empty());
    }
}

} // namespace
} // namespace tacc::ops
