/**
 * @file
 * Tests for the alert engine's for-duration hysteresis: deterministic
 * boundary cases, burn-rate rules, and a property-style test under
 * randomized metric streams against an independent reference state
 * machine — neither firing nor resolving may ever happen without the
 * condition holding (or staying clear) for the full `for` duration.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ops/alert.h"
#include "ops/metric_store.h"

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

} // namespace
} // namespace tacc::ops
