/**
 * @file
 * Unit tests for the fixed-memory time-series store: ring behavior,
 * rollup math, windowed queries, the bounded-memory guarantee, and a
 * property test holding every windowed query bit-identical to a
 * full-scan reference.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "ops/metric_store.h"

namespace tacc::ops {
namespace {

using namespace time_literals;

TimePoint
at(double seconds)
{
    return TimePoint::origin() + Duration::from_seconds(seconds);
}

TEST(MetricRing, WrapsOverwritingOldest)
{
    MetricRing<int> ring(3);
    EXPECT_TRUE(ring.empty());
    for (int i = 0; i < 5; ++i)
        ring.push(i);
    ASSERT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.at(0), 2); // oldest survivor
    EXPECT_EQ(ring.at(1), 3);
    EXPECT_EQ(ring.at(2), 4);
    EXPECT_EQ(ring.back(), 4);
    EXPECT_EQ(ring.capacity(), 3u);
}

TEST(MetricStore, DefineIsIdempotent)
{
    MetricStore store;
    const SeriesId a = store.define("cluster.gpu_util", SeriesKind::kGauge);
    const SeriesId b = store.define("cluster.gpu_util", SeriesKind::kGauge);
    EXPECT_EQ(a, b);
    EXPECT_EQ(store.series_count(), 1u);
    EXPECT_EQ(store.find("cluster.gpu_util"), a);
    EXPECT_EQ(store.find("nope"), kInvalidSeries);
    EXPECT_EQ(store.name_of(a), "cluster.gpu_util");
    EXPECT_EQ(store.kind_of(a), SeriesKind::kGauge);
}

TEST(MetricStore, LatestReturnsNewestSample)
{
    MetricStore store;
    const SeriesId id = store.define("g", SeriesKind::kGauge);
    EXPECT_FALSE(store.latest(id).has_value());
    store.record(id, at(10), 1.0);
    store.record(id, at(20), 2.0);
    store.record(id, at(20), 3.0); // equal timestamps allowed
    ASSERT_TRUE(store.latest(id).has_value());
    EXPECT_EQ(store.latest(id)->t, at(20));
    EXPECT_DOUBLE_EQ(store.latest(id)->v, 3.0);
}

TEST(MetricStore, MinuteRollupAggregatesOpenBucket)
{
    MetricStore store;
    const SeriesId id = store.define("g", SeriesKind::kGauge);
    store.record(id, at(5), 4.0);
    store.record(id, at(25), 2.0);
    store.record(id, at(45), 6.0);

    // Still inside minute 0: range must include the open bucket.
    const auto open = store.range(id, at(0), at(60), Resolution::kMinute);
    ASSERT_EQ(open.size(), 1u);
    EXPECT_EQ(open[0].start, at(0));
    EXPECT_DOUBLE_EQ(open[0].min, 2.0);
    EXPECT_DOUBLE_EQ(open[0].max, 6.0);
    EXPECT_DOUBLE_EQ(open[0].sum, 12.0);
    EXPECT_DOUBLE_EQ(open[0].last, 6.0);
    EXPECT_EQ(open[0].count, 3u);
    EXPECT_DOUBLE_EQ(open[0].mean(), 4.0);

    // Crossing the boundary closes minute 0 and opens minute 1.
    store.record(id, at(70), 10.0);
    const auto both = store.range(id, at(0), at(120), Resolution::kMinute);
    ASSERT_EQ(both.size(), 2u);
    EXPECT_EQ(both[0].count, 3u);
    EXPECT_EQ(both[1].start, at(60));
    EXPECT_DOUBLE_EQ(both[1].last, 10.0);
    EXPECT_EQ(both[1].count, 1u);
}

TEST(MetricStore, RangeFiltersByWindowAtEveryResolution)
{
    MetricStore store;
    const SeriesId id = store.define("g", SeriesKind::kGauge);
    for (int i = 0; i < 240; ++i) // one sample/minute for 4 hours
        store.record(id, at(60.0 * i), double(i));

    const auto raw = store.range(id, at(60), at(180), Resolution::kRaw);
    ASSERT_EQ(raw.size(), 3u); // samples at 60, 120, 180
    EXPECT_DOUBLE_EQ(raw[0].last, 1.0);
    EXPECT_DOUBLE_EQ(raw[2].last, 3.0);

    const auto hours =
        store.range(id, at(0), at(4 * 3600 - 1), Resolution::kHour);
    ASSERT_EQ(hours.size(), 4u); // 3 closed + the open hour 3
    EXPECT_EQ(hours[0].count, 60u);
    EXPECT_DOUBLE_EQ(hours[1].min, 60.0);
    EXPECT_DOUBLE_EQ(hours[1].max, 119.0);

    // A window clipped to one hour returns exactly that bucket.
    const auto one =
        store.range(id, at(3600), at(2 * 3600 - 1), Resolution::kHour);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].start, at(3600));
}

TEST(MetricStore, PercentileOverWindowInterpolates)
{
    MetricStore store;
    const SeriesId id = store.define("g", SeriesKind::kGauge);
    // Values 1..5 inside the window, plus an outlier before it.
    store.record(id, at(0), 1000.0);
    for (int i = 1; i <= 5; ++i)
        store.record(id, at(100.0 + i), double(i));

    EXPECT_DOUBLE_EQ(
        store.percentile_over(id, at(110), Duration::seconds(10), 0), 1.0);
    EXPECT_DOUBLE_EQ(
        store.percentile_over(id, at(110), Duration::seconds(10), 100),
        5.0);
    EXPECT_DOUBLE_EQ(
        store.percentile_over(id, at(110), Duration::seconds(10), 50),
        3.0);
    EXPECT_DOUBLE_EQ(
        store.percentile_over(id, at(110), Duration::seconds(10), 75),
        4.0);
    // Empty window -> 0.
    EXPECT_DOUBLE_EQ(
        store.percentile_over(id, at(5000), Duration::seconds(1), 50),
        0.0);
}

TEST(MetricStore, MeanOverFallsBackToRollupsOnceRawWrapped)
{
    MetricStoreConfig config;
    config.raw_capacity = 8; // tiny: force the raw ring to wrap
    MetricStore store(config);
    const SeriesId id = store.define("g", SeriesKind::kGauge);
    // One sample per 30s for one hour: 120 samples, raw keeps last 8.
    for (int i = 0; i < 120; ++i)
        store.record(id, at(30.0 * i), 5.0);

    // Window reaches an hour back; raw no longer covers it, but the
    // minute rollups do, and the mean is still exact.
    EXPECT_DOUBLE_EQ(store.mean_over(id, at(3570), Duration::hours(1)),
                     5.0);
    // Raw-covered short window also works.
    EXPECT_DOUBLE_EQ(
        store.mean_over(id, at(3570), Duration::seconds(60)), 5.0);
}

TEST(MetricStore, RateOverComputesCounterSlope)
{
    MetricStore store;
    const SeriesId id = store.define("c", SeriesKind::kCounter);
    // Counter climbing 2/s.
    for (int i = 0; i <= 100; ++i)
        store.record(id, at(double(i)), 2.0 * i);

    EXPECT_NEAR(store.rate_over(id, at(100), Duration::seconds(50)), 2.0,
                1e-12);
    // Flat segment -> rate 0.
    store.record(id, at(200), 200.0);
    store.record(id, at(260), 200.0);
    EXPECT_DOUBLE_EQ(
        store.rate_over(id, at(260), Duration::seconds(60)), 0.0);
    // Counter born inside the window: first observation anchors it.
    MetricStore fresh;
    const SeriesId young = fresh.define("c", SeriesKind::kCounter);
    fresh.record(young, at(30), 0.0);
    fresh.record(young, at(60), 30.0);
    EXPECT_NEAR(fresh.rate_over(young, at(60), Duration::minutes(1)), 0.5,
                1e-12);
}

TEST(MetricStore, RateOverUsesRollupsPastTheRawRing)
{
    MetricStoreConfig config;
    config.raw_capacity = 4;
    MetricStore store(config);
    const SeriesId id = store.define("c", SeriesKind::kCounter);
    for (int i = 0; i <= 600; ++i) // 10 minutes at 1/s, counter = i
        store.record(id, at(double(i)), double(i));
    // The raw ring holds only the last 4 samples; the 5-minute-window
    // start is served from minute-rollup `last` values.
    EXPECT_NEAR(store.rate_over(id, at(600), Duration::minutes(5)), 1.0,
                0.05);
}

TEST(MetricStore, MemoryIsBoundedAcrossSimulatedDays)
{
    MetricStore store;
    const SeriesId util = store.define("u", SeriesKind::kGauge);
    const SeriesId depth = store.define("d", SeriesKind::kGauge);
    const SeriesId fails = store.define("f", SeriesKind::kCounter);

    // Warm up until every ring has wrapped at least once (30s cadence:
    // raw wraps after ~17h; minute ring after 2 days; hour after 30).
    double counter = 0;
    TimePoint t = TimePoint::origin();
    auto run_days = [&](int days) {
        const int samples = days * 86400 / 30;
        for (int i = 0; i < samples; ++i) {
            t += Duration::seconds(30);
            store.record(util, t, 0.5);
            store.record(depth, t, 10.0);
            store.record(fails, t, counter += 0.25);
        }
    };
    run_days(31);
    const size_t after_fill = store.memory_bytes();
    EXPECT_GT(after_fill, 0u);

    // Thirty more simulated days: not one byte of growth.
    run_days(30);
    EXPECT_EQ(store.memory_bytes(), after_fill);

    // Queries still answer from the retained window.
    EXPECT_DOUBLE_EQ(store.mean_over(util, t, Duration::hours(1)), 0.5);
    EXPECT_NEAR(store.rate_over(fails, t, Duration::hours(1)),
                0.25 / 30.0, 1e-9);

    // Only *defining* series grows memory, never recording.
    store.define("extra", SeriesKind::kGauge);
    EXPECT_GT(store.memory_bytes(), after_fill);
}

/**
 * The reference's ring: every entry ever pushed, the newest `capacity` of
 * them retained, indexed from the full history rather than by
 * MetricRing's wrap arithmetic.
 */
template <typename T>
class HistoryRing
{
  public:
    explicit HistoryRing(size_t capacity) : capacity_(capacity) {}

    void push(const T &x) { all_.push_back(x); }
    size_t size() const { return std::min(all_.size(), capacity_); }
    size_t capacity() const { return capacity_; }
    bool empty() const { return all_.empty(); }
    const T &at(size_t i) const { return all_[all_.size() - size() + i]; }

  private:
    size_t capacity_;
    std::vector<T> all_;
};

/**
 * Reference model of one series: the store's three rings rebuilt from the
 * same samples, queried by scanning every retained entry (the store's
 * algorithm before its window lookups became binary searches). The store
 * must match it bit for bit.
 */
class FullScanSeries
{
  public:
    explicit FullScanSeries(const MetricStoreConfig &config)
        : raw_(config.raw_capacity), minutes_(config.minute_capacity),
          hours_(config.hour_capacity)
    {
    }

    void
    record(TimePoint t, double v)
    {
        raw_.push(MetricSample{t, v});
        fold(minutes_, open_minute_, minute_open_, 1_min, t, v);
        fold(hours_, open_hour_, hour_open_, 1_h, t, v);
        ++samples_;
    }

    /** True once raw, minute and hour rings have all overwritten. */
    bool
    wrapped() const
    {
        return samples_ > raw_.capacity() &&
               closed_minutes_ > minutes_.capacity() &&
               closed_hours_ > hours_.capacity();
    }

    /** True once the raw and minute rings have each wrapped 3 times. */
    bool
    wrapped_thrice() const
    {
        return samples_ >= 4 * raw_.capacity() &&
               closed_minutes_ >= 4 * minutes_.capacity();
    }

    std::vector<RollupPoint>
    range(TimePoint t0, TimePoint t1, Resolution res) const
    {
        std::vector<RollupPoint> out;
        if (res == Resolution::kRaw) {
            for (size_t i = 0; i < raw_.size(); ++i) {
                const MetricSample &sample = raw_.at(i);
                if (sample.t < t0 || sample.t > t1)
                    continue;
                out.push_back(RollupPoint{sample.t, sample.v, sample.v,
                                          sample.v, sample.v, 1});
            }
            return out;
        }
        const bool minute = res == Resolution::kMinute;
        const Duration width = minute ? 1_min : 1_h;
        const HistoryRing<RollupPoint> &ring = minute ? minutes_ : hours_;
        const RollupPoint &open = minute ? open_minute_ : open_hour_;
        const bool is_open = minute ? minute_open_ : hour_open_;
        for (size_t i = 0; i < ring.size(); ++i) {
            const RollupPoint &p = ring.at(i);
            if (p.start + width <= t0 || p.start > t1)
                continue;
            out.push_back(p);
        }
        if (is_open && !(open.start + width <= t0) && !(open.start > t1))
            out.push_back(open);
        return out;
    }

    bool
    has_data(TimePoint t0, TimePoint t1) const
    {
        return !range(t0, t1, Resolution::kRaw).empty() ||
               !range(t0, t1, Resolution::kMinute).empty();
    }

    double
    percentile_over(TimePoint end, Duration window, double pct) const
    {
        const TimePoint t0 = end - window;
        std::vector<double> xs;
        for (size_t i = 0; i < raw_.size(); ++i) {
            const MetricSample &sample = raw_.at(i);
            if (sample.t >= t0 && sample.t <= end)
                xs.push_back(sample.v);
        }
        if (xs.empty())
            return 0.0;
        std::sort(xs.begin(), xs.end());
        const double rank =
            std::clamp(pct, 0.0, 100.0) / 100.0 * double(xs.size() - 1);
        const size_t lo = size_t(rank);
        const size_t hi = std::min(lo + 1, xs.size() - 1);
        const double frac = rank - double(lo);
        return xs[lo] + (xs[hi] - xs[lo]) * frac;
    }

    double
    mean_over(TimePoint end, Duration window) const
    {
        const TimePoint t0 = end - window;
        double sum = 0;
        uint64_t count = 0;
        const bool raw_covers = !raw_.empty() && raw_.at(0).t <= t0;
        if (raw_covers || (minutes_.empty() && !minute_open_)) {
            for (size_t i = 0; i < raw_.size(); ++i) {
                const MetricSample &sample = raw_.at(i);
                if (sample.t >= t0 && sample.t <= end) {
                    sum += sample.v;
                    ++count;
                }
            }
        } else {
            for (const RollupPoint &p : range(t0, end, Resolution::kMinute)) {
                sum += p.sum;
                count += p.count;
            }
        }
        return count ? sum / double(count) : 0.0;
    }

    double
    rate_over(TimePoint end, Duration window) const
    {
        const auto newest = value_at_or_before(end);
        if (!newest)
            return 0.0;
        auto oldest = value_at_or_before(end - window);
        if (!oldest) {
            if (raw_.empty() || raw_.at(0).t > end)
                return 0.0;
            oldest = raw_.at(0);
        }
        if (newest->t <= oldest->t)
            return 0.0;
        return std::max(0.0, newest->v - oldest->v) / window.to_seconds();
    }

  private:
    void
    fold(HistoryRing<RollupPoint> &closed, RollupPoint &open, bool &is_open,
         Duration bucket, TimePoint t, double v)
    {
        const int64_t w = bucket.to_micros();
        const TimePoint start =
            TimePoint::from_micros((t.to_micros() / w) * w);
        if (is_open && open.start != start) {
            closed.push(open);
            ++(bucket == 1_min ? closed_minutes_ : closed_hours_);
            is_open = false;
        }
        if (!is_open) {
            open = RollupPoint{start, v, v, v, v, 1};
            is_open = true;
            return;
        }
        open.min = std::min(open.min, v);
        open.max = std::max(open.max, v);
        open.sum += v;
        open.last = v;
        ++open.count;
    }

    std::optional<MetricSample>
    value_at_or_before(TimePoint t) const
    {
        for (size_t i = raw_.size(); i > 0; --i) {
            const MetricSample &sample = raw_.at(i - 1);
            if (sample.t <= t)
                return sample;
        }
        auto scan = [&](const HistoryRing<RollupPoint> &ring,
                        Duration width) -> std::optional<MetricSample> {
            for (size_t i = ring.size(); i > 0; --i) {
                const RollupPoint &p = ring.at(i - 1);
                if (p.start + width <= t)
                    return MetricSample{p.start + width, p.last};
            }
            return std::nullopt;
        };
        if (auto m = scan(minutes_, 1_min))
            return m;
        return scan(hours_, 1_h);
    }

    HistoryRing<MetricSample> raw_;
    HistoryRing<RollupPoint> minutes_;
    HistoryRing<RollupPoint> hours_;
    RollupPoint open_minute_;
    RollupPoint open_hour_;
    bool minute_open_ = false;
    bool hour_open_ = false;
    size_t samples_ = 0;
    size_t closed_minutes_ = 0;
    size_t closed_hours_ = 0;
};

void
expect_same_points(const std::vector<RollupPoint> &got,
                   const std::vector<RollupPoint> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].start, want[i].start);
        EXPECT_EQ(got[i].min, want[i].min);
        EXPECT_EQ(got[i].max, want[i].max);
        EXPECT_EQ(got[i].sum, want[i].sum);
        EXPECT_EQ(got[i].last, want[i].last);
        EXPECT_EQ(got[i].count, want[i].count);
    }
}

/**
 * Query times that exercise every window edge: each retained sample time
 * and its neighbours, minute/hour bucket boundaries around them (the open
 * bucket included), and points before the oldest and after the newest.
 */
std::vector<TimePoint>
edge_times(const std::vector<TimePoint> &recorded)
{
    std::vector<TimePoint> out = {TimePoint::origin()};
    const Duration eps = Duration::micros(1);
    for (const TimePoint t : recorded) {
        out.insert(out.end(), {t - eps, t, t + eps});
        for (const Duration w : {1_min, 1_h}) {
            const int64_t us = w.to_micros();
            const TimePoint start =
                TimePoint::from_micros((t.to_micros() / us) * us);
            out.insert(out.end(), {start, start - eps, start + w,
                                   start + w - eps, start + w / 2});
        }
    }
    if (!recorded.empty()) {
        out.push_back(recorded.front() - 3_h);
        out.push_back(recorded.back() + 3_h);
    }
    return out;
}

// Every windowed query (range at each resolution, has_data, mean_over,
// mean_if_data, percentile_over, rate_over, with and without a window
// hint) must return exactly what a full scan of the retained rings
// returns, as doubles compared bit for bit: random non-decreasing series
// with duplicate timestamps, capacities so small that all three rings
// wrap (raw and minute rings several times over, so the ring index
// wraps at every offset), and windows before the oldest sample, after
// the newest, empty or inverted, and straddling the open bucket. Hints
// are carried across random query times (mostly wrong guesses) and
// across queries at each newest sample (the alert engine's pattern).
TEST(MetricStoreProperty, WindowQueriesMatchFullScanReference)
{
    Rng rng(20251017);
    int wrapped_trials = 0;
    int wrapped_thrice_trials = 0;
    for (int trial = 0; trial < 150; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        MetricStoreConfig config;
        config.raw_capacity = size_t(rng.uniform_int(1, 24));
        config.minute_capacity = size_t(rng.uniform_int(1, 10));
        config.hour_capacity = size_t(rng.uniform_int(1, 4));
        MetricStore store(config);
        const SeriesId id = store.define("s", SeriesKind::kGauge);
        FullScanSeries ref(config);

        const std::vector<Duration> windows = {
            Duration::micros(0), Duration::micros(1), 30_s, 1_min,
            10_min,              1_h,                 2_h + 30_min};
        auto ref_mean = [&ref](TimePoint end, Duration window) {
            return ref.has_data(end - window, end)
                       ? std::optional<double>(ref.mean_over(end, window))
                       : std::nullopt;
        };
        MetricStore::WindowHint random_hint;
        auto check = [&](const std::vector<TimePoint> &recorded) {
            const std::vector<TimePoint> times = edge_times(recorded);
            auto pick = [&] {
                return times[size_t(
                    rng.uniform_int(0, int64_t(times.size()) - 1))];
            };
            for (int q = 0; q < 40; ++q) {
                const TimePoint t0 = pick();
                const TimePoint t1 = pick(); // may precede t0: empty
                for (const Resolution res :
                     {Resolution::kRaw, Resolution::kMinute,
                      Resolution::kHour}) {
                    expect_same_points(store.range(id, t0, t1, res),
                                       ref.range(t0, t1, res));
                }
                EXPECT_EQ(store.has_data(id, t0, t1), ref.has_data(t0, t1));

                const TimePoint end = pick();
                const Duration window = windows[size_t(
                    rng.uniform_int(0, int64_t(windows.size()) - 1))];
                const double pct = rng.uniform(0.0, 100.0);
                EXPECT_EQ(store.mean_over(id, end, window),
                          ref.mean_over(end, window));
                EXPECT_EQ(store.mean_if_data(id, end, window),
                          ref_mean(end, window));
                EXPECT_EQ(store.mean_if_data(id, end, window, &random_hint),
                          ref_mean(end, window));
                EXPECT_EQ(store.percentile_over(id, end, window, pct),
                          ref.percentile_over(end, window, pct));
                if (!window.is_zero()) {
                    EXPECT_EQ(store.rate_over(id, end, window),
                              ref.rate_over(end, window));
                    EXPECT_EQ(store.rate_over(id, end, window, &random_hint),
                              ref.rate_over(end, window));
                }
            }
        };
        MetricStore::WindowHint mean_hint;
        MetricStore::WindowHint rate_hint;
        const Duration steady_window =
            windows[size_t(rng.uniform_int(1, int64_t(windows.size()) - 1))];

        std::vector<TimePoint> recorded;
        TimePoint t = TimePoint::from_micros(rng.uniform_int(0, 7'200'000'000));
        const int samples = int(rng.uniform_int(0, 400));
        check(recorded); // no samples at all
        for (int i = 0; i < samples; ++i) {
            const double gap = rng.uniform();
            if (gap < 0.25) {
                // duplicate timestamp
            } else if (gap < 0.75) {
                t += Duration::micros(rng.uniform_int(1, 90'000'000));
            } else if (gap < 0.93) {
                t += Duration::minutes(rng.uniform_int(1, 10));
            } else {
                t += Duration::hours(rng.uniform_int(1, 3));
            }
            // Magnitudes spanning nine decades: any change in the order
            // of summation shows in the low bits.
            const double v =
                rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform_int(-3, 6));
            store.record(id, t, v);
            ref.record(t, v);
            recorded.push_back(t);
            ASSERT_EQ(store.mean_if_data(id, t, steady_window, &mean_hint),
                      ref_mean(t, steady_window));
            ASSERT_EQ(store.rate_over(id, t, steady_window, &rate_hint),
                      ref.rate_over(t, steady_window));
            if (i % 50 == 49 || i + 1 == samples)
                check(recorded);
        }
        if (ref.wrapped())
            ++wrapped_trials;
        if (ref.wrapped_thrice())
            ++wrapped_thrice_trials;
    }
    // Most trials wrap all three rings; the rest cover the unwrapped case.
    EXPECT_GT(wrapped_trials, 50);
    EXPECT_GT(wrapped_thrice_trials, 50);
}

/** Both stores hold the same series bit for bit: every retained raw
 *  sample and every closed and open rollup at both resolutions. */
void
expect_identical_series(const MetricStore &a, const MetricStore &b,
                        SeriesId id)
{
    auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    for (const Resolution res :
         {Resolution::kRaw, Resolution::kMinute, Resolution::kHour}) {
        const auto pa = a.range(id, TimePoint::origin(), TimePoint::max(), res);
        const auto pb = b.range(id, TimePoint::origin(), TimePoint::max(), res);
        ASSERT_EQ(pa.size(), pb.size()) << "resolution " << int(res);
        for (size_t i = 0; i < pa.size(); ++i) {
            ASSERT_EQ(pa[i].start, pb[i].start);
            ASSERT_EQ(bits(pa[i].min), bits(pb[i].min));
            ASSERT_EQ(bits(pa[i].max), bits(pb[i].max));
            ASSERT_EQ(bits(pa[i].sum), bits(pb[i].sum));
            ASSERT_EQ(bits(pa[i].last), bits(pb[i].last));
            ASSERT_EQ(pa[i].count, pb[i].count);
        }
    }
    ASSERT_EQ(a.samples_recorded(id), b.samples_recorded(id));
}

// record_run must leave a store exactly as the same samples recorded one
// record() call at a time (and as the full-scan reference's own fold):
// every raw sample and every closed and open minute and hour rollup,
// compared bit for bit, and every hinted query
// (whose shortcuts read the stretch of equal values record_run keeps).
// Gauges and counters, piecewise-constant and noisy values, steps from
// 0 (one instant) to 20 minutes, runs that cross minute and hour
// boundaries, wrap the raw ring, or are longer than it.
TEST(MetricStoreProperty, RecordRunMatchesSingleRecords)
{
    Rng rng(20261019);
    int crossed_hour = 0;
    int wrapped_raw = 0;
    int longer_than_raw = 0;
    const std::vector<Duration> steps = {Duration::zero(), 1_s, 7_s, 30_s,
                                         45_s, 61_s, 20_min};
    for (int trial = 0; trial < 120; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        MetricStoreConfig config;
        config.raw_capacity = size_t(rng.uniform_int(1, 40));
        config.minute_capacity = size_t(rng.uniform_int(1, 12));
        config.hour_capacity = size_t(rng.uniform_int(1, 5));
        MetricStore runs(config);
        MetricStore singles(config);
        FullScanSeries ref(config);
        const SeriesKind kind =
            trial % 2 ? SeriesKind::kCounter : SeriesKind::kGauge;
        const SeriesId id = runs.define("s", kind);
        ASSERT_EQ(singles.define("s", kind), id);
        MetricStore::WindowHint hints[2][3];

        TimePoint t = TimePoint::from_micros(rng.uniform_int(0, 7'200'000'000));
        double level = rng.uniform(-5.0, 5.0);
        for (int r = 0; r < 25; ++r) {
            const Duration step = rng.pick(steps);
            const size_t k = size_t(
                rng.uniform_int(1, int64_t(3 * config.raw_capacity)));
            std::vector<double> v(k);
            const bool flat = rng.uniform() < 0.5;
            for (double &x : v) {
                if (kind == SeriesKind::kCounter) {
                    if (!flat || rng.uniform() < 0.1)
                        level += double(rng.uniform_int(0, 3));
                } else if (!flat) {
                    level = rng.uniform(-1.0, 1.0) *
                            std::pow(10.0, double(rng.uniform_int(-3, 6)));
                }
                x = level;
            }
            wrapped_raw += runs.range(id, TimePoint::origin(),
                                      TimePoint::max(), Resolution::kRaw)
                                       .size() +
                                   k >
                               config.raw_capacity;
            longer_than_raw += k > config.raw_capacity;
            const TimePoint last = t + int64_t(k - 1) * step;
            crossed_hour += last.to_micros() / 3'600'000'000 !=
                            t.to_micros() / 3'600'000'000;

            runs.record_run(id, t, step, v);
            for (size_t i = 0; i < k; ++i) {
                singles.record(id, t + int64_t(i) * step, v[i]);
                ref.record(t + int64_t(i) * step, v[i]);
            }
            ASSERT_NO_FATAL_FAILURE(expect_identical_series(runs, singles, id));
            for (const Resolution res :
                 {Resolution::kRaw, Resolution::kMinute, Resolution::kHour}) {
                ASSERT_NO_FATAL_FAILURE(expect_same_points(
                    runs.range(id, TimePoint::origin(), TimePoint::max(), res),
                    ref.range(TimePoint::origin(), TimePoint::max(), res)));
            }

            for (const Duration window : {30_s, 10_min, 2_h}) {
                const size_t w = window == 30_s ? 0 : window == 10_min ? 1 : 2;
                for (int side = 0; side < 2; ++side) {
                    const MetricStore &store = side ? singles : runs;
                    MetricStore::WindowHint &hint = hints[side][w];
                    const auto mean =
                        store.mean_if_data(id, last, window, &hint);
                    const auto value = store.value_at(id, last, &hint);
                    const double rate =
                        store.rate_over(id, last, window, &hint);
                    ASSERT_EQ(mean, singles.mean_if_data(id, last, window));
                    ASSERT_EQ(value, singles.value_at(id, last));
                    ASSERT_EQ(rate, singles.rate_over(id, last, window));
                }
            }
            t = last + Duration::micros(rng.uniform_int(0, 1) *
                                        rng.uniform_int(0, 5'400'000'000));
        }
    }
    EXPECT_GT(crossed_hour, 100);
    EXPECT_GT(wrapped_raw, 500);
    EXPECT_GT(longer_than_raw, 500);
}

} // namespace
} // namespace tacc::ops
