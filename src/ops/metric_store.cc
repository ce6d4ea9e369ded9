#include "ops/metric_store.h"

#include <algorithm>
#include <cassert>

namespace tacc::ops {

namespace {

constexpr Duration kMinute = Duration::minutes(1);
constexpr Duration kHour = Duration::hours(1);

TimePoint
bucket_start(TimePoint t, Duration bucket)
{
    const int64_t w = bucket.to_micros();
    return TimePoint::from_micros((t.to_micros() / w) * w);
}

/** Ring indices [first, last) of the entries inside a query window. */
struct Window {
    size_t first = 0;
    size_t last = 0;

    bool empty() const { return first == last; }
    size_t size() const { return last - first; }
};

/**
 * Number of leading entries of a time-sorted ring (record() keeps every
 * ring sorted) for which `pred` holds; `pred` must hold on a prefix. A
 * window's bounds are two such binary searches, and every query visits
 * only the entries inside its window, oldest first: sums accumulate in
 * the same order a full scan would.
 */
template <typename T, typename Pred>
size_t
count_prefix(const MetricRing<T> &ring, Pred pred)
{
    size_t lo = 0;
    size_t hi = ring.size();
    while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (pred(ring.at(mid)))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/**
 * count_prefix, trying `guess` first: the prefix length is the one n
 * with pred true on entry n - 1 and false on entry n, so two compares
 * confirm a right guess and a wrong one falls back to the search.
 */
template <typename T, typename Pred>
size_t
count_prefix(const MetricRing<T> &ring, Pred pred, size_t guess)
{
    const size_t n = ring.size();
    if (guess <= n && (guess == 0 || pred(ring.at(guess - 1))) &&
        (guess == n || !pred(ring.at(guess))))
        return guess;
    return count_prefix(ring, pred);
}

/** Retained raw samples at or before t; queries ending at the newest
 *  sample (every alert evaluation) answer in one compare. */
size_t
raw_at_or_before(const MetricRing<MetricSample> &raw, TimePoint t,
                 size_t guess)
{
    return count_prefix(
        raw, [t](const MetricSample &x) { return x.t <= t; }, guess);
}

/** The raw-ring position a window hint guesses. */
size_t
hinted(const MetricRing<MetricSample> &raw,
       const MetricStore::WindowHint *hint)
{
    return hint ? raw.size() - std::min(hint->newer, raw.size()) : 0;
}

/** Raw samples with t in [t0, t1]. */
Window
raw_window(const MetricRing<MetricSample> &raw, TimePoint t0, TimePoint t1,
           size_t first_guess = 0)
{
    const size_t first = count_prefix(
        raw, [t0](const MetricSample &x) { return x.t < t0; }, first_guess);
    const size_t last = raw_at_or_before(raw, t1, raw.size());
    return Window{first, std::max(first, last)};
}

/** Rollup buckets of the given width intersecting [t0, t1]. */
Window
rollup_window(const MetricRing<RollupPoint> &ring, Duration width,
              TimePoint t0, TimePoint t1)
{
    const size_t first = count_prefix(ring, [width, t0](const RollupPoint &p) {
        return p.start + width <= t0;
    });
    const size_t last = count_prefix(
        ring, [t1](const RollupPoint &p) { return p.start <= t1; });
    return Window{first, std::max(first, last)};
}

/** True if a bucket of the given width intersects [t0, t1]. */
bool
bucket_intersects(const RollupPoint &p, Duration width, TimePoint t0,
                  TimePoint t1)
{
    return p.start + width > t0 && p.start <= t1;
}

} // namespace

MetricStore::MetricStore(MetricStoreConfig config) : config_(config)
{
    assert(config_.raw_capacity > 0 && config_.minute_capacity > 0 &&
           config_.hour_capacity > 0);
}

SeriesId
MetricStore::define(const std::string &name, SeriesKind kind)
{
    assert(!name.empty());
    auto it = index_.find(name);
    if (it != index_.end()) {
        assert(series_[size_t(it->second)].kind == kind);
        return it->second;
    }
    const SeriesId id = SeriesId(series_.size());
    series_.emplace_back(name, kind, config_);
    index_.emplace(name, id);
    return id;
}

SeriesId
MetricStore::find(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? kInvalidSeries : it->second;
}

const MetricStore::Series &
MetricStore::series_at(SeriesId id) const
{
    assert(id >= 0 && size_t(id) < series_.size());
    return series_[size_t(id)];
}

const std::string &
MetricStore::name_of(SeriesId id) const
{
    return series_at(id).name;
}

SeriesKind
MetricStore::kind_of(SeriesId id) const
{
    return series_at(id).kind;
}

std::vector<std::string>
MetricStore::names() const
{
    std::vector<std::string> out;
    out.reserve(series_.size());
    for (const auto &s : series_)
        out.push_back(s.name);
    std::sort(out.begin(), out.end());
    return out;
}

void
MetricStore::fold(MetricRing<RollupPoint> &closed, RollupPoint &open,
                  bool &is_open, Duration bucket, TimePoint t, double v)
{
    // Samples arrive in time order, so one before the open bucket's end
    // belongs to it: the bucket start (a division) is computed only
    // when a new bucket opens.
    if (is_open && t < open.start + bucket) {
        open.min = std::min(open.min, v);
        open.max = std::max(open.max, v);
        open.sum += v;
        open.last = v;
        ++open.count;
        return;
    }
    if (is_open)
        closed.push(open);
    open = RollupPoint{bucket_start(t, bucket), v, v, v, v, 1};
    is_open = true;
}

void
MetricStore::record(SeriesId id, TimePoint t, double v)
{
    assert(id >= 0 && size_t(id) < series_.size());
    Series &s = series_[size_t(id)];
    assert(t >= TimePoint::origin());
    assert(s.raw.empty() || t >= s.raw.back().t);
    s.raw.push(MetricSample{t, v});
    fold(s.minutes, s.open_minute, s.minute_open, kMinute, t, v);
    fold(s.hours, s.open_hour, s.hour_open, kHour, t, v);
}

std::optional<MetricSample>
MetricStore::latest(SeriesId id) const
{
    const Series &s = series_at(id);
    if (s.raw.empty())
        return std::nullopt;
    return s.raw.back();
}

std::vector<RollupPoint>
MetricStore::range(SeriesId id, TimePoint t0, TimePoint t1,
                   Resolution res) const
{
    const Series &s = series_at(id);
    std::vector<RollupPoint> out;
    if (res == Resolution::kRaw) {
        const Window w = raw_window(s.raw, t0, t1);
        out.reserve(w.size());
        for (size_t i = w.first; i < w.last; ++i) {
            const MetricSample &sample = s.raw.at(i);
            out.push_back(RollupPoint{sample.t, sample.v, sample.v,
                                      sample.v, sample.v, 1});
        }
        return out;
    }
    const Duration width = res == Resolution::kMinute ? kMinute : kHour;
    const MetricRing<RollupPoint> &ring =
        res == Resolution::kMinute ? s.minutes : s.hours;
    const RollupPoint &open =
        res == Resolution::kMinute ? s.open_minute : s.open_hour;
    const bool is_open =
        res == Resolution::kMinute ? s.minute_open : s.hour_open;
    const Window w = rollup_window(ring, width, t0, t1);
    out.reserve(w.size() + 1);
    for (size_t i = w.first; i < w.last; ++i)
        out.push_back(ring.at(i));
    if (is_open && bucket_intersects(open, width, t0, t1))
        out.push_back(open);
    return out;
}

bool
MetricStore::has_data(SeriesId id, TimePoint t0, TimePoint t1) const
{
    const Series &s = series_at(id);
    return !raw_window(s.raw, t0, t1).empty() ||
           !rollup_window(s.minutes, kMinute, t0, t1).empty() ||
           (s.minute_open &&
            bucket_intersects(s.open_minute, kMinute, t0, t1));
}

double
MetricStore::percentile_over(SeriesId id, TimePoint end, Duration window,
                             double pct) const
{
    const Series &s = series_at(id);
    const Window w = raw_window(s.raw, end - window, end);
    if (w.empty())
        return 0.0;
    std::vector<double> xs;
    xs.reserve(w.size());
    for (size_t i = w.first; i < w.last; ++i)
        xs.push_back(s.raw.at(i).v);
    std::sort(xs.begin(), xs.end());
    const double rank =
        std::clamp(pct, 0.0, 100.0) / 100.0 * double(xs.size() - 1);
    const size_t lo = size_t(rank);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - double(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
MetricStore::mean_over(SeriesId id, TimePoint end, Duration window) const
{
    return mean_if_data(id, end, window).value_or(0.0);
}

std::optional<double>
MetricStore::mean_if_data(SeriesId id, TimePoint end, Duration window,
                          WindowHint *hint) const
{
    const Series &s = series_at(id);
    const TimePoint t0 = end - window;
    auto minute_data = [&s, t0, end] {
        return !rollup_window(s.minutes, kMinute, t0, end).empty() ||
               (s.minute_open &&
                bucket_intersects(s.open_minute, kMinute, t0, end));
    };
    // Raw first; if the raw ring's oldest retained sample post-dates the
    // window start, widen via the minute rollups (closed, then the open
    // bucket) so the answer still covers it.
    const bool raw_covers = !s.raw.empty() && s.raw.at(0).t <= t0;
    if (raw_covers || (s.minutes.empty() && !s.minute_open)) {
        const Window w = raw_window(s.raw, t0, end, hinted(s.raw, hint));
        if (hint)
            hint->newer = s.raw.size() - w.first;
        if (w.empty())
            return minute_data() ? std::optional<double>(0.0) : std::nullopt;
        double sum = 0;
        for (size_t i = w.first; i < w.last; ++i)
            sum += s.raw.at(i).v;
        return sum / double(w.size());
    }
    double sum = 0;
    uint64_t count = 0;
    const Window w = rollup_window(s.minutes, kMinute, t0, end);
    for (size_t i = w.first; i < w.last; ++i) {
        sum += s.minutes.at(i).sum;
        count += s.minutes.at(i).count;
    }
    if (s.minute_open && bucket_intersects(s.open_minute, kMinute, t0, end)) {
        sum += s.open_minute.sum;
        count += s.open_minute.count;
    }
    if (count)
        return sum / double(count);
    // No bucket in the window; a raw sample in it still counts as data.
    return raw_window(s.raw, t0, end).empty() ? std::nullopt
                                              : std::optional<double>(0.0);
}

std::optional<MetricSample>
MetricStore::value_at_or_before(const Series &s, TimePoint t, size_t raw)
{
    if (raw > 0)
        return s.raw.at(raw - 1);
    // Raw ring starts after t: fall back to the newest closed rollup
    // whose bucket ended by t (its `last` value, stamped at bucket end).
    auto scan = [t](const MetricRing<RollupPoint> &ring,
                    Duration width) -> std::optional<MetricSample> {
        const size_t n = count_prefix(ring, [&](const RollupPoint &p) {
            return p.start + width <= t;
        });
        if (n == 0)
            return std::nullopt;
        const RollupPoint &p = ring.at(n - 1);
        return MetricSample{p.start + width, p.last};
    };
    if (auto m = scan(s.minutes, kMinute))
        return m;
    return scan(s.hours, kHour);
}

double
MetricStore::rate_over(SeriesId id, TimePoint end, Duration window,
                       WindowHint *hint) const
{
    assert(!window.is_zero() && !window.is_negative());
    const Series &s = series_at(id);
    const auto newest =
        value_at_or_before(s, end, raw_at_or_before(s.raw, end, s.raw.size()));
    if (!newest)
        return 0.0;
    const TimePoint t0 = end - window;
    const size_t before = raw_at_or_before(s.raw, t0, hinted(s.raw, hint));
    if (hint)
        hint->newer = s.raw.size() - before;
    auto oldest = value_at_or_before(s, t0, before);
    if (!oldest) {
        // Counter born inside the window: treat its first retained
        // observation as the window-start value.
        if (s.raw.empty() || s.raw.at(0).t > end)
            return 0.0;
        oldest = s.raw.at(0);
    }
    if (newest->t <= oldest->t)
        return 0.0;
    const double delta = newest->v - oldest->v;
    return std::max(0.0, delta) / window.to_seconds();
}

size_t
MetricStore::memory_bytes() const
{
    size_t total = 0;
    for (const auto &s : series_) {
        total += s.raw.memory_bytes() + s.minutes.memory_bytes() +
                 s.hours.memory_bytes() + sizeof(Series);
    }
    return total;
}

} // namespace tacc::ops
