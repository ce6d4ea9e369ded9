#include "ops/metric_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

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

/**
 * The raw-ring position of the sample after absolute index `abs`, where
 * `recorded` samples were ever recorded: a hint's guess that the window
 * moved one sample on. Out-of-ring guesses come back as positions the
 * search rejects.
 */
size_t
next_position(uint64_t abs, uint64_t recorded, size_t size)
{
    const uint64_t base = recorded - size;
    return abs + 1 >= base ? size_t(abs + 1 - base) : 0;
}

/** Raw samples with t in [t0, t1]. */
Window
raw_window(const MetricRing<MetricSample> &raw, TimePoint t0, TimePoint t1,
           size_t first_guess = 0, size_t last_guess = SIZE_MAX)
{
    const size_t first = count_prefix(
        raw, [t0](const MetricSample &x) { return x.t < t0; }, first_guess);
    const size_t last = raw_at_or_before(
        raw, t1, last_guess == SIZE_MAX ? raw.size() : last_guess);
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

/**
 * One resolution's open rollup bucket, held in locals while a run of
 * samples is folded: a sample before its end belongs to it; a later one
 * flushes it to the closed ring and opens its own bucket (the next one,
 * or else a division finds its start).
 */
class OpenBucket
{
  public:
    OpenBucket(const RollupPoint &p, bool open, Duration width)
        : start_(p.start), lo_(p.min), hi_(p.max), sum_(p.sum),
          last_(p.last), count_(p.count), open_(open),
          end_(open ? p.start + width : TimePoint::origin()), width_(width)
    {
    }

    void
    add(MetricRing<RollupPoint> &closed, TimePoint t, double x)
    {
        // Samples are never before the origin, so a closed bucket (end_
        // at the origin) opens at the first one.
        if (t < end_) {
            lo_ = std::min(lo_, x);
            hi_ = std::max(hi_, x);
            sum_ += x;
            last_ = x;
            ++count_;
            return;
        }
        const TimePoint start =
            open_ && t < end_ + width_ ? end_ : bucket_start(t, width_);
        if (open_)
            closed.push(RollupPoint{start_, lo_, hi_, sum_, last_, count_});
        start_ = start;
        end_ = start + width_;
        lo_ = hi_ = sum_ = last_ = x;
        count_ = 1;
        open_ = true;
    }

    void
    store(RollupPoint &p, bool &open) const
    {
        p = RollupPoint{start_, lo_, hi_, sum_, last_, count_};
        open = open_;
    }

  private:
    TimePoint start_;
    double lo_;
    double hi_;
    double sum_;
    double last_;
    uint64_t count_;
    bool open_;
    TimePoint end_;
    Duration width_;
};

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
MetricStore::record(SeriesId id, TimePoint t, double v)
{
    assert(id >= 0 && size_t(id) < series_.size());
    Series &s = series_[size_t(id)];
    assert(t >= TimePoint::origin());
    assert(s.raw.empty() || t >= s.raw.back().t);
    // A new stretch starts at a sample whose bits differ from the
    // sample before it.
    if (s.raw.empty() || std::bit_cast<uint64_t>(v) !=
                             std::bit_cast<uint64_t>(s.raw.back().v))
        s.stretch_since = t;
    s.raw.push(MetricSample{t, v});
    ++s.recorded;
    OpenBucket minute(s.open_minute, s.minute_open, kMinute);
    minute.add(s.minutes, t, v);
    minute.store(s.open_minute, s.minute_open);
    OpenBucket hour(s.open_hour, s.hour_open, kHour);
    hour.add(s.hours, t, v);
    hour.store(s.open_hour, s.hour_open);
}

void
MetricStore::record_run(SeriesId id, TimePoint first, Duration step,
                        std::span<const double> v)
{
    assert(id >= 0 && size_t(id) < series_.size());
    assert(!step.is_negative());
    Series &s = series_[size_t(id)];
    assert(first >= TimePoint::origin());
    assert(s.raw.empty() || first >= s.raw.back().t);
    if (v.empty())
        return;
    uint64_t prev = s.raw.empty() ? ~std::bit_cast<uint64_t>(v[0])
                                  : std::bit_cast<uint64_t>(s.raw.back().v);
    for (size_t i = 0; i < v.size(); ++i) {
        const uint64_t bits = std::bit_cast<uint64_t>(v[i]);
        if (bits != prev) {
            s.stretch_since = first + int64_t(i) * step;
            prev = bits;
        }
    }
    s.raw.push_n(v.size(), [first, step, v](size_t i) {
        return MetricSample{first + int64_t(i) * step, v[i]};
    });
    s.recorded += v.size();
    // Both rollups in one pass over the run, their open buckets in
    // locals: each bucket's adds happen in sample order, as record()
    // makes them.
    OpenBucket minute(s.open_minute, s.minute_open, kMinute);
    OpenBucket hour(s.open_hour, s.hour_open, kHour);
    for (size_t i = 0; i < v.size(); ++i) {
        const TimePoint t = first + int64_t(i) * step;
        minute.add(s.minutes, t, v[i]);
        hour.add(s.hours, t, v[i]);
    }
    minute.store(s.open_minute, s.minute_open);
    hour.store(s.open_hour, s.hour_open);
}

std::optional<MetricSample>
MetricStore::latest(SeriesId id) const
{
    const Series &s = series_at(id);
    if (s.raw.empty())
        return std::nullopt;
    return s.raw.back();
}

std::optional<double>
MetricStore::value_at(SeriesId id, TimePoint t, WindowHint *hint) const
{
    const Series &s = series_at(id);
    const size_t n = s.raw.size();
    if (hint && settled_at(id, t))
        return s.raw.back().v;
    const size_t at = raw_at_or_before(
        s.raw, t, hint ? next_position(hint->end, s.recorded, n) : n);
    if (hint)
        hint->end = s.recorded - n + at;
    if (at == 0)
        return std::nullopt;
    return s.raw.at(at - 1).v;
}

bool
MetricStore::answers_as_of(SeriesId id, TimePoint first, Duration step,
                           size_t k, Duration window, bool mean) const
{
    const Series &s = series_at(id);
    if (k == 0)
        return true;
    assert(k <= config_.raw_capacity);
    // The oldest sample the raw ring holds once the run is recorded.
    const size_t n = s.raw.size();
    const bool evicts = n + k > config_.raw_capacity;
    TimePoint oldest = n > 0 ? s.raw.at(0).t : first;
    if (evicts) {
        const size_t e = n + k - config_.raw_capacity;
        oldest = e < n ? s.raw.at(e).t : first + int64_t(e - n) * step;
    }
    // Strictly before the first window's start: every sample from that
    // start on is retained, duplicate timestamps included, and a mean
    // takes its raw path at every instant.
    if (oldest < first - window)
        return true;
    // Nothing evicted: the ring holds every sample ever recorded, so a
    // rate reads the samples it read at that instant (a mean of a young
    // series would read the open minute bucket, which has moved on).
    return !mean && !evicts;
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
        const size_t n = s.raw.size();
        const Window w =
            hint ? raw_window(s.raw, t0, end,
                              next_position(hint->first, s.recorded, n),
                              next_position(hint->end, s.recorded, n))
                 : raw_window(s.raw, t0, end);
        if (hint) {
            hint->first = s.recorded - n + w.first;
            hint->end = s.recorded - n + w.last;
        }
        if (w.empty())
            return minute_data() ? std::optional<double>(0.0) : std::nullopt;
        // Samples after the newest stretch's start all hold its value.
        const bool flat = hint && s.stretch_since < t0;
        if (flat && hint->flat_since == s.stretch_since &&
            hint->flat_count == w.size())
            return hint->flat_mean;
        double sum = 0;
        for (size_t i = w.first; i < w.last; ++i)
            sum += s.raw.at(i).v;
        const double mean = sum / double(w.size());
        if (flat) {
            hint->flat_since = s.stretch_since;
            hint->flat_count = w.size();
            hint->flat_mean = mean;
        }
        return mean;
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
    // Settled by the window start: the values at or before t0 and at or
    // before end are both the newest, so the increase is c - c and the
    // rate 0.
    if (hint && settled_at(id, end - window))
        return 0.0;
    const size_t n = s.raw.size();
    const size_t at_end = raw_at_or_before(
        s.raw, end, hint ? next_position(hint->end, s.recorded, n) : n);
    const auto newest = value_at_or_before(s, end, at_end);
    if (!newest)
        return 0.0;
    const TimePoint t0 = end - window;
    const size_t before = raw_at_or_before(
        s.raw, t0, hint ? next_position(hint->first, s.recorded, n) : 0);
    if (hint) {
        hint->first = s.recorded - n + before;
        hint->end = s.recorded - n + at_end;
    }
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
