/**
 * @file
 * Fixed-memory time-series store for cluster operations telemetry.
 *
 * A MetricStore holds named series (gauges and monotonic counters) in
 * per-series ring buffers at three resolutions: raw samples, 1-minute
 * rollups, and 1-hour rollups. Each rollup keeps min/max/sum/count/last,
 * so downsampled timelines and windowed aggregates survive long after the
 * raw ring has wrapped. All buffers are allocated up front at their
 * configured capacity and never grow: memory is bounded by the number of
 * series, not by how long the cluster has been running — the property an
 * always-on operations daemon needs.
 *
 * Timestamps within one series must be non-negative and non-decreasing
 * (the collectors sample simulated time forward from the origin, so this
 * holds by construction).
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.h"

namespace tacc::ops {

/** Index of a defined series; stable for the store's lifetime. */
using SeriesId = int;
inline constexpr SeriesId kInvalidSeries = -1;

enum class SeriesKind {
    kGauge,   ///< instantaneous level (utilization, queue depth)
    kCounter, ///< cumulative monotonic total (preemptions, failures)
};

enum class Resolution { kRaw, kMinute, kHour };

/** One raw observation. */
struct MetricSample {
    TimePoint t;
    double v = 0;
};

/** Aggregate of the samples falling into one rollup bucket. */
struct RollupPoint {
    TimePoint start; ///< bucket start (aligned to the bucket width)
    double min = 0;
    double max = 0;
    double sum = 0;
    double last = 0;
    uint64_t count = 0;

    double mean() const { return count ? sum / double(count) : 0.0; }
};

/** Per-series ring capacities (identical for every series). */
struct MetricStoreConfig {
    /** Raw samples retained (newest win). */
    size_t raw_capacity = 2048;
    /** 1-minute rollups retained (2880 = two days). */
    size_t minute_capacity = 2880;
    /** 1-hour rollups retained (720 = thirty days). */
    size_t hour_capacity = 720;
};

/** Bounded ring of T; oldest entries are overwritten once full. */
template <typename T>
class MetricRing
{
  public:
    explicit MetricRing(size_t capacity) : capacity_(capacity)
    {
        data_.reserve(capacity_);
    }

    void
    push(const T &x)
    {
        if (data_.size() < capacity_) {
            data_.push_back(x);
        } else {
            data_[head_] = x;
            if (++head_ == capacity_)
                head_ = 0;
        }
    }

    /** push(make(i)) for i in [0, n), in order. */
    template <typename Make>
    void
    push_n(size_t n, Make make)
    {
        size_t i = 0;
        for (; i < n && data_.size() < capacity_; ++i)
            data_.push_back(make(i));
        // Full from here on: overwrite the oldest, the write position
        // held in a local.
        T *data = data_.data();
        size_t head = head_;
        for (; i < n; ++i) {
            data[head] = make(i);
            if (++head == capacity_)
                head = 0;
        }
        head_ = head;
    }

    size_t size() const { return data_.size(); }
    size_t capacity() const { return capacity_; }
    bool empty() const { return data_.empty(); }

    /** i-th element, oldest first (i < size()). */
    const T &
    at(size_t i) const
    {
        // head_ + i < 2 * size(): one wrap at most, no division.
        const size_t j = head_ + i;
        return data_[j < data_.size() ? j : j - data_.size()];
    }

    const T &back() const { return at(size() - 1); }

    /** Bytes reserved by the backing storage (capacity, not size). */
    size_t memory_bytes() const { return data_.capacity() * sizeof(T); }

  private:
    size_t capacity_;
    size_t head_ = 0; ///< index of the oldest element once full
    std::vector<T> data_;
};

/** The store. */
class MetricStore
{
  public:
    explicit MetricStore(MetricStoreConfig config = {});

    /**
     * Defines (or finds) a series. Re-defining an existing name returns
     * its existing id; the kind must match.
     */
    SeriesId define(const std::string &name, SeriesKind kind);

    /** Id of a series, or kInvalidSeries if never defined. */
    SeriesId find(const std::string &name) const;

    size_t series_count() const { return series_.size(); }
    const std::string &name_of(SeriesId id) const;
    SeriesKind kind_of(SeriesId id) const;

    /** All series names, sorted (deterministic report order). */
    std::vector<std::string> names() const;

    /**
     * Records one observation. Gauges record the instantaneous level;
     * counters record the *cumulative* total (rates are derived at query
     * time). Time must be >= the series' previous sample.
     */
    void record(SeriesId id, TimePoint t, double v);

    /**
     * Records v[i] at first + i * step, oldest first: the same raw-ring
     * writes and rollup adds, in the same order, as v.size() record()
     * calls, made by one tight loop over the raw ring and one over
     * both rollups. The ops center records each series of a run of
     * quiet sample instants with one call per chunk.
     */
    void record_run(SeriesId id, TimePoint first, Duration step,
                    std::span<const double> v);

    /** Newest sample of a series, if any. */
    std::optional<MetricSample> latest(SeriesId id) const;

    /** Samples a series has ever recorded: a new sample changes it. */
    uint64_t samples_recorded(SeriesId id) const
    {
        return series_at(id).recorded;
    }

    /**
     * True if the series' value at t, and at every later time until it
     * records again, is its newest value: its newest stretch of
     * bit-identical values began at or before t, and a retained sample
     * lies at or before t. value_at then answers the newest value, and
     * a rate over a window that starts at t or later answers 0.
     */
    bool
    settled_at(SeriesId id, TimePoint t) const
    {
        // The newest retained sample at or before t, and every sample
        // after it, are in the newest stretch.
        const Series &s = series_at(id);
        return !s.raw.empty() && s.stretch_since <= t && s.raw.at(0).t <= t;
    }

    /**
     * Where a repeated windowed query fell in the raw ring: the
     * absolute indices (samples ever recorded before them) of its
     * window's first sample and of the sample after its last. A caller
     * asking about one series once per sample instant keeps a hint per
     * query: the next query's window then starts and ends one sample
     * further on, which two compares each confirm — whether each
     * instant's sample was recorded just before the query or the
     * samples of a whole run were recorded first. A stale or wrong hint
     * only costs a binary search, so results never depend on it.
     */
    struct WindowHint {
        uint64_t first = 0;
        uint64_t end = 0;
        /**
         * The last mean over a raw window whose samples all hold one
         * value: the time that value's stretch began, the sample count
         * and the mean. The same stretch and count mean the same
         * additions, so mean_if_data returns it without summing.
         */
        TimePoint flat_since = TimePoint::max();
        size_t flat_count = 0;
        double flat_mean = 0;
    };

    /**
     * Value of the newest retained sample at or before t, if any. With
     * a hint, a series whose value has not changed since t or earlier
     * answers with its newest value, without a search.
     */
    std::optional<double> value_at(SeriesId id, TimePoint t,
                                   WindowHint *hint = nullptr) const;

    /**
     * True if, once k samples at first, first + step, ... are recorded
     * with record_run, mean_if_data (when `mean`) or rate_over and
     * value_at, asked at any of those instants with a window of at
     * most `window`, answer as they would have with the samples after
     * that instant not yet recorded. They do when the raw ring then
     * still holds every sample the query reads and the query reads
     * samples only: a mean whose window start the ring covers at the
     * first instant, a rate too when the ring evicts nothing. The
     * alert engine checks this before the ops center records a run
     * ahead of the rules. k must not exceed the raw capacity.
     */
    bool answers_as_of(SeriesId id, TimePoint first, Duration step,
                       size_t k, Duration window, bool mean) const;

    /** Raw samples retained per series. */
    size_t raw_capacity() const { return config_.raw_capacity; }

    /**
     * Rollup points intersecting [t0, t1] at the given resolution,
     * oldest first. kRaw returns each retained sample as a degenerate
     * rollup (count 1). Partial (still-open) buckets are included.
     */
    std::vector<RollupPoint> range(SeriesId id, TimePoint t0, TimePoint t1,
                                   Resolution res) const;

    /**
     * True if any raw sample lies in [t0, t1] or any closed or open
     * minute bucket intersects it. Allocates nothing.
     */
    bool has_data(SeriesId id, TimePoint t0, TimePoint t1) const;

    /**
     * Exact percentile (linear interpolation) over the raw samples in
     * [end - window, end]; 0 when the window holds no samples.
     * @param pct percentile in [0, 100].
     */
    double percentile_over(SeriesId id, TimePoint end, Duration window,
                           double pct) const;

    /**
     * Count-weighted mean over [end - window, end], from raw samples
     * (falling back to rollups once raw has wrapped past the window).
     */
    double mean_over(SeriesId id, TimePoint end, Duration window) const;

    /**
     * mean_over, or nullopt when has_data(end - window, end) is false:
     * the alert engine's windowed mean with its no-data test, from one
     * window search. With a hint, a window that holds one value only
     * and as many samples as the hint's last such window reuses its
     * mean (see WindowHint).
     */
    std::optional<double> mean_if_data(SeriesId id, TimePoint end,
                                       Duration window,
                                       WindowHint *hint = nullptr) const;

    /**
     * Per-second increase of a counter over [end - window, end]:
     * (value at end - value at window start) / window. Uses rollup
     * `last` values when the raw ring no longer covers the window.
     * Returns 0 with fewer than two observations in range. With a
     * hint, a counter whose value has not changed since the window
     * start answers 0 without a search: both ends read that value.
     */
    double rate_over(SeriesId id, TimePoint end, Duration window,
                     WindowHint *hint = nullptr) const;

    /**
     * Bytes reserved by all ring buffers. Constant once every series is
     * defined — the bounded-memory guarantee ops tests pin down.
     */
    size_t memory_bytes() const;

  private:
    struct Series {
        Series(const std::string &n, SeriesKind k,
               const MetricStoreConfig &config)
            : name(n), kind(k), raw(config.raw_capacity),
              minutes(config.minute_capacity), hours(config.hour_capacity)
        {
        }

        std::string name;
        SeriesKind kind;
        MetricRing<MetricSample> raw;
        MetricRing<RollupPoint> minutes;
        MetricRing<RollupPoint> hours;
        RollupPoint open_minute;
        RollupPoint open_hour;
        bool minute_open = false;
        bool hour_open = false;
        /** Samples ever recorded (the absolute index of the next). */
        uint64_t recorded = 0;
        /** Time of the first sample of the newest stretch of samples
         *  holding bit-identical values. */
        TimePoint stretch_since;
    };

    const Series &
    series_at(SeriesId id) const
    {
        assert(id >= 0 && size_t(id) < series_.size());
        return series_[size_t(id)];
    }

    /**
     * Newest observation at or before t (raw, then rollup `last`);
     * `raw` is the number of retained raw samples at or before t.
     */
    static std::optional<MetricSample>
    value_at_or_before(const Series &s, TimePoint t, size_t raw);

    MetricStoreConfig config_;
    std::vector<Series> series_;
    std::unordered_map<std::string, SeriesId> index_;
};

} // namespace tacc::ops
