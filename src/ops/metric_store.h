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

#include <cstdint>
#include <optional>
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

    /** Newest sample of a series, if any. */
    std::optional<MetricSample> latest(SeriesId id) const;

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
     * Where a repeated windowed query's start fell in the raw ring: the
     * number of retained samples newer than it. A caller asking about
     * one series once per sample keeps a hint per query: the start then
     * sits the same distance from the newest sample, which one compare
     * confirms. A stale or wrong hint only costs the binary search, so
     * results never depend on it.
     */
    struct WindowHint {
        size_t newer = 0;
    };

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
     * window search.
     */
    std::optional<double> mean_if_data(SeriesId id, TimePoint end,
                                       Duration window,
                                       WindowHint *hint = nullptr) const;

    /**
     * Per-second increase of a counter over [end - window, end]:
     * (value at end - value at window start) / window. Uses rollup
     * `last` values when the raw ring no longer covers the window.
     * Returns 0 with fewer than two observations in range.
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
    };

    const Series &series_at(SeriesId id) const;

    /** Folds a sample into an open bucket, flushing it on advance. */
    static void fold(MetricRing<RollupPoint> &closed, RollupPoint &open,
                     bool &is_open, Duration bucket, TimePoint t, double v);

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
