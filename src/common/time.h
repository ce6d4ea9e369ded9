/**
 * @file
 * Deterministic simulation time types.
 *
 * All simulation timing in TACC uses integer microseconds wrapped in the
 * strong types Duration and TimePoint. Integer time makes runs bit-exact
 * across platforms and lets events be ordered deterministically.
 */
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace tacc {

/** A signed span of simulated time with microsecond resolution. */
class Duration
{
  public:
    constexpr Duration() : us_(0) {}

    /** @name Named constructors */
    ///@{
    /** Largest whole-second count seconds() can hold without overflow. */
    static constexpr int64_t kMaxSeconds =
        std::numeric_limits<int64_t>::max() / 1'000'000;

    static constexpr Duration micros(int64_t v) { return Duration(v); }
    static constexpr Duration millis(int64_t v) { return Duration(v * 1000); }
    static constexpr Duration seconds(int64_t v)
    {
        return Duration(v * 1'000'000);
    }
    static constexpr Duration minutes(int64_t v) { return seconds(v * 60); }
    static constexpr Duration hours(int64_t v) { return minutes(v * 60); }
    static constexpr Duration days(int64_t v) { return hours(v * 24); }
    /** Builds a duration from fractional seconds (rounds to nearest us). */
    static Duration from_seconds(double s);
    static constexpr Duration zero() { return Duration(0); }
    static constexpr Duration max()
    {
        return Duration(std::numeric_limits<int64_t>::max());
    }
    ///@}

    constexpr int64_t to_micros() const { return us_; }
    constexpr int64_t to_millis() const { return us_ / 1000; }
    constexpr double to_seconds() const { return double(us_) / 1e6; }
    constexpr double to_hours() const { return to_seconds() / 3600.0; }

    constexpr bool is_zero() const { return us_ == 0; }
    constexpr bool is_negative() const { return us_ < 0; }

    constexpr Duration operator+(Duration o) const
    {
        return Duration(us_ + o.us_);
    }
    constexpr Duration operator-(Duration o) const
    {
        return Duration(us_ - o.us_);
    }
    constexpr Duration operator-() const { return Duration(-us_); }
    Duration &operator+=(Duration o) { us_ += o.us_; return *this; }
    Duration &operator-=(Duration o) { us_ -= o.us_; return *this; }
    constexpr Duration operator*(int64_t k) const { return Duration(us_ * k); }
    /** Disambiguates d * 4 (int converts to both int64_t and double). */
    constexpr Duration operator*(int k) const { return *this * int64_t(k); }
    /** Scales by a double, rounding to the nearest microsecond. */
    Duration operator*(double k) const;
    constexpr Duration operator/(int64_t k) const { return Duration(us_ / k); }
    /** Ratio of two durations as a double; o must be non-zero. */
    constexpr double operator/(Duration o) const
    {
        return double(us_) / double(o.us_);
    }

    constexpr auto operator<=>(const Duration &) const = default;

    /** Human-readable rendering, e.g. "3.5s", "2h05m", "120us". */
    std::string str() const;

  private:
    explicit constexpr Duration(int64_t us) : us_(us) {}
    int64_t us_;
};

/** An absolute instant on the simulation clock (microseconds from t=0). */
class TimePoint
{
  public:
    constexpr TimePoint() : us_(0) {}

    static constexpr TimePoint origin() { return TimePoint(0); }
    static constexpr TimePoint from_micros(int64_t v) { return TimePoint(v); }
    static constexpr TimePoint max()
    {
        return TimePoint(std::numeric_limits<int64_t>::max());
    }

    constexpr int64_t to_micros() const { return us_; }
    constexpr double to_seconds() const { return double(us_) / 1e6; }
    constexpr double to_hours() const { return to_seconds() / 3600.0; }

    constexpr TimePoint operator+(Duration d) const
    {
        return TimePoint(us_ + d.to_micros());
    }
    constexpr TimePoint operator-(Duration d) const
    {
        return TimePoint(us_ - d.to_micros());
    }
    constexpr Duration operator-(TimePoint o) const
    {
        return Duration::micros(us_ - o.us_);
    }
    TimePoint &operator+=(Duration d)
    {
        us_ += d.to_micros();
        return *this;
    }

    constexpr auto operator<=>(const TimePoint &) const = default;

    /** Rendering as "[ 123.456s]". */
    std::string str() const;

  private:
    explicit constexpr TimePoint(int64_t us) : us_(us) {}
    int64_t us_;
};

constexpr Duration
operator*(int64_t k, Duration d)
{
    return d * k;
}

namespace time_literals {

constexpr Duration operator""_us(unsigned long long v)
{
    return Duration::micros(int64_t(v));
}
constexpr Duration operator""_ms(unsigned long long v)
{
    return Duration::millis(int64_t(v));
}
constexpr Duration operator""_s(unsigned long long v)
{
    return Duration::seconds(int64_t(v));
}
constexpr Duration operator""_min(unsigned long long v)
{
    return Duration::minutes(int64_t(v));
}
constexpr Duration operator""_h(unsigned long long v)
{
    return Duration::hours(int64_t(v));
}

} // namespace time_literals
} // namespace tacc
