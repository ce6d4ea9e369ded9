#include "sched/capacity_profile.h"

#include <algorithm>
#include <cassert>

namespace tacc::sched {

CapacityProfile::CapacityProfile(TimePoint now, int free_now)
{
    reset(now, free_now);
}

void
CapacityProfile::reset(TimePoint now, int free_now)
{
    now_ = now;
    horizon_ = now + Duration::days(365);
    time_.assign(1, now);
    capacity_.assign(1, free_now);
    floor_.clear();
}

void
CapacityProfile::reset(TimePoint now, int free_now,
                       std::span<const Release> releases)
{
    reset(now, free_now);
    sorted_.clear();
    for (const Release &r : releases) {
        assert(r.gpus >= 0);
        if (r.gpus > 0)
            sorted_.push_back({std::clamp(r.t, now_, horizon_), r.gpus});
    }
    std::sort(sorted_.begin(), sorted_.end(),
              [](const Release &a, const Release &b) { return a.t < b.t; });
    int capacity = free_now;
    for (const Release &r : sorted_) {
        capacity += r.gpus;
        if (r.t == time_.back()) {
            capacity_.back() = capacity;
        } else {
            time_.push_back(r.t);
            capacity_.push_back(capacity);
        }
    }
}

TimePoint
CapacityProfile::clamp_end(TimePoint start, Duration duration) const
{
    // Avoid overflow on absurd durations; the horizon is beyond any
    // simulated workload.
    if (duration > horizon_ - start)
        return horizon_;
    return start + duration;
}

void
CapacityProfile::add_release(TimePoint t, int gpus)
{
    assert(gpus >= 0);
    if (gpus == 0)
        return;
    t = std::max(t, now_);
    t = std::min(t, horizon_);
    // Insert a breakpoint at t (if missing), then raise capacity from t on.
    auto it = std::lower_bound(time_.begin(), time_.end(), t);
    size_t idx = size_t(it - time_.begin());
    if (it == time_.end() || *it != t) {
        time_.insert(it, t);
        capacity_.insert(capacity_.begin() + long(idx),
                         capacity_[idx - 1]);
    }
    for (size_t i = idx; i < capacity_.size(); ++i)
        capacity_[i] += gpus;
    floor_.clear();
}

int
CapacityProfile::capacity_at(TimePoint t) const
{
    auto it = std::upper_bound(time_.begin(), time_.end(), t);
    assert(it != time_.begin());
    return capacity_[size_t(it - time_.begin()) - 1];
}

TimePoint
CapacityProfile::earliest_fit(int gpus, Duration duration) const
{
    assert(gpus >= 0);
    // One pass over the breakpoints. A step short of capacity inside the
    // candidate's window also lies inside the window of every later start
    // up to it (window ends never move back), so the next candidate is
    // the breakpoint after that step. A positive window holds its own
    // first step, so no start before the floor fits.
    size_t start_idx = duration > Duration() ? floor_of(gpus) : 0;
    size_t i = 0;
    while (start_idx < time_.size()) {
        const TimePoint end = clamp_end(time_[start_idx], duration);
        while (i < time_.size() && time_[i] < end && capacity_[i] >= gpus)
            ++i;
        if (i == time_.size() || time_[i] >= end)
            return time_[start_idx];
        start_idx = i + 1;
        i = start_idx;
    }
    return TimePoint::max();
}

size_t
CapacityProfile::floor_of(int gpus) const
{
    auto it = std::find_if(floor_.begin(), floor_.end(),
                           [gpus](const auto &f) { return f.first == gpus; });
    if (it == floor_.end())
        it = floor_.insert(floor_.end(), {gpus, now_});
    size_t i = size_t(std::lower_bound(time_.begin(), time_.end(),
                                       it->second) -
                      time_.begin());
    while (i < time_.size() && capacity_[i] < gpus && time_[i] < horizon_)
        ++i;
    it->second = i < time_.size() ? time_[i] : TimePoint::max();
    return i;
}

bool
CapacityProfile::fits_now(int gpus, Duration duration) const
{
    assert(gpus >= 0);
    const TimePoint end = clamp_end(now_, duration);
    for (size_t i = 0; i < time_.size() && time_[i] < end; ++i) {
        if (capacity_[i] < gpus)
            return false;
    }
    return true;
}

void
CapacityProfile::reserve(TimePoint start, Duration duration, int gpus)
{
    assert(gpus >= 0);
    if (gpus == 0)
        return;
    start = std::max(start, now_);
    const TimePoint end = clamp_end(start, duration);
    if (end <= start)
        return;

    auto ensure_breakpoint = [&](TimePoint t) {
        auto it = std::lower_bound(time_.begin(), time_.end(), t);
        const size_t idx = size_t(it - time_.begin());
        if (it == time_.end() || *it != t) {
            assert(idx > 0);
            time_.insert(it, t);
            capacity_.insert(capacity_.begin() + long(idx),
                             capacity_[idx - 1]);
        }
    };
    ensure_breakpoint(start);
    if (end < horizon_)
        ensure_breakpoint(end);

    for (size_t i = size_t(
             std::lower_bound(time_.begin(), time_.end(), start) -
             time_.begin());
         i < time_.size() && time_[i] < end; ++i) {
        capacity_[i] -= gpus;
    }
}

} // namespace tacc::sched
