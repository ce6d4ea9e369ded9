/**
 * @file
 * Piecewise-constant free-capacity timeline used by backfill.
 *
 * The profile starts from the GPUs free right now, gains capacity at the
 * projected end of each running job, and loses capacity where reservations
 * are placed. Backfill asks it two questions: "when is the earliest window
 * with room for this job?" and "does starting this candidate now delay an
 * existing reservation?" (answered implicitly, because reservations have
 * already debited the profile).
 */
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/time.h"

namespace tacc::sched {

/** Free-GPU capacity as a step function of time. */
class CapacityProfile
{
  public:
    /**
     * @param now start of the timeline
     * @param free_now GPUs free at `now`
     */
    CapacityProfile(TimePoint now, int free_now);

    /** A projected release: `gpus` of capacity from time t onward. */
    struct Release {
        TimePoint t;
        int gpus = 0;
    };

    /** Restarts the timeline as the constructor would, keeping its
     *  storage. */
    void reset(TimePoint now, int free_now);

    /**
     * reset(now, free_now), then add_release(r.t, r.gpus) for every
     * release, built by one sort and one pass: the same breakpoints
     * and capacities (integer sums do not depend on their order).
     */
    void reset(TimePoint now, int free_now,
               std::span<const Release> releases);

    /** Adds `gpus` of capacity from time t onward (a projected release). */
    void add_release(TimePoint t, int gpus);

    /**
     * Earliest start >= now with capacity >= gpus throughout
     * [start, start + duration). Always exists if gpus never exceeds the
     * eventual total; otherwise returns TimePoint::max(). The scan
     * starts at a floor cached per GPU count (see floor_).
     */
    TimePoint earliest_fit(int gpus, Duration duration) const;

    /**
     * True when capacity >= gpus throughout [now, now + duration), i.e.
     * exactly when earliest_fit(gpus, duration) == now; stops at the
     * first short step instead of searching for a later window.
     */
    bool fits_now(int gpus, Duration duration) const;

    /** Debits `gpus` of capacity over [start, start + duration). */
    void reserve(TimePoint start, Duration duration, int gpus);

    /** Capacity at an instant. */
    int capacity_at(TimePoint t) const;

    TimePoint start() const { return now_; }

  private:
    /** Clamps additions so reservations cannot overflow the horizon. */
    TimePoint clamp_end(TimePoint start, Duration duration) const;

    /**
     * Index of the first breakpoint a start of `gpus` for a positive
     * duration can use: every earlier one lies before the horizon with
     * capacity < gpus. Caches its time in floor_.
     */
    size_t floor_of(int gpus) const;

    TimePoint now_;
    TimePoint horizon_;
    /** Sorted breakpoints; capacity_[i] holds on [time_[i], time_[i+1]). */
    std::vector<TimePoint> time_;
    std::vector<int> capacity_;
    /**
     * Per GPU count, a time before which every breakpoint lies before
     * the horizon with less capacity. reserve keeps that true (it only
     * lowers capacity, and a breakpoint it inserts copies the capacity
     * of the step it splits); add_release and reset clear it.
     */
    mutable std::vector<std::pair<int, TimePoint>> floor_;
    /** reset's sorted releases, kept for reuse. */
    std::vector<Release> sorted_;
};

} // namespace tacc::sched
