/**
 * @file
 * Unit tests for the backfill capacity timeline.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sched/capacity_profile.h"

namespace tacc::sched {
namespace {

using namespace time_literals;

const TimePoint t0 = TimePoint::origin() + 100_s;

TEST(CapacityProfile, ConstantWhenEmpty)
{
    CapacityProfile p(t0, 10);
    EXPECT_EQ(p.capacity_at(t0), 10);
    EXPECT_EQ(p.capacity_at(t0 + 1000_h), 10);
    EXPECT_EQ(p.earliest_fit(10, 5_h), t0);
    EXPECT_EQ(p.earliest_fit(11, 1_s), TimePoint::max());
}

TEST(CapacityProfile, ReleasesAddCapacity)
{
    CapacityProfile p(t0, 4);
    p.add_release(t0 + 60_s, 4);
    EXPECT_EQ(p.capacity_at(t0), 4);
    EXPECT_EQ(p.capacity_at(t0 + 59_s), 4);
    EXPECT_EQ(p.capacity_at(t0 + 60_s), 8);
    EXPECT_EQ(p.earliest_fit(8, 10_s), t0 + 60_s);
    EXPECT_EQ(p.earliest_fit(4, 10_s), t0);
}

TEST(CapacityProfile, ReserveDebitsWindow)
{
    CapacityProfile p(t0, 10);
    p.reserve(t0 + 10_s, 20_s, 6);
    EXPECT_EQ(p.capacity_at(t0), 10);
    EXPECT_EQ(p.capacity_at(t0 + 10_s), 4);
    EXPECT_EQ(p.capacity_at(t0 + 29_s), 4);
    EXPECT_EQ(p.capacity_at(t0 + 30_s), 10);
    // A 5-GPU job that needs 15 s cannot fit inside the reservation
    // window; it fits right after it ends.
    EXPECT_EQ(p.earliest_fit(5, 15_s), t0 + 30_s);
    // A 4-GPU job fits immediately.
    EXPECT_EQ(p.earliest_fit(4, 15_s), t0);
}

TEST(CapacityProfile, EarliestFitNeedsWholeWindow)
{
    CapacityProfile p(t0, 8);
    p.add_release(t0 + 100_s, 8);
    p.reserve(t0 + 50_s, 100_s, 8); // occupies [50, 150)
    // 8 GPUs free on [0, 50) but a 60 s job does not fit there; from
    // 100 s the release leaves 8 free throughout.
    EXPECT_EQ(p.earliest_fit(8, 60_s), t0 + 100_s);
    EXPECT_EQ(p.earliest_fit(8, 50_s), t0);
}

TEST(CapacityProfile, BackToBackReservations)
{
    CapacityProfile p(t0, 4);
    p.reserve(t0, 10_s, 4);
    EXPECT_EQ(p.earliest_fit(4, 10_s), t0 + 10_s);
    p.reserve(t0 + 10_s, 10_s, 4);
    EXPECT_EQ(p.earliest_fit(4, 10_s), t0 + 20_s);
    EXPECT_EQ(p.earliest_fit(1, 1_s), t0 + 20_s);
}

TEST(CapacityProfile, HugeDurationsClampToHorizon)
{
    CapacityProfile p(t0, 4);
    // A "runs forever" reservation must not overflow.
    p.reserve(t0, Duration::days(100000), 4);
    EXPECT_EQ(p.capacity_at(t0 + Duration::days(300)), 0);
    EXPECT_EQ(p.earliest_fit(1, 1_s), TimePoint::max());
}

TEST(CapacityProfile, ZeroGpuOpsAreNoOps)
{
    CapacityProfile p(t0, 4);
    p.add_release(t0 + 10_s, 0);
    p.reserve(t0, 10_s, 0);
    EXPECT_EQ(p.capacity_at(t0), 4);
    EXPECT_EQ(p.earliest_fit(0, 1_h), t0);
}

TEST(CapacityProfile, StackedReleases)
{
    CapacityProfile p(t0, 0);
    p.add_release(t0 + 10_s, 2);
    p.add_release(t0 + 20_s, 3);
    p.add_release(t0 + 20_s, 1); // same instant accumulates
    EXPECT_EQ(p.capacity_at(t0 + 15_s), 2);
    EXPECT_EQ(p.capacity_at(t0 + 20_s), 6);
    EXPECT_EQ(p.earliest_fit(6, 1_s), t0 + 20_s);
}

/**
 * The earliest whole-second start of a `len`-second window with
 * capacity >= gpus at every second of it, scanning every start from
 * now: with breakpoints on whole seconds this is exhaustive, and it
 * uses no floor.
 */
TimePoint
brute_force_fit(const CapacityProfile &p, int gpus, int64_t len)
{
    for (int64_t s = 0; s <= 200; ++s) {
        bool fits = true;
        for (int64_t i = s; i < s + len && fits; ++i)
            fits = p.capacity_at(t0 + Duration::seconds(i)) >= gpus;
        if (fits)
            return t0 + Duration::seconds(s);
    }
    return TimePoint::max();
}

TEST(CapacityProfile, EarliestFitMatchesBruteForce)
{
    // Breakpoints and durations on whole seconds, so checking every whole
    // second as a start (and every second of its window) is exhaustive.
    // A profile built in one sorted pass and one built a release at a
    // time go through the same random interleaving of reservations,
    // releases and queries (so cached floors are reused, kept across
    // reservations and cleared by releases); both must answer what the
    // exhaustive scan answers.
    Rng rng(7);
    int reused = 0;
    for (int round = 0; round < 300; ++round) {
        const int free_now = int(rng.uniform_int(0, 8));
        std::vector<CapacityProfile::Release> releases(
            size_t(rng.uniform_int(0, 8)));
        for (auto &r : releases) {
            r.t = t0 + Duration::seconds(rng.uniform_int(-5, 60));
            r.gpus = int(rng.uniform_int(0, 4));
        }
        CapacityProfile one_pass(t0 + 10_s, 0);
        one_pass.reset(t0, free_now, releases);
        CapacityProfile per_release(t0, free_now);
        for (const auto &r : releases)
            per_release.add_release(r.t, r.gpus);
        for (int64_t s = -1; s <= 70; ++s) {
            const TimePoint at = t0 + Duration::seconds(s);
            ASSERT_EQ(one_pass.capacity_at(std::max(at, t0)),
                      per_release.capacity_at(std::max(at, t0)))
                << "round " << round << " second " << s;
        }
        const int ops = int(rng.uniform_int(0, 40));
        for (int k = 0; k < ops; ++k) {
            const double what = rng.uniform();
            if (what < 0.1) {
                const TimePoint at =
                    t0 + Duration::seconds(rng.uniform_int(0, 60));
                const int gpus = int(rng.uniform_int(0, 6));
                one_pass.add_release(at, gpus);
                per_release.add_release(at, gpus);
            } else if (what < 0.4) {
                const TimePoint at =
                    t0 + Duration::seconds(rng.uniform_int(0, 60));
                const Duration len = Duration::seconds(rng.uniform_int(0, 40));
                const int gpus = int(rng.uniform_int(0, 6));
                one_pass.reserve(at, len, gpus);
                per_release.reserve(at, len, gpus);
            } else {
                const int gpus = int(rng.uniform_int(0, 12));
                const int64_t len = rng.uniform_int(0, 50);
                const TimePoint expected =
                    brute_force_fit(per_release, gpus, len);
                const Duration d = Duration::seconds(len);
                EXPECT_EQ(one_pass.earliest_fit(gpus, d), expected)
                    << "round " << round << " gpus " << gpus << " len "
                    << len;
                EXPECT_EQ(per_release.earliest_fit(gpus, d), expected)
                    << "round " << round << " gpus " << gpus << " len "
                    << len;
                ++reused;
            }
        }
    }
    EXPECT_GT(reused, 3000);
}

TEST(CapacityProfile, FitAtTheHorizonIgnoresItsCapacity)
{
    // A release past the horizon clamps to it; a start there has an
    // empty window, so it fits whatever the capacity, floor or not.
    const std::vector<CapacityProfile::Release> releases = {
        {t0 + Duration::days(400), 4}};
    CapacityProfile p(t0, 0);
    p.reset(t0, 0, releases);
    const TimePoint horizon = t0 + Duration::days(365);
    EXPECT_EQ(p.capacity_at(horizon), 4);
    EXPECT_EQ(p.earliest_fit(8, 1_s), horizon);
    EXPECT_EQ(p.earliest_fit(8, 1_s), horizon);
    EXPECT_EQ(p.earliest_fit(8, 0_s), t0);
}

TEST(CapacityProfile, FitsNowMatchesBruteForce)
{
    // Same whole-second profiles as above: "fits now" must be exactly
    // "capacity >= gpus at every second of [now, now + len)", which is
    // also exactly earliest_fit(...) == now.
    Rng rng(11);
    for (int round = 0; round < 300; ++round) {
        CapacityProfile p(t0, int(rng.uniform_int(0, 8)));
        const int ops = int(rng.uniform_int(0, 12));
        for (int k = 0; k < ops; ++k) {
            const TimePoint at = t0 + Duration::seconds(rng.uniform_int(0, 60));
            const int gpus = int(rng.uniform_int(0, 6));
            if (rng.bernoulli(0.5))
                p.add_release(at, gpus);
            else
                p.reserve(at, Duration::seconds(rng.uniform_int(0, 40)), gpus);
        }
        for (int q = 0; q < 20; ++q) {
            const int gpus = int(rng.uniform_int(0, 12));
            const int64_t len = rng.uniform_int(0, 50);
            bool expected = true;
            for (int64_t i = 0; i < len && expected; ++i)
                expected = p.capacity_at(t0 + Duration::seconds(i)) >= gpus;
            const Duration d = Duration::seconds(len);
            EXPECT_EQ(p.fits_now(gpus, d), expected)
                << "round " << round << " gpus " << gpus << " len " << len;
            EXPECT_EQ(p.fits_now(gpus, d), p.earliest_fit(gpus, d) == t0)
                << "round " << round << " gpus " << gpus << " len " << len;
        }
    }
}

} // namespace
} // namespace tacc::sched
