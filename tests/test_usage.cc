/**
 * @file
 * Unit tests for fair-share usage decay and quota enforcement.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sched/usage.h"

namespace tacc::sched {
namespace {

using namespace time_literals;

TEST(UsageTracker, UnknownKeyIsZero)
{
    UsageTracker tracker(1_h);
    EXPECT_DOUBLE_EQ(tracker.usage("g", TimePoint::origin()), 0.0);
    EXPECT_DOUBLE_EQ(tracker.total_usage(TimePoint::origin()), 0.0);
    EXPECT_DOUBLE_EQ(tracker.usage_share("g", TimePoint::origin()), 0.0);
}

TEST(UsageTracker, ChargeAccumulates)
{
    UsageTracker tracker(1_h);
    tracker.charge("g", 100.0, TimePoint::origin());
    tracker.charge("g", 50.0, TimePoint::origin());
    EXPECT_DOUBLE_EQ(tracker.usage("g", TimePoint::origin()), 150.0);
}

TEST(UsageTracker, HalfLifeDecay)
{
    UsageTracker tracker(1_h);
    tracker.charge("g", 100.0, TimePoint::origin());
    EXPECT_NEAR(tracker.usage("g", TimePoint::origin() + 1_h), 50.0,
                1e-9);
    EXPECT_NEAR(tracker.usage("g", TimePoint::origin() + 2_h), 25.0,
                1e-9);
}

TEST(UsageTracker, DecayAppliedOnCharge)
{
    UsageTracker tracker(1_h);
    tracker.charge("g", 100.0, TimePoint::origin());
    tracker.charge("g", 10.0, TimePoint::origin() + 1_h);
    EXPECT_NEAR(tracker.usage("g", TimePoint::origin() + 1_h), 60.0,
                1e-9);
}

TEST(UsageTracker, ShareAcrossKeys)
{
    UsageTracker tracker(24_h);
    tracker.charge("a", 300.0, TimePoint::origin());
    tracker.charge("b", 100.0, TimePoint::origin());
    EXPECT_NEAR(tracker.usage_share("a", TimePoint::origin()), 0.75,
                1e-12);
    EXPECT_NEAR(tracker.usage_share("b", TimePoint::origin()), 0.25,
                1e-12);
}

TEST(UsageTracker, OldUsageFadesFromShares)
{
    UsageTracker tracker(1_h);
    tracker.charge("old", 1000.0, TimePoint::origin());
    tracker.charge("new", 100.0, TimePoint::origin() + 10_h);
    // After 10 half-lives "old" is ~1; "new" dominates.
    EXPECT_GT(tracker.usage_share("new", TimePoint::origin() + 10_h),
              0.98);
}

/** Brute-force total: what total_usage computed before memoization. */
double
summed_usage(const UsageTracker &tracker,
             const std::vector<std::string> &keys, TimePoint now)
{
    double total = 0;
    for (const auto &key : keys)
        total += tracker.usage(key, now);
    return total;
}

// Regression for the memoized aggregate: the cached total must be
// *bit-identical* to per-key recomputation at the same instant — the
// fair-share scheduler compares shares built from it, so even 1-ulp
// drift could flip a scheduling decision.
TEST(UsageTracker, CachedTotalBitIdenticalToRecomputation)
{
    UsageTracker tracker(24_h);
    Rng rng(99);
    const std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
    TimePoint now = TimePoint::origin();
    for (int step = 0; step < 500; ++step) {
        now += Duration::from_seconds(rng.exponential(300.0));
        tracker.charge(keys[size_t(rng.uniform_int(0, 4))],
                       rng.uniform(0.0, 5000.0), now);
        const TimePoint query =
            now + Duration::from_seconds(rng.uniform(0.0, 3600.0));
        // The charge invalidated the cache, so the first call
        // recomputes; the repeat must serve the cache with the exact
        // same bits.
        const double first = tracker.total_usage(query);
        const double cached = tracker.total_usage(query);
        EXPECT_EQ(first, cached);
        EXPECT_EQ(tracker.usage_share("a", query),
                  tracker.usage("a", query) / first);
    }
}

TEST(UsageTracker, CacheInvalidatedByCharge)
{
    UsageTracker tracker(1_h);
    const TimePoint t = TimePoint::origin();
    tracker.charge("a", 100.0, t);
    EXPECT_DOUBLE_EQ(tracker.total_usage(t), 100.0);
    // Same query timestamp, new charge: the cache must not serve stale
    // totals.
    tracker.charge("b", 50.0, t);
    EXPECT_DOUBLE_EQ(tracker.total_usage(t), 150.0);
    tracker.charge("a", 25.0, t);
    EXPECT_DOUBLE_EQ(tracker.total_usage(t), 175.0);
}

TEST(UsageTracker, CacheIsPerTimestamp)
{
    UsageTracker tracker(1_h);
    tracker.charge("a", 100.0, TimePoint::origin());
    EXPECT_NEAR(tracker.total_usage(TimePoint::origin() + 1_h), 50.0,
                1e-9);
    // A different timestamp must recompute, not reuse the cached value.
    EXPECT_NEAR(tracker.total_usage(TimePoint::origin() + 2_h), 25.0,
                1e-9);
    EXPECT_NEAR(tracker.total_usage(TimePoint::origin() + 1_h), 50.0,
                1e-9);
}

// The ops group-share source walks the tracker once: every key by its
// first-charge slot, with a sum bit-identical to total_usage.
TEST(UsageTracker, ForEachUsageVisitsSlotsAndSumsLikeTotal)
{
    UsageTracker tracker(24_h);
    const TimePoint t = TimePoint::origin();
    tracker.charge("zeta", 10.0, t);
    tracker.charge("alpha", 30.0, t);
    tracker.charge("mid", 20.0, t);
    tracker.charge("alpha", 5.0, t + 1_min);
    ASSERT_EQ(tracker.key_count(), 3u);
    EXPECT_EQ(tracker.key_at(0), "zeta");
    EXPECT_EQ(tracker.key_at(1), "alpha");
    EXPECT_EQ(tracker.key_at(2), "mid");
    std::vector<double> used(3, -1.0);
    const double total = tracker.for_each_usage(
        t + 1_h, [&used](size_t slot, double v) { used[slot] = v; });
    for (size_t slot = 0; slot < used.size(); ++slot)
        EXPECT_EQ(used[slot], tracker.usage(tracker.key_at(slot), t + 1_h));
    EXPECT_EQ(total, tracker.total_usage(t + 1_h));
    EXPECT_NEAR(total, summed_usage(tracker, {"alpha", "mid", "zeta"},
                                    t + 1_h),
                1e-12);
}

TEST(QuotaManager, UnlimitedByDefault)
{
    QuotaManager quota;
    EXPECT_FALSE(quota.would_exceed("g", 1000, 1000));
    EXPECT_EQ(quota.quota_of("g"), -1);
}

TEST(QuotaManager, GroupCapEnforced)
{
    QuotaManager quota;
    quota.set_group_quota("g", 16);
    EXPECT_FALSE(quota.would_exceed("g", 8, 8));
    EXPECT_TRUE(quota.would_exceed("g", 8, 9));
    EXPECT_FALSE(quota.would_exceed("other", 100, 100));
}

TEST(QuotaManager, DefaultCapAppliesToUnknownGroups)
{
    QuotaManager quota;
    quota.set_default_quota(8);
    quota.set_group_quota("vip", 64);
    EXPECT_TRUE(quota.would_exceed("g", 4, 5));
    EXPECT_FALSE(quota.would_exceed("vip", 4, 32));
}

} // namespace
} // namespace tacc::sched
