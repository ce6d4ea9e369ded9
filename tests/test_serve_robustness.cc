/**
 * @file
 * Property tests for the overload-robustness primitives: the circuit
 * breaker state machine, SLO-aware admission purity, retry-budget
 * conservation under arbitrary interleavings and decorrelated jitter
 * bounds. All pure and worker-count independent — no simulator
 * involved.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "exec/failure.h"
#include "serve/robustness.h"

namespace tacc::serve {
namespace {

TimePoint
at(double s)
{
    return TimePoint::origin() + Duration::from_seconds(s);
}

TEST(CircuitBreaker, ClosedOpenHalfOpenClosedWalk)
{
    BreakerConfig config;
    config.failure_threshold = 3;
    config.cooldown_s = 30.0;
    config.probe_quota = 2;
    config.probe_successes = 2;
    CircuitBreaker breaker(config);

    // Closed admits; sub-threshold failure runs don't trip.
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
    EXPECT_TRUE(breaker.allow(at(0)));
    breaker.on_failure(at(1));
    breaker.on_failure(at(2));
    breaker.on_success(at(3)); // resets the consecutive count
    breaker.on_failure(at(4));
    breaker.on_failure(at(5));
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
    breaker.on_failure(at(6)); // third consecutive: trips
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_EQ(breaker.trips(), 1u);

    // Open sheds until the cooldown elapses.
    EXPECT_FALSE(breaker.can_allow(at(10)));
    EXPECT_FALSE(breaker.allow(at(20)));
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);

    // First allow after cooldown: half-open, one probe in flight.
    EXPECT_TRUE(breaker.can_allow(at(37)));
    EXPECT_TRUE(breaker.allow(at(37)));
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_EQ(breaker.probes_in_flight(), 1);

    // Probe quota bounds concurrency.
    EXPECT_TRUE(breaker.allow(at(38)));
    EXPECT_EQ(breaker.probes_in_flight(), 2);
    EXPECT_FALSE(breaker.can_allow(at(38)));
    EXPECT_FALSE(breaker.allow(at(38)));

    // Enough probe successes close it again.
    breaker.on_success(at(39));
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_EQ(breaker.probes_in_flight(), 1);
    breaker.on_success(at(40));
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
    EXPECT_TRUE(breaker.allow(at(41)));
}

TEST(CircuitBreaker, HalfOpenFailureReopens)
{
    BreakerConfig config;
    config.failure_threshold = 1;
    config.cooldown_s = 10.0;
    CircuitBreaker breaker(config);

    breaker.on_failure(at(0));
    ASSERT_EQ(breaker.state(), BreakerState::kOpen);
    ASSERT_TRUE(breaker.allow(at(11)));
    ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
    breaker.on_failure(at(12));
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_EQ(breaker.trips(), 2u);
    // The cooldown restarts from the reopen.
    EXPECT_FALSE(breaker.can_allow(at(21)));
    EXPECT_TRUE(breaker.can_allow(at(23)));
}

TEST(CircuitBreaker, ExplicitTripRefreshesCooldown)
{
    BreakerConfig config;
    config.cooldown_s = 30.0;
    CircuitBreaker breaker(config);

    breaker.trip(at(0));
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_EQ(breaker.trips(), 1u);
    // Re-tripping an open breaker pushes the cooldown out but is not a
    // new trip (the node-health hook fires every dispatch).
    breaker.trip(at(20));
    EXPECT_EQ(breaker.trips(), 1u);
    EXPECT_FALSE(breaker.can_allow(at(45)));
    EXPECT_TRUE(breaker.can_allow(at(51)));
}

TEST(CircuitBreaker, RandomWalkInvariants)
{
    // Whatever the event order, probes never exceed the quota, and the
    // breaker only admits in Closed or within-quota HalfOpen states.
    Rng rng(2024);
    BreakerConfig config;
    config.failure_threshold = 2;
    config.cooldown_s = 5.0;
    config.probe_quota = 3;
    config.probe_successes = 2;
    CircuitBreaker breaker(config);
    double now = 0;
    for (int i = 0; i < 5000; ++i) {
        now += rng.uniform(0.0, 3.0);
        const double u = rng.uniform();
        if (u < 0.4) {
            const bool pure = breaker.can_allow(at(now));
            EXPECT_EQ(pure, breaker.allow(at(now)));
        } else if (u < 0.65) {
            breaker.on_success(at(now));
        } else if (u < 0.9) {
            breaker.on_failure(at(now));
        } else {
            breaker.trip(at(now));
            // The trip just refreshed the cooldown: nothing may pass
            // until it elapses.
            EXPECT_FALSE(breaker.can_allow(at(now)));
        }
        EXPECT_GE(breaker.probes_in_flight(), 0);
        EXPECT_LE(breaker.probes_in_flight(), config.probe_quota);
    }
}

TEST(Admission, NeverAdmitsPredictedDeadlineMiss)
{
    AdmissionConfig config;
    config.queue_cap = 32;
    Rng rng(7);
    int admitted = 0, rejected = 0;
    for (int i = 0; i < 20000; ++i) {
        const int depth = int(rng.uniform(0.0, 40.0));
        const double backlog = rng.uniform(0.0, 3.0);
        const double service = rng.uniform(0.01, 0.5);
        const double now = rng.uniform(0.0, 1000.0);
        const double deadline = now + rng.uniform(0.0, 2.5);
        const auto d = admit_request(config, depth, backlog, service,
                                     now, deadline);
        if (d.admit) {
            ++admitted;
            EXPECT_LT(depth, config.queue_cap);
            EXPECT_LE(d.predicted_completion_s, deadline);
            EXPECT_STREQ(d.reason, "ok");
        } else {
            ++rejected;
            EXPECT_TRUE(depth >= config.queue_cap ||
                        d.predicted_completion_s > deadline)
                << d.reason;
        }
    }
    // The draw ranges straddle the boundary: both outcomes must occur.
    EXPECT_GT(admitted, 0);
    EXPECT_GT(rejected, 0);
}

TEST(RetryBudget, ConservationUnderArbitraryInterleavings)
{
    RetryBudgetConfig config;
    config.ratio = 0.1;
    config.initial = 5.0;
    config.cap = 50.0;
    Rng rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        RetryBudget budget(config);
        for (int i = 0; i < 2000; ++i) {
            if (rng.uniform() < 0.45)
                budget.on_request();
            else
                (void)budget.try_spend();
            // The conservation bound: what was spent never exceeds what
            // was earned (initial grant included), and the balance never
            // goes negative or above the cap.
            EXPECT_LE(double(budget.spent()), budget.earned() + 1e-9);
            EXPECT_GE(budget.balance(), 0.0);
            EXPECT_LE(budget.balance(), config.cap + 1e-9);
        }
        // Accounting identity: earned - spent == balance + (denied
        // spends changed nothing).
        EXPECT_NEAR(budget.earned() - double(budget.spent()),
                    budget.balance(), 1e-6);
    }
}

TEST(RetryBudget, DeniesWhenExhaustedAndRecovers)
{
    RetryBudgetConfig config;
    config.ratio = 0.5;
    config.initial = 2.0;
    config.cap = 10.0;
    RetryBudget budget(config);
    EXPECT_TRUE(budget.try_spend());
    EXPECT_TRUE(budget.try_spend());
    EXPECT_FALSE(budget.try_spend());
    EXPECT_EQ(budget.denied(), 1u);
    // Two first-attempt requests earn one token back.
    budget.on_request();
    budget.on_request();
    EXPECT_TRUE(budget.try_spend());
    EXPECT_FALSE(budget.try_spend());
}

TEST(DecorrelatedJitter, StaysWithinEnvelope)
{
    Rng rng(42);
    const double base = 0.1, cap = 10.0;
    double prev = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = decorrelated_jitter(rng, base, cap, prev);
        EXPECT_GE(d, base);
        EXPECT_LE(d, cap);
        // Growth is bounded by 3x the previous sleep (cap aside).
        EXPECT_LE(d, std::max(prev, base) * 3.0 + 1e-12);
        prev = d;
    }
}

TEST(DecorrelatedJitter, DeterministicPerStream)
{
    Rng a(7), b(7);
    double prev_a = 0, prev_b = 0;
    for (int i = 0; i < 100; ++i) {
        prev_a = decorrelated_jitter(a, 0.1, 10.0, prev_a);
        prev_b = decorrelated_jitter(b, 0.1, 10.0, prev_b);
        EXPECT_DOUBLE_EQ(prev_a, prev_b);
    }
}

TEST(ExecRequeueJitter, OffIsExactlyTheExponentialSchedule)
{
    // Satellite: with requeue_jitter off (the default), requeue_delay
    // must be the byte-identical pure-exponential backoff — that is
    // what keeps every existing sweep golden unchanged.
    exec::FailureConfig config;
    config.requeue_backoff_base_s = 5.0;
    config.requeue_backoff_cap_s = 300.0;
    exec::FailureModel model(config, 17);
    for (int attempts = 0; attempts < 10; ++attempts) {
        EXPECT_EQ(model.requeue_delay(42, attempts),
                  model.requeue_backoff(attempts));
    }
}

TEST(ExecRequeueJitter, OnIsBoundedDecorrelatedAndPerJob)
{
    exec::FailureConfig config;
    config.requeue_backoff_base_s = 5.0;
    config.requeue_backoff_cap_s = 300.0;
    config.requeue_jitter = true;
    exec::FailureModel model(config, 17);
    exec::FailureModel twin(config, 17);

    double prev = config.requeue_backoff_base_s;
    bool jobs_differ = false;
    for (int attempts = 1; attempts <= 8; ++attempts) {
        const double a =
            model.requeue_delay(1, attempts).to_seconds();
        const double b = twin.requeue_delay(1, attempts).to_seconds();
        const double other =
            model.requeue_delay(2, attempts).to_seconds();
        // Deterministic per (seed, job, attempt)...
        EXPECT_DOUBLE_EQ(a, b);
        // ...within the decorrelated envelope...
        EXPECT_GE(a, config.requeue_backoff_base_s);
        EXPECT_LE(a, config.requeue_backoff_cap_s);
        EXPECT_LE(a, std::max(prev, config.requeue_backoff_base_s) *
                         3.0 + 1e-9);
        prev = a;
        // ...and decorrelated across jobs.
        if (a != other)
            jobs_differ = true;
    }
    EXPECT_TRUE(jobs_differ);
}

} // namespace
} // namespace tacc::serve
