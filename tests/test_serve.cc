/**
 * @file
 * Tests for the M/M/c formulas: Erlang-C, mean wait and SLO attainment.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "serve/latency_model.h"

namespace tacc::serve {
namespace {

TEST(ErlangC, KnownValues)
{
    // Single server: C(1, a) = a (M/M/1 waiting probability = rho).
    EXPECT_NEAR(erlang_c(1, 0.5), 0.5, 1e-12);
    // Textbook value: c=2, a=1 -> C = 1/3.
    EXPECT_NEAR(erlang_c(2, 1.0), 1.0 / 3.0, 1e-12);
    // No load, no queueing.
    EXPECT_DOUBLE_EQ(erlang_c(4, 0.0), 0.0);
    // Overload: always queue.
    EXPECT_DOUBLE_EQ(erlang_c(2, 2.5), 1.0);
}

TEST(ErlangC, MonotoneInServersAndLoad)
{
    for (int c = 1; c < 10; ++c)
        EXPECT_GE(erlang_c(c, 3.0), erlang_c(c + 1, 3.0));
    for (double a = 0.5; a < 3.5; a += 0.5)
        EXPECT_LE(erlang_c(4, a), erlang_c(4, a + 0.5));
}

TEST(ErlangC, StableAtLargeScale)
{
    // 200 servers at 80% utilization: must not overflow (a^c/c! naive
    // evaluation would).
    const double c_prob = erlang_c(200, 160.0);
    EXPECT_GT(c_prob, 0.0);
    EXPECT_LT(c_prob, 0.1);
}

TEST(MeanWait, MatchesMm1ClosedForm)
{
    // M/M/1: W = rho / (mu - lambda) ... = C/(mu - lambda), C = rho.
    const double w = mean_wait_s(1, 0.5, 1.0);
    EXPECT_NEAR(w, 0.5 / (1.0 - 0.5), 1e-12);
    EXPECT_TRUE(std::isinf(mean_wait_s(2, 3.0, 1.0)));
}

TEST(SloAttainment, BoundsAndShape)
{
    // Impossible SLO (below service time).
    EXPECT_DOUBLE_EQ(slo_attainment(4, 1.0, 10.0, 0.05), 0.0);
    // Overload.
    EXPECT_DOUBLE_EQ(slo_attainment(2, 25.0, 10.0, 1.0), 0.0);
    // Light load, generous SLO: near-perfect.
    EXPECT_GT(slo_attainment(8, 10.0, 10.0, 1.0), 0.999);
    // More replicas never hurt.
    for (int c = 1; c < 12; ++c) {
        EXPECT_LE(slo_attainment(c, 20.0, 10.0, 0.5),
                  slo_attainment(c + 1, 20.0, 10.0, 0.5) + 1e-12);
    }
}

} // namespace
} // namespace tacc::serve
