/**
 * @file
 * Queueing-theoretic latency model for inference serving.
 *
 * A model served by c identical 1-GPU replicas under Poisson request
 * arrivals behaves (to first order) as an M/M/c queue. This header
 * implements the standard formulas, kept as closed-form oracles for the
 * simulated queues:
 *
 *  - Erlang-C: probability an arriving request must queue;
 *  - mean waiting time;
 *  - the waiting-time tail P(W > t) = C e^{-(c mu - lambda) t};
 *  - SLO attainment P(W + S <= slo) under an exponential service
 *    approximation.
 *
 * All functions are pure and deterministic.
 */
#pragma once

namespace tacc::serve {

/**
 * Erlang-C: probability of queueing with c servers at offered load
 * a = lambda/mu. Requires c >= 1; returns 1.0 when the system is
 * overloaded (a >= c), where the queue grows without bound.
 */
double erlang_c(int servers, double offered_load);

/** Mean waiting time (seconds); infinity when overloaded. */
double mean_wait_s(int servers, double arrival_rate_hz,
                   double service_rate_hz);

/** P(W > t): probability a request waits more than t seconds. */
double wait_tail(int servers, double arrival_rate_hz,
                 double service_rate_hz, double t_s);

/**
 * SLO attainment: P(response time <= slo). Response = wait + service;
 * service is approximated by its mean (the deterministic GPU batch time
 * dominates), so attainment = 1 - P(W > slo - 1/mu), clamped to [0, 1].
 * Zero when the mean service time alone exceeds the SLO or the system
 * is overloaded.
 */
double slo_attainment(int servers, double arrival_rate_hz,
                      double service_rate_hz, double slo_s);

} // namespace tacc::serve
