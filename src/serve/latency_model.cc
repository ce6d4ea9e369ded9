#include "serve/latency_model.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace tacc::serve {

double
erlang_c(int servers, double offered_load)
{
    assert(servers >= 1);
    assert(offered_load >= 0);
    if (offered_load <= 0)
        return 0.0;
    if (offered_load >= double(servers))
        return 1.0;

    // Iteratively build a^k/k! relative terms to avoid overflow.
    double term = 1.0; // a^0/0!
    double sum = term; // sum over k < c
    for (int k = 1; k < servers; ++k) {
        term *= offered_load / double(k);
        sum += term;
    }
    const double last = term * offered_load / double(servers); // a^c/c!
    const double rho = offered_load / double(servers);
    const double numerator = last / (1.0 - rho);
    return numerator / (sum + numerator);
}

double
mean_wait_s(int servers, double arrival_rate_hz, double service_rate_hz)
{
    assert(service_rate_hz > 0);
    const double a = arrival_rate_hz / service_rate_hz;
    if (a >= double(servers))
        return std::numeric_limits<double>::infinity();
    const double c_prob = erlang_c(servers, a);
    return c_prob /
           (double(servers) * service_rate_hz - arrival_rate_hz);
}

double
wait_tail(int servers, double arrival_rate_hz, double service_rate_hz,
          double t_s)
{
    assert(t_s >= 0);
    const double a = arrival_rate_hz / service_rate_hz;
    if (a >= double(servers))
        return 1.0;
    const double c_prob = erlang_c(servers, a);
    const double drain =
        double(servers) * service_rate_hz - arrival_rate_hz;
    return c_prob * std::exp(-drain * t_s);
}

double
slo_attainment(int servers, double arrival_rate_hz,
               double service_rate_hz, double slo_s)
{
    const double service_s = 1.0 / service_rate_hz;
    if (slo_s <= service_s)
        return 0.0;
    const double a = arrival_rate_hz / service_rate_hz;
    if (a >= double(servers))
        return 0.0;
    const double tail =
        wait_tail(servers, arrival_rate_hz, service_rate_hz,
                  slo_s - service_s);
    const double attainment = 1.0 - tail;
    return attainment < 0.0 ? 0.0 : attainment;
}

} // namespace tacc::serve
