/**
 * @file
 * Serving a model with an SLO on a diurnal demand curve.
 *
 * Turns on the stack's request-level serving plane: a classifier with a
 * 1 s SLO rides a day of demand on replicas that are 1-GPU jobs of the
 * cluster's scheduler. Runs the day twice — under the plane's
 * autoscaler, then on a fixed pool sized for the peak — and prints the
 * autoscaled replica timeline plus the cost comparison, all read from
 * the plane's report.
 */
#include <cmath>
#include <cstdio>

#include "core/stack.h"

using namespace tacc;

namespace {

core::StackConfig
classifier(bool autoscale, int replicas)
{
    core::StackConfig config;
    config.cluster.name = "campus";
    config.cluster.topology.racks = 2;
    config.cluster.topology.nodes_per_rack = 4;
    config.emit_monitor_logs = false;
    auto &serve = config.serve;
    serve.enabled = true;
    serve.group = "campus-classifier";
    serve.diurnal = true;
    serve.request_rate_hz = 8.0; // overnight trough
    serve.diurnal_peak_ratio = 6.0;
    serve.horizon_s = 86400.0;
    // A heavier model than the plane's default: ~13 req/s per replica.
    serve.max_batch = 4;
    serve.batch_fixed_s = 0.1;
    serve.batch_per_request_s = 0.05;
    serve.autoscale = autoscale;
    serve.initial_replicas = replicas;
    if (!autoscale) {
        serve.min_replicas = replicas;
        serve.max_replicas = replicas;
    }
    return config;
}

serve::ServingReport
run_day(const core::StackConfig &config)
{
    core::TaccStack stack(config);
    stack.run_to_completion();
    return stack.serve_plane()->report();
}

double
replica_hours(const serve::ServingReport &report, double capacity_hz)
{
    double capacity = 0;
    for (const double c : report.capacity)
        capacity += c;
    return capacity / capacity_hz / 3600.0;
}

} // namespace

int
main()
{
    const core::StackConfig scaled_config = classifier(true, 1);
    const auto &serve = scaled_config.serve;
    const double capacity_hz = serve.per_replica_capacity_hz();
    const double peak_hz = serve.request_rate_hz * serve.diurnal_peak_ratio;
    const int for_peak =
        int(std::ceil(peak_hz * serve.scale_headroom / capacity_hz));

    std::printf("service '%s': %.1f req/s per replica, SLO %.0f ms, "
                "%.0f-%.0f req/s over the day\n\n",
                serve.group.c_str(), capacity_hz, serve.slo_s * 1000.0,
                serve.request_rate_hz, peak_hz);

    const serve::ServingReport scaled = run_day(scaled_config);
    const serve::ServingReport peak = run_day(classifier(false, for_peak));

    // Two-hour windows of the per-minute report buckets.
    const size_t window = size_t(std::lround(7200.0 / scaled.bucket_s));
    const double window_s = double(window) * scaled.bucket_s;
    std::printf("hour  req/s  replicas  attainment\n");
    for (size_t from = 0; from < scaled.offered.size(); from += window) {
        double offered = 0, good = 0, capacity = 0;
        for (size_t i = from; i < from + window; ++i) {
            offered += i < scaled.offered.size() ? scaled.offered[i] : 0;
            good += i < scaled.goodput.size() ? scaled.goodput[i] : 0;
            capacity += i < scaled.capacity.size() ? scaled.capacity[i] : 0;
        }
        std::printf("%4.0f  %5.1f  %8.2f  %9.2f%%\n",
                    double(from) * scaled.bucket_s / 3600.0,
                    offered / window_s, capacity / capacity_hz / window_s,
                    offered > 0 ? good / offered * 100.0 : 0.0);
    }

    const double scaled_hours = replica_hours(scaled, capacity_hz);
    const double peak_hours = replica_hours(peak, capacity_hz);
    std::printf("\nday summary: attainment %.2f%% using %.0f "
                "replica-hours\n",
                scaled.slo_attainment * 100.0, scaled_hours);
    std::printf("provision-for-peak baseline (%d replicas): attainment "
                "%.2f%% using %.0f replica-hours\n",
                for_peak, peak.slo_attainment * 100.0, peak_hours);
    std::printf("autoscaling saves %.0f%% of the GPU bill.\n",
                (1.0 - scaled_hours / peak_hours) * 100.0);
    return 0;
}
