/**
 * @file
 * T11 — Inference serving: provisioning a diurnal demand curve.
 *
 * One resnet50 service with a 0.25 s SLO rides a 24 h demand wave
 * (trough 30 req/s, peak:trough 1:0.15) on the request-level serving
 * plane of the reference campus stack: every replica is a 1-GPU job the
 * stack's scheduler places, and every request queues, batches and
 * completes on the simulator. Four provisioning variants, each read
 * from the plane's own report:
 *
 *   - static-peak: a fixed pool sized for the peak rate;
 *   - static-mean: a fixed pool sized for the day's mean rate;
 *   - autoscale: the plane's autoscaler on the measured arrival rate;
 *   - autoscale+forecast: the same, planning on the predict hub's
 *     forecast of that rate.
 *
 * Expected shape (the Nexus/AWS-autoscaling story): provision-for-peak
 * is near-perfect but pays peak capacity all night; provision-for-mean
 * is cheap but collapses at the daily peak; autoscaling reaches
 * peak-level attainment at clearly fewer replica-hours. Exits 1 when
 * the shape does not hold.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/stack.h"

using namespace tacc;

namespace {

constexpr double kTroughHz = 30.0;
constexpr double kPeakRatio = 1.0 / 0.15;
constexpr double kDayS = 86400.0;
/** A report bucket is good when its goodput is this share of offered. */
constexpr double kSloTarget = 0.99;

struct Variant {
    std::string name;
    core::StackConfig config;
    serve::ServingReport report;
};

core::StackConfig
diurnal_service()
{
    core::StackConfig config = bench::default_stack();
    auto &serve = config.serve;
    serve.enabled = true;
    serve.diurnal = true;
    serve.request_rate_hz = kTroughHz;
    serve.diurnal_peak_ratio = kPeakRatio;
    serve.horizon_s = kDayS;
    serve.slo_s = 0.25;
    return config;
}

core::StackConfig
static_pool(int replicas)
{
    core::StackConfig config = diurnal_service();
    config.serve.autoscale = false;
    config.serve.initial_replicas = replicas;
    config.serve.min_replicas = replicas;
    config.serve.max_replicas = replicas;
    return config;
}

double
sum(const std::vector<double> &buckets, size_t from, size_t to)
{
    double total = 0;
    for (size_t i = from; i < std::min(to, buckets.size()); ++i)
        total += buckets[i];
    return total;
}

double
replica_hours(const Variant &v)
{
    return sum(v.report.capacity, 0, v.report.capacity.size()) /
           v.config.serve.per_replica_capacity_hz() / 3600.0;
}

double
good_bucket_share(const serve::ServingReport &r)
{
    size_t live = 0, good = 0;
    for (size_t i = 0; i < r.offered.size(); ++i) {
        if (r.offered[i] <= 0)
            continue;
        ++live;
        const double ok = i < r.goodput.size() ? r.goodput[i] : 0.0;
        good += ok >= kSloTarget * r.offered[i] ? 1 : 0;
    }
    return live > 0 ? double(good) / double(live) : 0.0;
}

} // namespace

int
main()
{
    const core::StackConfig base = diurnal_service();
    const double capacity_hz = base.serve.per_replica_capacity_hz();
    const double peak_hz = kTroughHz * kPeakRatio;
    const double mean_hz = kTroughHz * (1.0 + kPeakRatio) / 2.0;
    // Peak pool: the autoscaler's own sizing rule at the peak rate.
    const int for_peak = int(
        std::ceil(peak_hz * base.serve.scale_headroom / capacity_hz));
    const int for_mean = std::max(1, int(std::ceil(mean_hz / capacity_hz)));

    std::vector<Variant> variants = {
        {"static-peak", static_pool(for_peak), {}},
        {"static-mean", static_pool(for_mean), {}},
        {"autoscale", base, {}},
        {"autoscale+forecast", base, {}},
    };
    variants[3].config.predict.enabled = true;

    {
        // The variants share nothing: one thread each, joined here.
        std::vector<std::jthread> runs;
        for (Variant &v : variants) {
            runs.emplace_back([&v] {
                core::TaccStack stack(v.config);
                stack.run_to_completion();
                v.report = stack.serve_plane()->report();
            });
        }
    }

    TextTable table("T11: provisioning a diurnal inference service on the "
                    "serving plane (24 h, 0.25 s SLO)");
    table.set_header({"policy", "requests", "attainment", "good buckets",
                      "replica-hours", "rep-h per Mreq"});
    for (const Variant &v : variants) {
        const double mreq = double(v.report.counters.requests) / 1e6;
        table.add_row({v.name,
                       TextTable::num(double(v.report.counters.requests), 8),
                       TextTable::pct(v.report.slo_attainment, 2),
                       TextTable::pct(good_bucket_share(v.report)),
                       TextTable::fixed(replica_hours(v), 1),
                       TextTable::fixed(replica_hours(v) / mreq, 2)});
    }
    std::fputs(table.str().c_str(), stdout);

    // Replica timeline of the autoscaled plane (the figure inset).
    const serve::ServingReport &scaled = variants[2].report;
    const size_t per_window = size_t(std::lround(7200.0 / scaled.bucket_s));
    TextTable timeline("T11b: autoscaled replica timeline (2 h windows)");
    timeline.set_header({"hour", "offered(req/s)", "replicas",
                         "attainment"});
    for (size_t from = 0; from < scaled.offered.size();
         from += per_window) {
        const size_t to = from + per_window;
        const double window_s = double(per_window) * scaled.bucket_s;
        const double offered = sum(scaled.offered, from, to);
        const double good = sum(scaled.goodput, from, to);
        timeline.add_row(
            {TextTable::num(double(from) * scaled.bucket_s / 3600.0, 3),
             TextTable::fixed(offered / window_s, 0),
             TextTable::fixed(sum(scaled.capacity, from, to) /
                                  capacity_hz / window_s,
                              2),
             TextTable::pct(offered > 0 ? good / offered : 0.0, 2)});
    }
    std::fputs(timeline.str().c_str(), stdout);

    const double peak_attain = variants[0].report.slo_attainment;
    const double mean_attain = variants[1].report.slo_attainment;
    const double auto_attain = variants[2].report.slo_attainment;
    const double cost_ratio = replica_hours(variants[2]) /
                              replica_hours(variants[0]);
    std::printf("\nautoscale vs static-peak: %.2f%% vs %.2f%% attainment "
                "at %.2fx the replica-hours\n",
                auto_attain * 100.0, peak_attain * 100.0, cost_ratio);

    bool ok = true;
    if (peak_attain < 0.99) {
        std::printf("FAIL: static-peak attains under 99%%\n");
        ok = false;
    }
    if (auto_attain < 0.99) {
        std::printf("FAIL: the autoscaled plane attains under 99%%\n");
        ok = false;
    }
    if (mean_attain >= 0.90) {
        std::printf("FAIL: static-mean does not lose attainment at the "
                    "peak\n");
        ok = false;
    }
    if (cost_ratio > 0.8) {
        std::printf("FAIL: autoscaling costs more than 0.8x static-peak's "
                    "replica-hours\n");
        ok = false;
    }
    return ok ? 0 : 1;
}
