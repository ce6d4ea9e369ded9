/**
 * @file
 * Integration tests for the request-level serving plane embedded in
 * TaccStack: request conservation, budget conservation under overload,
 * shedding/degradation under burst, breaker reaction to node outages,
 * digest determinism (double-run, batch vs streaming, serve-off
 * byte-identity), and the sweep serve axis.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/stack.h"
#include "driver/digest.h"
#include "driver/runner.h"
#include "driver/sweep.h"

namespace tacc::core {
namespace {

StackConfig
serving_config()
{
    StackConfig config;
    config.cluster.topology.racks = 2;
    config.cluster.topology.nodes_per_rack = 2;
    config.cluster.node.gpu_count = 8;
    config.scheduler = "fairshare";
    config.placement = "topology";
    config.emit_monitor_logs = false;
    auto &serve = config.serve;
    serve.enabled = true;
    serve.request_rate_hz = 20.0;
    serve.horizon_s = 240.0;
    serve.initial_replicas = 2;
    serve.min_replicas = 1;
    serve.max_replicas = 4;
    serve.scale_period_s = 30.0;
    return config;
}

/** Every logical request must end in exactly one of ok/late/dropped. */
void
expect_conservation(const serve::PlaneCounters &c)
{
    EXPECT_EQ(c.requests, c.ok + c.late + c.dropped);
    EXPECT_GE(c.attempts, c.requests);
    EXPECT_LE(c.admitted, c.attempts);
    EXPECT_EQ(c.attempts, c.requests + c.retries);
}

TEST(ServePlane, RunsToQuiescenceAndConservesRequests)
{
    TaccStack stack(serving_config());
    ASSERT_TRUE(stack.run_to_completion());
    const auto *plane = stack.serve_plane();
    ASSERT_NE(plane, nullptr);
    EXPECT_TRUE(plane->idle());
    const auto &c = plane->counters();
    expect_conservation(c);
    EXPECT_GT(c.requests, 1000u);
    EXPECT_GT(c.ok, 0u);
    EXPECT_GE(c.replicas_spawned, 2u);
    // Shutdown killed every replica: the cluster fully drains.
    EXPECT_EQ(stack.cluster().used_gpus(), 0);
    EXPECT_TRUE(stack.quiescent());
    // The report is consistent with the counters.
    auto report = stack.serve_plane()->report();
    EXPECT_EQ(report.counters.ok, c.ok);
    EXPECT_GT(report.slo_attainment, 0.0);
    EXPECT_FALSE(report.offered.empty());
}

TEST(ServePlane, BudgetConservationUnderOverload)
{
    StackConfig config = serving_config();
    auto &serve = config.serve;
    // Overload a pinned single replica so retries actually happen.
    serve.request_rate_hz = 60.0;
    serve.horizon_s = 120.0;
    serve.initial_replicas = 1;
    serve.max_replicas = 1;
    serve.autoscale = false;
    serve.admission = false; // let queues build into timeouts
    serve.hard_queue_cap = 64;
    // Slow service (~13 Hz per replica) so 60 Hz truly overloads it.
    serve.batch_fixed_s = 0.2;
    serve.batch_per_request_s = 0.05;
    TaccStack stack(config);
    ASSERT_TRUE(stack.run_to_completion());
    const auto *plane = stack.serve_plane();
    const auto &c = plane->counters();
    expect_conservation(c);
    EXPECT_GT(c.timeouts, 0u);
    EXPECT_GT(c.retries, 0u);
    // Per-tenant conservation: spent never exceeds earned.
    uint64_t spent = 0;
    for (int t = 0; t < config.serve.tenants; ++t) {
        const auto &budget = plane->tenant_budget(t);
        EXPECT_LE(double(budget.spent()), budget.earned() + 1e-9);
        spent += budget.spent();
    }
    // Every executed retry was paid for.
    EXPECT_EQ(spent, c.retries);
    EXPECT_EQ(c.retries_denied > 0,
              [&] {
                  uint64_t denied = 0;
                  for (int t = 0; t < config.serve.tenants; ++t)
                      denied += plane->tenant_budget(t).denied();
                  return denied > 0;
              }());
}

TEST(ServePlane, BurstShedsAndDegradesButRecovers)
{
    StackConfig config = serving_config();
    auto &serve = config.serve;
    serve.request_rate_hz = 30.0;
    serve.horizon_s = 300.0;
    serve.burst_factor = 4.0;
    serve.burst_start_s = 100.0;
    serve.burst_duration_s = 100.0;
    serve.initial_replicas = 1;
    serve.max_replicas = 2;
    serve.batch_fixed_s = 0.1;
    serve.batch_per_request_s = 0.02;
    TaccStack stack(config);
    ASSERT_TRUE(stack.run_to_completion());
    const auto &c = stack.serve_plane()->counters();
    expect_conservation(c);
    // The burst overwhelms two replicas (~30.8 Hz each at these costs
    // vs 120 Hz offered): protection must have engaged...
    EXPECT_GT(c.shed + c.degraded + c.timeouts, 0u);
    // ...yet most traffic still completes in SLO.
    EXPECT_GT(double(c.ok), 0.5 * double(c.requests));
}

TEST(ServePlane, ScriptedRackOutageTripsBreakersAndHeals)
{
    StackConfig config = serving_config();
    config.faults.enabled = true;
    // No random fault chains: only the scripted outage fires.
    config.faults.node_crash_mtbf_hours = 0;
    config.faults.node_degrade_mtbf_hours = 0;
    config.faults.rack_outage_mtbf_hours = 0;
    config.faults.pdu_outage_mtbf_hours = 0;
    config.faults.scripted.push_back({60.0, 0, 120.0});
    auto &serve = config.serve;
    serve.horizon_s = 400.0;
    serve.initial_replicas = 4;
    serve.max_replicas = 4;
    TaccStack stack(config);
    ASSERT_TRUE(stack.run_to_completion());
    const auto &c = stack.serve_plane()->counters();
    expect_conservation(c);
    // The outage killed replica segments on rack 0; their breakers
    // tripped, the scheduler requeued the jobs, and the plane resumed
    // them (a fault kill requeues rather than terminating, so the
    // spawn count stays at the pool size).
    EXPECT_GT(c.replica_failures, 0u);
    EXPECT_GT(c.breaker_trips, 0u);
    EXPECT_GE(c.replicas_spawned, 4u);
    // Service still mostly worked across the storm.
    EXPECT_GT(double(c.ok), 0.6 * double(c.requests));
    EXPECT_EQ(stack.cluster().used_gpus(), 0);
}

TEST(ServePlane, ServingReportMentionsTheEssentials)
{
    TaccStack stack(serving_config());
    ASSERT_TRUE(stack.run_to_completion());
    const std::string text = stack.serving_report();
    EXPECT_NE(text.find("requests"), std::string::npos);
    EXPECT_NE(text.find("goodput"), std::string::npos);
    EXPECT_NE(text.find("replicas"), std::string::npos);
}

TEST(ServePlane, OpsSeriesAndAlertsAreWired)
{
    StackConfig config = serving_config();
    // Overload hard enough to shed for several sample windows.
    config.serve.request_rate_hz = 200.0;
    config.serve.horizon_s = 900.0;
    config.serve.initial_replicas = 1;
    config.serve.max_replicas = 1;
    config.serve.autoscale = false;
    TaccStack stack(config);
    ASSERT_TRUE(stack.run_to_completion());
    ASSERT_NE(stack.ops(), nullptr);
    const auto &store = stack.ops()->store();
    const auto shed = store.find(ops::series::kServeShed);
    ASSERT_NE(shed, ops::kInvalidSeries);
    const auto sample = store.latest(shed);
    ASSERT_TRUE(sample.has_value());
    EXPECT_GT(sample->v, 0.0);
    EXPECT_NE(store.find(ops::series::kServeReplicasUp),
              ops::kInvalidSeries);
    EXPECT_NE(store.find(ops::series::kServeGoodput),
              ops::kInvalidSeries);
    // The shed-storm alert must have fired under this much overload.
    bool saw_shed_alert = false;
    for (const auto &incident : stack.ops()->alerts().incidents()) {
        if (incident.rule == "serve-shed-storm")
            saw_shed_alert = true;
    }
    EXPECT_TRUE(saw_shed_alert);
}

TEST(ServePlane, ReadingTheReportCommitsNothing)
{
    // A `serve status` reader between events must not change what the
    // run reports: the capacity series stays bit for bit the same.
    const auto capacity_bits = [](bool read, uint64_t seed) {
        StackConfig config = serving_config();
        config.serve.horizon_s = 3600.0;
        config.seed = seed;
        TaccStack stack(config);
        for (double t = 7.0; !stack.quiescent() && t < 4 * 3600.0;
             t += 7.0) {
            stack.run_until(TimePoint::origin() + Duration::from_seconds(t));
            if (read)
                (void)stack.serving_report();
        }
        EXPECT_TRUE(stack.run_to_completion());
        std::vector<uint64_t> bits;
        for (const double c : stack.serve_plane()->report().capacity)
            bits.push_back(std::bit_cast<uint64_t>(c));
        return bits;
    };
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        const auto quiet = capacity_bits(false, seed);
        ASSERT_FALSE(quiet.empty());
        EXPECT_EQ(capacity_bits(true, seed), quiet) << "seed " << seed;
    }
}

/** Replica-hours of a finished run, from its capacity series. */
double
replica_hours(const TaccStack &stack)
{
    const auto *plane = stack.serve_plane();
    double capacity = 0;
    for (const double c : plane->report().capacity)
        capacity += c;
    return capacity / plane->config().per_replica_capacity_hz() / 3600.0;
}

TEST(ServePlane, AutoscalerTracksTheDiurnalPeakAtLowerCost)
{
    // Half a diurnal day through the noon peak (3 -> 18 req/s) on
    // replicas of 5 req/s each, with a 2 s SLO.
    StackConfig base = serving_config();
    auto &serve = base.serve;
    serve.diurnal = true;
    serve.request_rate_hz = 3.0;
    serve.diurnal_peak_ratio = 6.0;
    serve.horizon_s = 13 * 3600.0;
    serve.max_batch = 2;
    serve.batch_fixed_s = 0.2;
    serve.batch_per_request_s = 0.1;
    serve.scale_period_s = 60.0;
    serve.slo_s = 2.0;
    serve.client_timeout_s = 4.0;
    // No cheap tier: a pool short of the offered rate must show it.
    serve.degrade = false;
    serve.initial_replicas = 1;
    serve.max_replicas = 8;
    const double capacity_hz = serve.per_replica_capacity_hz();
    ASSERT_DOUBLE_EQ(capacity_hz, 5.0);

    const auto run = [](StackConfig config, int fixed_pool) {
        if (fixed_pool > 0) {
            config.serve.autoscale = false;
            config.serve.initial_replicas = fixed_pool;
            config.serve.min_replicas = fixed_pool;
            config.serve.max_replicas = fixed_pool;
        }
        auto stack = std::make_unique<TaccStack>(config);
        EXPECT_TRUE(stack->run_to_completion());
        expect_conservation(stack->serve_plane()->counters());
        return stack;
    };
    const double peak_hz = serve.request_rate_hz * serve.diurnal_peak_ratio;
    const double mean_hz =
        serve.request_rate_hz * (1.0 + serve.diurnal_peak_ratio) / 2.0;
    const auto peak = run(
        base, int(std::ceil(peak_hz * serve.scale_headroom / capacity_hz)));
    const auto mean = run(base, int(std::ceil(mean_hz / capacity_hz)));
    const auto scaled = run(base, 0);

    const double peak_attain = peak->serve_plane()->report().slo_attainment;
    const double mean_attain = mean->serve_plane()->report().slo_attainment;
    const double scaled_attain =
        scaled->serve_plane()->report().slo_attainment;
    // A pool sized for the day's mean melts at the peak...
    EXPECT_LT(mean_attain, 0.9);
    // ...the autoscaled plane keeps peak-level attainment...
    EXPECT_GT(scaled_attain, peak_attain - 0.005);
    // ...at a clearly smaller bill.
    EXPECT_LE(replica_hours(*scaled), 0.8 * replica_hours(*peak));
}

ScenarioConfig
serving_scenario(bool streaming)
{
    ScenarioConfig config;
    config.stack = serving_config();
    config.streaming = streaming;
    config.trace.num_jobs = 15;
    config.trace.seed = 5;
    config.trace.mean_interarrival_s = 60.0;
    config.trace.gpu_demand_pmf = {{1, 0.7}, {2, 0.2}, {4, 0.1}};
    config.stack.seed = 5;
    return config;
}

TEST(ServeDigest, DoubleRunIsByteIdentical)
{
    const auto a = run_scenario(serving_scenario(false));
    const auto b = run_scenario(serving_scenario(false));
    ASSERT_TRUE(a.serve_enabled);
    expect_conservation(a.serve_counters);
    EXPECT_EQ(driver::scenario_digest(a), driver::scenario_digest(b));
    EXPECT_EQ(a.serve_counters.ok, b.serve_counters.ok);
    EXPECT_EQ(a.serve_counters.retries, b.serve_counters.retries);
}

TEST(ServeDigest, BatchAndStreamingAgree)
{
    const auto batch = run_scenario(serving_scenario(false));
    const auto streaming = run_scenario(serving_scenario(true));
    ASSERT_TRUE(batch.serve_enabled);
    ASSERT_TRUE(streaming.serve_enabled);
    EXPECT_EQ(batch.serve_counters.requests,
              streaming.serve_counters.requests);
    EXPECT_EQ(batch.serve_counters.ok, streaming.serve_counters.ok);
    EXPECT_EQ(driver::scenario_digest(batch),
              driver::scenario_digest(streaming));
}

TEST(ServeDigest, CountersChangeTheDigest)
{
    auto result = run_scenario(serving_scenario(false));
    const uint64_t before = driver::scenario_digest(result);
    result.serve_counters.ok += 1;
    EXPECT_NE(driver::scenario_digest(result), before);
    result.serve_counters.ok -= 1;
    EXPECT_EQ(driver::scenario_digest(result), before);
}

TEST(ServeSweep, OffCollapsesAndKeepsTheGridAsPrefix)
{
    driver::SweepSpec spec;
    spec.schedulers = {"fairshare"};
    spec.seeds = {1, 2};
    spec.base.trace.num_jobs = 10;
    spec.base.stack.cluster.topology.racks = 2;
    spec.base.stack.cluster.topology.nodes_per_rack = 2;
    spec.base.stack.emit_monitor_logs = false;

    auto plain = expand_sweep(spec);
    spec.serve_modes = {"off", "robust", "baseline"};
    spec.bursts = {1.0, 3.0};
    spec.base.stack.serve.request_rate_hz = 10.0;
    spec.base.stack.serve.horizon_s = 120.0;
    auto with_serve = expand_sweep(spec);

    // off collapses to one point; each live mode crosses the bursts.
    EXPECT_EQ(spec.serve_point_count(), 1u + 2u * 2u);
    ASSERT_EQ(with_serve.size(), plain.size() * 5);
    for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(with_serve[i].name, plain[i].name);
        EXPECT_FALSE(with_serve[i].config.stack.serve.enabled);
    }
    EXPECT_EQ(with_serve[plain.size()].name,
              "fairshare/topology/graceful/x1/s1+serve-robust");
    EXPECT_EQ(with_serve[3 * plain.size()].name,
              "fairshare/topology/graceful/x1/s1+serve-baseline");
    const auto &burst3 = with_serve[2 * plain.size()];
    EXPECT_EQ(burst3.name,
              "fairshare/topology/graceful/x1/s1+serve-robust-b3");
    EXPECT_TRUE(burst3.config.stack.serve.enabled);
    EXPECT_DOUBLE_EQ(burst3.config.stack.serve.burst_factor, 3.0);
    EXPECT_GT(burst3.config.stack.serve.burst_duration_s, 0.0);
    // Robust keeps the protections on; baseline turns them off.
    EXPECT_TRUE(burst3.config.stack.serve.admission);
    const auto &baseline = with_serve[3 * plain.size()];
    EXPECT_FALSE(baseline.config.stack.serve.admission);
    EXPECT_FALSE(baseline.config.stack.serve.retry_budget);
    EXPECT_FALSE(baseline.config.stack.serve.breakers);
}

TEST(ServeSweep, SpecKeysParseAndValidate)
{
    auto parsed = driver::parse_sweep_spec(
        "serve_modes: off,robust\nbursts: 1,2.5\n"
        "serve_rate_hz: 15\nserve_horizon_s: 300\n"
        "fault_modes: none,storm-jitter\n");
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().str();
    const auto &spec = parsed.value();
    EXPECT_EQ(spec.serve_modes,
              (std::vector<std::string>{"off", "robust"}));
    EXPECT_EQ(spec.bursts, (std::vector<double>{1.0, 2.5}));
    EXPECT_DOUBLE_EQ(spec.base.stack.serve.request_rate_hz, 15.0);
    EXPECT_DOUBLE_EQ(spec.base.stack.serve.horizon_s, 300.0);

    EXPECT_FALSE(driver::parse_sweep_spec("serve_modes: chaos\n").is_ok());
    EXPECT_FALSE(driver::parse_sweep_spec("bursts: 0.5\n").is_ok());
    EXPECT_FALSE(driver::parse_sweep_spec("serve_rate_hz: -1\n").is_ok());

    // storm-jitter turns on the decorrelated requeue backoff; plain
    // storm leaves it off (the golden-stability satellite).
    core::StackConfig storm, jittered;
    ASSERT_TRUE(driver::apply_fault_mode("storm", &storm).is_ok());
    ASSERT_TRUE(
        driver::apply_fault_mode("storm-jitter", &jittered).is_ok());
    EXPECT_FALSE(storm.exec.failure.requeue_jitter);
    EXPECT_TRUE(jittered.exec.failure.requeue_jitter);
    EXPECT_TRUE(jittered.faults.enabled);
}

TEST(ServeSweep, WorkerCountInvarianceWithServeOn)
{
    driver::SweepSpec spec;
    spec.schedulers = {"fairshare"};
    spec.seeds = {1};
    spec.base.trace.num_jobs = 8;
    spec.base.stack.cluster.topology.racks = 2;
    spec.base.stack.cluster.topology.nodes_per_rack = 2;
    spec.base.stack.emit_monitor_logs = false;
    spec.serve_modes = {"robust", "baseline"};
    spec.bursts = {1.0, 2.0};
    spec.base.stack.serve.request_rate_hz = 10.0;
    spec.base.stack.serve.horizon_s = 120.0;

    const auto serial = driver::run_sweep(spec, 1);
    const auto parallel = driver::run_sweep(spec, 8);
    EXPECT_EQ(driver::digests_text(serial),
              driver::digests_text(parallel));
    // Serving JSON fields ride along for serve-on runs.
    const std::string json = driver::summary_to_json(serial);
    EXPECT_NE(json.find("\"serve_requests\""), std::string::npos);
    EXPECT_NE(json.find("\"serve_slo_attainment\""), std::string::npos);
}

} // namespace
} // namespace tacc::core
