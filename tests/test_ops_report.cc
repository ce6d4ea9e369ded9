/**
 * @file
 * Tests for the operator-facing ops surface: the no-perturbation
 * guarantee (telemetry must not change scheduling), accounting
 * reconciliation against the metrics ledger, and golden-output tests
 * for the `tcloud report` / `tcloud accounting` verbs over a fixed
 * deterministic scenario.
 */
#include <gtest/gtest.h>

#include <memory>

#include "core/stack.h"
#include "ops/report.h"
#include "tcloud/client.h"
#include "workload/trace.h"

namespace tacc {
namespace {

using namespace time_literals;

core::StackConfig
base_config()
{
    core::StackConfig config;
    config.cluster.topology.racks = 1;
    config.cluster.topology.nodes_per_rack = 2;
    config.cluster.node.gpu_count = 8;
    config.scheduler = "fairshare";
    config.placement = "pack";
    return config;
}

workload::TaskSpec
spec(const std::string &name, const std::string &group, int gpus,
     int64_t iterations)
{
    workload::TaskSpec s;
    s.name = name;
    s.user = "alice";
    s.group = group;
    s.gpus = gpus;
    s.model = "resnet50";
    s.iterations = iterations;
    return s;
}

/** Drives a deterministic two-wave, two-group scenario to completion. */
void
run_scenario(core::TaccStack &stack)
{
    const char *groups[2] = {"lab", "vision"};
    const int gpus[4] = {1, 2, 4, 8};
    for (int i = 0; i < 12; ++i) {
        auto id = stack.submit(spec("a" + std::to_string(i),
                                    groups[i % 2], gpus[i % 4],
                                    20000 + 6000 * (i % 5)));
        ASSERT_TRUE(id.is_ok());
    }
    stack.run_until(TimePoint::origin() + 10_min);
    for (int i = 0; i < 12; ++i) {
        auto id = stack.submit(spec("b" + std::to_string(i),
                                    groups[(i + 1) % 2], gpus[i % 4],
                                    15000 + 4000 * (i % 7)));
        ASSERT_TRUE(id.is_ok());
    }
    ASSERT_TRUE(stack.run_to_completion());
}

TEST(OpsReport, FormatDayTime)
{
    EXPECT_EQ(ops::format_day_time(TimePoint::origin()), "d0 00:00");
    EXPECT_EQ(ops::format_day_time(TimePoint::origin() + 14_h + 30_min),
              "d0 14:30");
    EXPECT_EQ(ops::format_day_time(TimePoint::origin() +
                                   Duration::days(2) + 9_h + 5_min),
              "d2 09:05");
}

// The operations layer is strictly observational: replaying the same
// workload with telemetry on and off must produce byte-identical job
// records — the sampling events may interleave with scheduling events
// but never change a decision.
TEST(OpsReport, TelemetryDoesNotPerturbScheduling)
{
    core::StackConfig with_ops = base_config();
    with_ops.ops.enabled = true;
    core::StackConfig without_ops = base_config();
    without_ops.ops.enabled = false;

    core::TaccStack a(with_ops);
    core::TaccStack b(without_ops);
    run_scenario(a);
    run_scenario(b);
    ASSERT_NE(a.ops(), nullptr);
    EXPECT_EQ(b.ops(), nullptr);
    EXPECT_GT(a.ops()->samples_taken(), 0u);

    const auto &ra = a.metrics().records();
    const auto &rb = b.metrics().records();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        EXPECT_EQ(ra[i].id, rb[i].id);
        EXPECT_EQ(ra[i].group, rb[i].group);
        EXPECT_EQ(ra[i].final_state, rb[i].final_state);
        EXPECT_EQ(ra[i].submitted, rb[i].submitted);
        EXPECT_EQ(ra[i].finished, rb[i].finished);
        EXPECT_EQ(ra[i].wait_s, rb[i].wait_s);
        EXPECT_EQ(ra[i].jct_s, rb[i].jct_s);
        EXPECT_EQ(ra[i].gpu_seconds, rb[i].gpu_seconds);
        EXPECT_EQ(ra[i].preemptions, rb[i].preemptions);
        EXPECT_EQ(ra[i].segments, rb[i].segments);
    }
}

// A run that cannot quiesce (a 16-GPU job on a 2x8 cluster with one node
// cordoned) must stop where it stops without ops: sampling is not an
// event, so it neither keeps the queue alive nor counts toward
// max_events. The ops run still closes with its quiesce-instant sample.
TEST(OpsReport, NonQuiescingRunStopsAtTheSameEventWithOpsOnOrOff)
{
    auto run = [](bool ops_on) {
        core::StackConfig config = base_config();
        config.ops.enabled = ops_on;
        auto stack = std::make_unique<core::TaccStack>(config);
        EXPECT_TRUE(stack->cordon_node(1).is_ok());
        EXPECT_TRUE(stack->submit(spec("wide", "lab", 16, 20000)).is_ok());
        EXPECT_FALSE(stack->run_to_completion(100000));
        return stack;
    };
    const auto on = run(true);
    const auto off = run(false);
    EXPECT_EQ(on->simulator().now(), off->simulator().now());
    EXPECT_EQ(on->simulator().processed(), off->simulator().processed());
    EXPECT_LT(off->simulator().processed(), 10u);
    ASSERT_NE(on->ops(), nullptr);
    EXPECT_GE(on->ops()->samples_taken(), 1u);
    const ops::MetricStore &store = on->ops()->store();
    const auto depth = store.latest(store.find(ops::series::kQueueDepth));
    ASSERT_TRUE(depth.has_value());
    EXPECT_EQ(depth->t, on->simulator().now());
    EXPECT_EQ(depth->v, 1.0);
}

// A rule added before its group-share series exists (the series is
// defined at the first sample after the group is charged) binds to it
// then and fires.
TEST(OpsReport, RuleOverGroupShareFiresOnceTheSeriesExists)
{
    core::TaccStack stack(base_config());
    ops::AlertRule rule;
    rule.name = "lab-share";
    rule.series = std::string(ops::series::kGroupSharePrefix) + "lab";
    rule.agg = ops::AlertRule::Agg::kLast;
    rule.cmp = ops::AlertRule::Cmp::kAbove;
    rule.threshold = 0.0;
    rule.for_duration = Duration::zero();
    stack.ops()->alerts().add_rule(rule);
    EXPECT_EQ(stack.ops()->store().find(rule.series), ops::kInvalidSeries);
    run_scenario(stack);
    const ops::MetricStore &store = stack.ops()->store();
    const ops::SeriesId id = store.find(rule.series);
    ASSERT_NE(id, ops::kInvalidSeries);
    const auto first = store.range(id, TimePoint::origin(), TimePoint::max(),
                                   ops::Resolution::kRaw);
    ASSERT_FALSE(first.empty());
    const auto &incidents = stack.ops()->alerts().incidents();
    ASSERT_FALSE(incidents.empty());
    EXPECT_EQ(incidents.front().rule, "lab-share");
    EXPECT_EQ(incidents.front().fired_at, first.front().start);
}

// The accounting ledger must reconcile with the metrics records it is
// derived from: same job count, GPU-hours within 0.1%.
TEST(OpsReport, AccountingReconcilesWithMetrics)
{
    core::TaccStack stack(base_config());
    run_scenario(stack);
    ASSERT_NE(stack.ops(), nullptr);

    const auto &ledger = stack.ops()->accounting();
    const auto &records = stack.metrics().records();
    EXPECT_EQ(ledger.event_count(), records.size());

    double metric_gpu_hours = 0;
    for (const auto &rec : records)
        metric_gpu_hours += rec.gpu_seconds / 3600.0;
    ASSERT_GT(metric_gpu_hours, 0.0);
    const double rel_err =
        std::abs(ledger.total_gpu_hours() - metric_gpu_hours) /
        metric_gpu_hours;
    EXPECT_LT(rel_err, 0.001);
}

const char kOperatorReportGolden[] = R"GOLD(== operations report: cluster 'campus' at d0 00:22 ==
GPUs 0/16 in use, 0 running, 0 pending; 24 completed, 0 failed, 0 preemption(s)
queueing: mean 2.8 min, p99 7.5 min
compiler cache savings: 0.0%
last 24h: util mean 86.5% p95 100.0%, queue mean 2.8 p95 7
alerts: 0 active, 0 incident(s) total
== alert incidents ==
alert   severity  fired  resolved  duration  peak
-------------------------------------------------
(none)                                           
== per-group usage (all time) ==
period  group   jobs  done  fail  kill  GPUh  queue-h  preempt  loss-GPUh  fault-GPUh  misses
---------------------------------------------------------------------------------------------
total   lab       12    12     0     0   2.4      0.5        0        0.0         0.0       0
total   vision    12    12     0     0   2.9      0.6        0        0.0         0.0       0
)GOLD";

const char kAccountingGolden[] = R"GOLD(== accounting statement: group 'lab' ==
period            group  jobs  done  fail  kill  GPUh  queue-h  preempt  loss-GPUh  fault-GPUh  misses
------------------------------------------------------------------------------------------------------
month 0 (d0-d29)  lab      12    12     0     0   2.4      0.5        0        0.0         0.0       0
total             lab      12    12     0     0   2.4      0.5        0        0.0         0.0       0
)GOLD";

/** The fixed-seed scenario behind both golden-output tests. */
class GoldenScenario
{
  public:
    GoldenScenario()
    {
        core::StackConfig config = base_config();
        config.cluster.name = "campus";
        stack_ = std::make_unique<core::TaccStack>(config);
        EXPECT_TRUE(client_.add_cluster("campus", stack_.get()).is_ok());
        run_scenario(*stack_);
    }

    tcloud::Client client_;
    std::unique_ptr<core::TaccStack> stack_;
};

TEST(OpsReport, OperatorReportGolden)
{
    GoldenScenario scenario;
    auto report = scenario.client_.operator_report();
    ASSERT_TRUE(report.is_ok());
    EXPECT_EQ(report.value(), kOperatorReportGolden);
}

TEST(OpsReport, AccountingGolden)
{
    GoldenScenario scenario;
    auto statement = scenario.client_.accounting("lab");
    ASSERT_TRUE(statement.is_ok());
    EXPECT_EQ(statement.value(), kAccountingGolden);

    // Unknown group: a friendly empty statement, not an error.
    auto empty = scenario.client_.accounting("nobody");
    ASSERT_TRUE(empty.is_ok());
    EXPECT_NE(empty.value().find("no usage recorded"), std::string::npos);

    // Malformed requests are rejected.
    EXPECT_FALSE(scenario.client_.accounting("").is_ok());
    EXPECT_FALSE(scenario.client_.accounting("lab", "mars").is_ok());
    EXPECT_FALSE(scenario.client_.operator_report("mars").is_ok());
}


/** One pinned alert incident; times in simulated microseconds. */
struct PinnedIncident {
    const char *rule;
    int64_t fired_us;
    int64_t resolved_us;
    double peak;
};

const char kLongHorizonIncidentsGolden[] = R"GOLD(== alert incidents ==
alert                 severity  fired     resolved  duration  peak     
-----------------------------------------------------------------------
failure-storm         critical  d0 02:02  d0 03:22  1h19m      0.003056
failure-storm         critical  d0 05:05  d0 09:48  4h43m      0.004444
queue-depth-spike     warning   d0 06:47  d1 16:27  33h40m          216
queue-age             warning   d0 07:53  d2 16:15  56h22m    2.061e+05
failure-storm         critical  d0 10:35  d0 16:44  6h08m      0.001667
failure-storm         critical  d0 17:34  d0 21:47  4h13m      0.004167
deadline-burn         warning   d0 18:00  d0 19:07  1h06m     0.0008333
failure-storm         critical  d0 22:13  d0 23:02  49m30.0s   0.002222
failure-storm         critical  d0 23:43  d1 01:51  2h08m      0.002778
failure-storm         critical  d1 03:24  d1 05:21  1h57m      0.002222
failure-storm         critical  d1 17:32  d1 17:56  24m00.0s   0.001944
failure-storm         critical  d1 19:35  d1 20:42  1h07m      0.002222
utilization-collapse  critical  d2 23:51  ACTIVE    1h00m             0
)GOLD";

// Long-horizon ops pin: three fault-heavy simulated days on 32 GPUs, so
// the 2048-sample raw rings wrap (after ~17 h at the 30 s cadence) while
// burn-rate and mean rules keep firing and resolving. Pins every incident
// bit-exactly and the rendered incident table byte-for-byte: any drift in
// a windowed query (raw, rollup or wrap-around path) shows up here.
TEST(OpsReport, LongHorizonIncidentsPinnedPastRingWrap)
{
    core::StackConfig config = base_config();
    config.cluster.topology.nodes_per_rack = 4;
    config.exec.failure.node_mtbf_hours = 3.0;
    core::TaccStack stack(config);

    workload::TraceConfig trace;
    trace.num_jobs = 420;
    trace.seed = 7;
    trace.mean_interarrival_s = 240.0;
    trace.diurnal = true;
    trace.frac_deadline = 0.2;
    trace.gpu_demand_pmf = {{1, 0.5}, {2, 0.2}, {4, 0.15}, {8, 0.15}};
    trace.max_duration_s = 8.0 * 3600.0;
    stack.submit_trace(workload::TraceGenerator(trace).generate());
    ASSERT_TRUE(stack.run_to_completion());

    // Idle cool-down so burn-rate windows drain and alerts resolve.
    ops::OpsCenter *ops = stack.ops();
    ASSERT_NE(ops, nullptr);
    TimePoint now = stack.simulator().now();
    for (int i = 0; i < 24; ++i) {
        now += 5_min;
        ops->append(now);
    }
    const int64_t kStillFiring = TimePoint::max().to_micros();
    const std::vector<PinnedIncident> expected = {
        {"failure-storm", 7350000000, 12120000000, 0.0030555555555555557},
        {"failure-storm", 18300000000, 35310000000, 0.0044444444444444444},
        {"queue-depth-spike", 24420000000, 145650000000, 216},
        {"queue-age", 28380000000, 231300000000, 206112.45761799999},
        {"failure-storm", 38130000000, 60240000000, 0.0016666666666666668},
        {"failure-storm", 63270000000, 78450000000, 0.0041666666666666666},
        {"deadline-burn", 64830000000, 68820000000, 0.00083333333333333339},
        {"failure-storm", 79980000000, 82950000000, 0.0022222222222222222},
        {"failure-storm", 85380000000, 93090000000, 0.0027777777777777779},
        {"failure-storm", 98640000000, 105660000000, 0.0022222222222222222},
        {"failure-storm", 149520000000, 150960000000, 0.0019444444444444444},
        {"failure-storm", 156900000000, 160920000000, 0.0022222222222222222},
        {"utilization-collapse", 258698961689, kStillFiring, 0},
    };
    const auto &incidents = ops->alerts().incidents();
    ASSERT_EQ(incidents.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE("incident " + std::to_string(i));
        EXPECT_EQ(incidents[i].rule, expected[i].rule);
        EXPECT_EQ(incidents[i].fired_at.to_micros(), expected[i].fired_us);
        EXPECT_EQ(incidents[i].resolved_at.to_micros(),
                  expected[i].resolved_us);
        EXPECT_EQ(incidents[i].peak, expected[i].peak); // bit-exact
    }
    EXPECT_EQ(ops::render_incidents(ops->alerts(), now),
              kLongHorizonIncidentsGolden);
}

} // namespace
} // namespace tacc
