/**
 * @file
 * Tests for the fault-domain subsystem: the node health state machine,
 * FreeView health masking, the fault injector's deterministic chains and
 * self-healing lifecycle, operator verbs (cordon/drain/uncordon/health),
 * the flaky-node scoreboard, order-independent failure sampling, the
 * sweep fault axis, and the ops layer's no-perturbation guarantee under
 * a fault storm.
 */
#include <gtest/gtest.h>

#include "cluster/health.h"
#include "common/rng.h"
#include "core/fault_domain.h"
#include "core/scenario.h"
#include "core/stack.h"
#include "driver/sweep.h"
#include "exec/failure.h"
#include "sched/free_view.h"
#include "sched/placement.h"
#include "tcloud/client.h"
#include "workload/model.h"

namespace tacc {
namespace {

using namespace time_literals;
using cluster::NodeHealth;
using cluster::NodeId;

core::StackConfig
small_config()
{
    core::StackConfig config;
    config.cluster.topology.racks = 2;
    config.cluster.topology.nodes_per_rack = 2;
    config.cluster.node.gpu_count = 4;
    config.scheduler = "fairshare";
    config.placement = "pack";
    config.emit_monitor_logs = false;
    return config;
}

workload::TaskSpec
spec(const std::string &name, int gpus, int64_t iterations)
{
    workload::TaskSpec s;
    s.name = name;
    s.user = "u";
    s.group = "g";
    s.gpus = gpus;
    s.model = "resnet50";
    s.iterations = iterations;
    return s;
}

TEST(FaultHealth, TrackerTransitionsAndCounts)
{
    cluster::NodeHealthTracker tracker(4);
    EXPECT_TRUE(tracker.all_healthy());
    EXPECT_EQ(tracker.schedulable_count(), 4);
    EXPECT_EQ(tracker.count(NodeHealth::kHealthy), 4);

    const uint64_t e1 = tracker.set_state(1, NodeHealth::kDegraded);
    EXPECT_FALSE(tracker.all_healthy()); // Degraded counts as unhealthy
    EXPECT_TRUE(tracker.schedulable(1)); // but stays schedulable
    EXPECT_EQ(tracker.schedulable_count(), 4);

    const uint64_t e2 = tracker.set_state(1, NodeHealth::kDown);
    EXPECT_GT(e2, e1); // every transition bumps the epoch
    EXPECT_FALSE(tracker.schedulable(1));
    EXPECT_EQ(tracker.schedulable_count(), 3);
    EXPECT_EQ(tracker.count(NodeHealth::kDown), 1);

    tracker.set_state(1, NodeHealth::kRepairing);
    EXPECT_FALSE(tracker.schedulable(1));
    tracker.set_state(1, NodeHealth::kHealthy);
    EXPECT_TRUE(tracker.all_healthy());
    EXPECT_EQ(tracker.schedulable_count(), 4);
}

// The per-state counts are kept on transitions; they must always equal
// a scan of the states, repeated and self transitions included.
TEST(FaultHealth, KeptCountsMatchScanUnderRandomTransitions)
{
    constexpr int kNodes = 7;
    cluster::NodeHealthTracker tracker(kNodes);
    Rng rng(7);
    for (int step = 0; step < 2000; ++step) {
        tracker.set_state(cluster::NodeId(rng.uniform_int(0, kNodes - 1)),
                          NodeHealth(rng.uniform_int(0, 5)));
        int scanned[6] = {};
        for (int n = 0; n < kNodes; ++n)
            ++scanned[int(tracker.state(cluster::NodeId(n)))];
        for (int s = 0; s < 6; ++s)
            ASSERT_EQ(tracker.count(NodeHealth(s)), scanned[s]);
        EXPECT_EQ(tracker.all_healthy(), scanned[0] == kNodes);
        EXPECT_EQ(tracker.schedulable_count(), scanned[0] + scanned[1]);
    }
}

TEST(FaultHealth, FreeViewMasksUnschedulableNodes)
{
    cluster::ClusterConfig config;
    config.topology.racks = 1;
    config.topology.nodes_per_rack = 4;
    config.node.gpu_count = 4;
    cluster::Cluster cluster(config);

    sched::FreeView view(cluster);
    EXPECT_EQ(view.total_free(), 16);
    EXPECT_TRUE(view.schedulable(2));

    cluster.health().set_state(2, NodeHealth::kCordoned);
    view.reset(cluster);
    EXPECT_EQ(view.total_free(), 12);
    EXPECT_EQ(view.free(2), 0);
    EXPECT_FALSE(view.schedulable(2));
    EXPECT_TRUE(view.schedulable(1));

    // Degraded-only stays on the fast path: nothing is masked.
    cluster.health().set_state(2, NodeHealth::kHealthy);
    cluster.health().set_state(3, NodeHealth::kDegraded);
    view.reset(cluster);
    EXPECT_EQ(view.total_free(), 16);
    EXPECT_TRUE(view.schedulable(3));
}

TEST(FaultHealth, FreeViewGiveSkipsMaskedNodes)
{
    cluster::ClusterConfig config;
    config.topology.racks = 1;
    config.topology.nodes_per_rack = 2;
    config.node.gpu_count = 4;
    cluster::Cluster cluster(config);
    cluster::Placement p;
    p.slices.push_back({0, {0, 1}});
    ASSERT_TRUE(cluster.allocate(1, p).is_ok());

    cluster.health().set_state(0, NodeHealth::kDraining);
    sched::FreeView view(cluster);
    EXPECT_EQ(view.free(0), 0);
    // A planned preemption of the resident gang must not re-expose the
    // draining node's capacity to the same decision.
    view.give(cluster.placement_of(1));
    EXPECT_EQ(view.free(0), 0);
    EXPECT_EQ(view.total_free(), 4);
}

TEST(FaultInjector, ScriptedOutageKillsAndSelfHeals)
{
    core::StackConfig config = small_config();
    config.faults.enabled = true;
    config.faults.detection_delay_s = 30.0;
    config.faults.scripted.push_back({600.0, 0, 1800.0});

    core::TaccStack stack(config);
    // Fill the cluster with long jobs so rack 0 has residents at t=600s.
    std::vector<cluster::JobId> ids;
    for (int i = 0; i < 4; ++i) {
        auto id = stack.submit(spec("j" + std::to_string(i), 4, 2000000));
        ASSERT_TRUE(id.is_ok());
        ids.push_back(id.value());
    }
    stack.run_until(TimePoint::origin() + 5_min);
    ASSERT_EQ(stack.running_count(), 4u);

    stack.run_until(TimePoint::origin() + 11_min);
    // Both nodes of rack 0 went Down and their gangs died.
    EXPECT_EQ(stack.metrics().node_faults(), 2u);
    EXPECT_EQ(stack.cluster().health().count(NodeHealth::kHealthy), 2);
    EXPECT_GT(stack.metrics().fault_lost_gpu_seconds(), 0.0);
    EXPECT_EQ(stack.fault_injector().rack_outages(), 1u);

    // After the outage window the nodes self-heal and work resumes.
    ASSERT_TRUE(stack.run_to_completion());
    EXPECT_EQ(stack.fault_injector().repairs(), 2u);
    EXPECT_TRUE(stack.cluster().health().all_healthy());
    for (cluster::JobId id : ids) {
        EXPECT_EQ(stack.find_job(id)->state(),
                  workload::JobState::kCompleted);
    }
}

TEST(FaultInjector, OverlappingOutagesExtendDowntime)
{
    core::StackConfig config = small_config();
    config.faults.enabled = true;
    config.faults.detection_delay_s = 10.0;
    // Second outage lands while the first is still repairing.
    config.faults.scripted.push_back({100.0, 0, 600.0});
    config.faults.scripted.push_back({400.0, 0, 600.0});

    core::TaccStack stack(config);
    stack.run_until(TimePoint::origin() + Duration::from_seconds(750));
    // The first repair (due t=700) went stale; nodes are still out.
    EXPECT_FALSE(stack.cluster().health().schedulable(0));
    stack.run_until(TimePoint::origin() + Duration::from_seconds(1100));
    EXPECT_TRUE(stack.cluster().health().all_healthy());
    EXPECT_EQ(stack.fault_injector().repairs(), 2u);
}

TEST(FaultInjector, StormRunsAreDeterministic)
{
    auto run = [] {
        core::ScenarioConfig config;
        config.stack = small_config();
        config.stack.exec.failure.node_mtbf_hours = 100.0;
        config.stack.exec.failure.requeue_backoff_base_s = 5.0;
        config.stack.faults.enabled = true;
        config.stack.faults.node_crash_mtbf_hours = 50.0;
        config.stack.faults.node_degrade_mtbf_hours = 80.0;
        config.stack.faults.rack_outage_mtbf_hours = 200.0;
        config.stack.faults.pdu_outage_mtbf_hours = 400.0;
        config.trace.num_jobs = 30;
        config.trace.seed = 5;
        config.trace.mean_interarrival_s = 60.0;
        return core::run_scenario(config);
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        EXPECT_EQ(a.records[i].id, b.records[i].id);
        EXPECT_EQ(a.records[i].final_state, b.records[i].final_state);
        EXPECT_EQ(a.records[i].finished, b.records[i].finished);
        EXPECT_EQ(a.records[i].gpu_seconds, b.records[i].gpu_seconds);
        EXPECT_EQ(a.records[i].placement_digest,
                  b.records[i].placement_digest);
    }
    EXPECT_EQ(a.node_faults, b.node_faults);
    EXPECT_EQ(a.fault_lost_gpu_hours, b.fault_lost_gpu_hours);
    EXPECT_EQ(a.mean_requeue_latency_s, b.mean_requeue_latency_s);
    // The storm actually did something.
    EXPECT_GT(a.node_faults, 0u);
}

TEST(FaultOps, CordonDrainUncordonLifecycle)
{
    core::TaccStack stack(small_config());
    auto id = stack.submit(spec("resident", 4, 2000000));
    ASSERT_TRUE(id.is_ok());
    stack.run_until(TimePoint::origin() + 1_min);
    ASSERT_EQ(stack.running_count(), 1u);
    const auto placed = stack.cluster().placement_of(id.value());
    ASSERT_EQ(placed.slices.size(), 1u);
    const NodeId node = placed.slices[0].node;

    // Cordon: the resident keeps running, no new work lands.
    ASSERT_TRUE(stack.cordon_node(int(node)).is_ok());
    EXPECT_EQ(stack.cluster().health().state(node),
              NodeHealth::kCordoned);
    EXPECT_EQ(stack.running_count(), 1u);
    EXPECT_FALSE(stack.cordon_node(int(node)).is_ok()); // already held
    EXPECT_FALSE(stack.cordon_node(99).is_ok());        // no such node

    // Drain: the resident is gracefully requeued and — with three other
    // healthy nodes free — immediately restarts off the drained node.
    ASSERT_TRUE(stack.drain_node(int(node)).is_ok());
    EXPECT_EQ(stack.cluster().health().state(node),
              NodeHealth::kDraining);
    EXPECT_EQ(stack.cluster().node(node).free_gpu_count(), 4);
    ASSERT_EQ(stack.running_count(), 1u);
    const auto moved = stack.cluster().placement_of(id.value());
    ASSERT_EQ(moved.slices.size(), 1u);
    EXPECT_NE(moved.slices[0].node, node);
    EXPECT_EQ(stack.find_job(id.value())->preemption_count(), 1);

    // Uncordon: the node serves again and the job finishes on it.
    ASSERT_TRUE(stack.uncordon_node(int(node)).is_ok());
    EXPECT_TRUE(stack.cluster().health().all_healthy());
    ASSERT_TRUE(stack.run_to_completion());
    EXPECT_EQ(stack.find_job(id.value())->state(),
              workload::JobState::kCompleted);

    const std::string report = stack.health_report();
    EXPECT_NE(report.find("4 healthy"), std::string::npos);
    EXPECT_NE(report.find("schedulable GPUs: 16/16"), std::string::npos);
}

TEST(FaultOps, CordonedNodeGetsNoNewPlacements)
{
    core::StackConfig config = small_config();
    core::TaccStack stack(config);
    ASSERT_TRUE(stack.cordon_node(0).is_ok());
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(stack.submit(spec("j" + std::to_string(i), 4,
                                      50000)).is_ok());
    ASSERT_TRUE(stack.run_to_completion());
    EXPECT_EQ(stack.cluster().node(0).free_gpu_count(), 4);
    for (const auto *job : stack.jobs())
        EXPECT_EQ(job->state(), workload::JobState::kCompleted);
}

TEST(FaultOps, TcloudVerbsRoundTrip)
{
    core::TaccStack stack(small_config());
    tcloud::Client client;
    ASSERT_TRUE(client.add_cluster("campus", &stack).is_ok());

    ASSERT_TRUE(client.cordon(1).is_ok());
    ASSERT_TRUE(client.drain_node(1).is_ok());
    ASSERT_TRUE(client.uncordon(1).is_ok());
    EXPECT_FALSE(client.uncordon(1).is_ok()); // already healthy
    EXPECT_FALSE(client.cordon(1, "nope").is_ok());

    auto health = client.health();
    ASSERT_TRUE(health.is_ok());
    EXPECT_NE(health.value().find("node health"), std::string::npos);
}

TEST(FaultScoreboard, FlakyNodesAreVetoedUntilStrikesAge)
{
    sim::Simulator sim;
    cluster::ClusterConfig cc;
    cc.topology.racks = 1;
    cc.topology.nodes_per_rack = 4;
    cluster::Cluster cluster(cc);
    core::FaultDomainConfig config;
    config.flaky_strike_threshold = 2;
    config.flaky_window_hours = 1.0;
    core::FaultInjector injector(sim, cluster, config, 1, {});

    std::vector<uint8_t> mask;
    EXPECT_FALSE(injector.build_node_filter(sim.now(), mask));

    const TimePoint t0 = TimePoint::origin();
    injector.record_strike(2, t0);
    EXPECT_FALSE(injector.build_node_filter(t0, mask)); // one strike
    injector.record_strike(2, t0 + 10_min);
    ASSERT_TRUE(injector.build_node_filter(t0 + 10_min, mask));
    EXPECT_EQ(mask[2], 0);
    EXPECT_EQ(mask[0], 1);

    // The first strike ages out of the 1 h window; the veto lifts.
    EXPECT_FALSE(injector.build_node_filter(t0 + 90_min, mask));
}

TEST(FaultScoreboard, RepeatCrasherAvoidedByScheduler)
{
    core::StackConfig config = small_config();
    core::TaccStack stack(config);
    // Two recent strikes against node 3: placements must avoid it.
    auto &injector =
        const_cast<core::FaultInjector &>(stack.fault_injector());
    injector.record_strike(3, stack.simulator().now());
    injector.record_strike(3, stack.simulator().now());

    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(stack.submit(spec("j" + std::to_string(i), 4,
                                      50000)).is_ok());
    stack.run_until(TimePoint::origin() + 1_min);
    EXPECT_EQ(stack.running_count(), 3u);
    EXPECT_EQ(stack.cluster().node(3).free_gpu_count(), 4);
    ASSERT_TRUE(stack.run_to_completion());
}

TEST(FaultModel, SamplingIsOrderIndependent)
{
    // Permutation property: the failure times a job draws depend only on
    // (seed, job id, draw index) — never on how jobs interleave.
    exec::FailureConfig config;
    config.node_mtbf_hours = 50.0;
    auto profile =
        workload::ModelCatalog::instance().find("resnet50").value();
    std::vector<workload::Job> jobs;
    for (cluster::JobId id = 1; id <= 6; ++id) {
        jobs.emplace_back(id, spec("p" + std::to_string(id), 2, 1000),
                          profile, TimePoint::origin());
    }
    cluster::Placement p;
    p.slices.push_back({0, {0, 1}});
    const auto horizon = Duration::hours(10000);

    // Forward order, three draws per job.
    exec::FailureModel forward(config, 9);
    std::vector<std::vector<std::optional<Duration>>> draws_fwd(
        jobs.size());
    for (int round = 0; round < 3; ++round) {
        for (size_t j = 0; j < jobs.size(); ++j) {
            draws_fwd[j].push_back(forward.sample_segment_failure(
                jobs[j], p, compiler::RuntimeKind::kContainer, horizon));
        }
    }
    // Reverse interleaving over a fresh model with the same seed.
    exec::FailureModel reverse(config, 9);
    std::vector<std::vector<std::optional<Duration>>> draws_rev(
        jobs.size());
    for (int round = 0; round < 3; ++round) {
        for (size_t j = jobs.size(); j-- > 0;) {
            draws_rev[j].push_back(reverse.sample_segment_failure(
                jobs[j], p, compiler::RuntimeKind::kContainer, horizon));
        }
    }
    EXPECT_EQ(draws_fwd, draws_rev);
    // And distinct jobs draw distinct streams.
    EXPECT_NE(draws_fwd[0], draws_fwd[1]);
}

TEST(FaultPlacement, AntiAffinitySpreadsAcrossRacks)
{
    cluster::ClusterConfig cc;
    cc.topology.racks = 4;
    cc.topology.nodes_per_rack = 2;
    cc.node.gpu_count = 4;
    cluster::Cluster cluster(cc);
    sched::FreeView view(cluster);
    auto policy = sched::make_placement_policy("antiaffinity");
    ASSERT_NE(policy, nullptr);

    // A single-node fit stays on one node (one node = one fault domain).
    auto single = policy->plan(view, cluster.topology(), 4, 4);
    ASSERT_TRUE(single.is_ok());
    EXPECT_EQ(single.value().slices.size(), 1u);

    // A 16-GPU gang must span nodes: every rack contributes, so one
    // rack outage can never take out the whole gang.
    auto spread = policy->plan(view, cluster.topology(), 16, 4);
    ASSERT_TRUE(spread.is_ok());
    std::set<int> racks;
    int total = 0;
    for (const auto &slice : spread.value().slices) {
        racks.insert(int(slice.node) / cc.topology.nodes_per_rack);
        total += int(slice.gpu_indices.size());
    }
    EXPECT_EQ(total, 16);
    EXPECT_EQ(racks.size(), 4u);
}

TEST(FaultSweep, FaultModeAxisParsesAndExpands)
{
    auto spec = driver::parse_sweep_spec("schedulers: fairshare\n"
                                         "placements: pack\n"
                                         "loads: 1.0\n"
                                         "seeds: 1,2\n"
                                         "fault_modes: none,storm\n");
    ASSERT_TRUE(spec.is_ok());
    EXPECT_EQ(spec.value().grid_size(), 4u);
    const auto scenarios = driver::expand_sweep(spec.value());
    ASSERT_EQ(scenarios.size(), 4u);
    // "none" scenarios keep unsuffixed names and disabled injection, and
    // come first (the fault axis is outermost).
    EXPECT_EQ(scenarios[0].name, "fairshare/pack/graceful/x1/s1");
    EXPECT_FALSE(scenarios[0].config.stack.faults.enabled);
    EXPECT_EQ(scenarios[2].name, "fairshare/pack/graceful/x1/s1+storm");
    EXPECT_TRUE(scenarios[2].config.stack.faults.enabled);
    EXPECT_GT(scenarios[2].config.stack.faults.node_crash_mtbf_hours, 0);
    EXPECT_GT(scenarios[2].config.stack.exec.failure.node_mtbf_hours, 0);

    EXPECT_FALSE(driver::parse_sweep_spec("fault_modes: tsunami\n")
                     .is_ok());
    auto mtbf = driver::parse_sweep_spec("node_mtbf_hours: 250\n");
    ASSERT_TRUE(mtbf.is_ok());
    EXPECT_DOUBLE_EQ(
        mtbf.value().base.stack.exec.failure.node_mtbf_hours, 250.0);
}

// The ops layer stays strictly observational even under a fault storm:
// replaying the same hostile workload with telemetry (and the health
// collectors) on and off must produce byte-identical job records.
TEST(FaultOps, TelemetryDoesNotPerturbFaultyRuns)
{
    auto run = [](bool ops_on) {
        core::ScenarioConfig config;
        config.stack = small_config();
        config.stack.ops.enabled = ops_on;
        config.stack.exec.failure.node_mtbf_hours = 100.0;
        config.stack.exec.failure.requeue_backoff_base_s = 5.0;
        config.stack.faults.enabled = true;
        config.stack.faults.node_crash_mtbf_hours = 50.0;
        config.stack.faults.rack_outage_mtbf_hours = 300.0;
        config.trace.num_jobs = 25;
        config.trace.seed = 7;
        config.trace.mean_interarrival_s = 60.0;
        return core::run_scenario(config);
    };
    const auto with_ops = run(true);
    const auto without_ops = run(false);
    ASSERT_EQ(with_ops.records.size(), without_ops.records.size());
    for (size_t i = 0; i < with_ops.records.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        EXPECT_EQ(with_ops.records[i].id, without_ops.records[i].id);
        EXPECT_EQ(with_ops.records[i].final_state,
                  without_ops.records[i].final_state);
        EXPECT_EQ(with_ops.records[i].finished,
                  without_ops.records[i].finished);
        EXPECT_EQ(with_ops.records[i].gpu_seconds,
                  without_ops.records[i].gpu_seconds);
        EXPECT_EQ(with_ops.records[i].placement_digest,
                  without_ops.records[i].placement_digest);
    }
    EXPECT_EQ(with_ops.node_faults, without_ops.node_faults);
}

} // namespace
} // namespace tacc
