/**
 * @file
 * Power subsystem tests: static model arithmetic, the PowerManager's
 * permutation-independence and never-negative determinism contract, cap
 * policies (admission refusal, DVFS clock selection), the energy-ledger
 * reconciliation identity, the scheduler-side PowerGate, stack-level
 * byte-identity when power is off or uncapped, cap enforcement end to
 * end, and the sweep driver's power axis.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/config_io.h"
#include "core/scenario.h"
#include "driver/digest.h"
#include "driver/sweep.h"
#include "power/power_manager.h"
#include "sched/types.h"

namespace tacc::power {
namespace {

cluster::ClusterConfig
small_cluster_config(int racks = 2, int nodes_per_rack = 4)
{
    cluster::ClusterConfig config;
    config.topology.racks = racks;
    config.topology.nodes_per_rack = nodes_per_rack;
    return config;
}

/** A gang placement from (node, gpu count) pairs. */
cluster::Placement
gang(std::initializer_list<std::pair<cluster::NodeId, int>> slices)
{
    cluster::Placement placement;
    for (const auto &[node, gpus] : slices) {
        cluster::PlacementSlice slice;
        slice.node = node;
        for (int g = 0; g < gpus; ++g)
            slice.gpu_indices.push_back(g);
        placement.slices.push_back(std::move(slice));
    }
    return placement;
}

TimePoint
at(double seconds)
{
    return TimePoint::origin() + Duration::from_seconds(seconds);
}

// With the default wattage (host 400 W, GPU 60/400 W) one 8-GPU node
// idles at 880 W, one fully-busy GPU adds 340 W.
constexpr double kNodeIdleW = 400.0 + 8 * 60.0;
constexpr double kGpuDeltaW = 340.0;

TEST(PowerModel, BaselineIsIdleFloorOfEveryNode)
{
    cluster::Cluster cl(small_cluster_config(4, 8));
    PowerConfig config;
    PowerModel model(cl, config);
    EXPECT_DOUBLE_EQ(model.baseline_w(), 32 * kNodeIdleW); // 28160 W
    ASSERT_EQ(model.rack_count(), 4);
    for (int rack = 0; rack < 4; ++rack)
        EXPECT_DOUBLE_EQ(model.rack_baseline_w(rack), 8 * kNodeIdleW);
    EXPECT_DOUBLE_EQ(model.gpu_delta_w("A100"), kGpuDeltaW);
    EXPECT_DOUBLE_EQ(model.max_gpu_delta_w(), kGpuDeltaW);
}

TEST(PowerModel, PerModelWattageOverrides)
{
    cluster::Cluster cl(small_cluster_config());
    PowerConfig config;
    config.gpu_power["A100"] = {100.0, 500.0};
    PowerModel model(cl, config);
    EXPECT_DOUBLE_EQ(model.gpu_delta_w("A100"), 400.0);
    // Models not listed fall back to the default spec.
    EXPECT_DOUBLE_EQ(model.gpu_delta_w("H100"), kGpuDeltaW);
    // The inventory is all A100, so the gate bound uses the override.
    EXPECT_DOUBLE_EQ(model.max_gpu_delta_w(), 400.0);
}

/** One segment's start parameters, for the permutation property. */
struct SegSpec {
    cluster::JobId job;
    std::string group;
    cluster::Placement placement;
    double activity;
    double clock;
};

std::vector<SegSpec>
property_segments()
{
    return {
        {1, "alpha", gang({{0, 8}}), 1.0, 1.0},
        {2, "alpha", gang({{1, 4}, {2, 4}}), 0.7, 1.0},
        {3, "beta", gang({{4, 8}, {5, 8}}), 0.9, 0.8},
        {4, "beta", gang({{3, 2}}), 0.3, 1.0},
        {5, "gamma", gang({{6, 1}, {7, 1}, {2, 2}}), 0.55, 0.6},
    };
}

void
start(PowerManager &pm, const SegSpec &seg, TimePoint now)
{
    pm.on_segment_start(seg.job, seg.group, seg.placement, seg.activity,
                        seg.clock, now);
}

TEST(PowerManagerProperty, DrawIsPermutationIndependentOfStartOrder)
{
    const cluster::Cluster cl(small_cluster_config());
    const auto segs = property_segments();

    PowerManager reference(cl, PowerConfig{});
    for (const auto &seg : segs)
        start(reference, seg, at(0));
    const double want = reference.draw_w();
    EXPECT_GT(want, reference.baseline_w());

    std::vector<size_t> order(segs.size());
    std::iota(order.begin(), order.end(), 0);
    do {
        PowerManager pm(cl, PowerConfig{});
        for (size_t i : order)
            start(pm, segs[i], at(0));
        // Exact equality: totals are rebuilt from the id-ordered active
        // set, so arrival order must not leave any fp residue.
        EXPECT_EQ(pm.draw_w(), want);
        for (int rack = 0; rack < 2; ++rack)
            EXPECT_EQ(pm.rack_draw_w(rack), reference.rack_draw_w(rack));
        EXPECT_EQ(pm.throttled_nodes(), reference.throttled_nodes());
    } while (std::next_permutation(order.begin(), order.end()));
}

TEST(PowerManagerProperty, DrawIsPermutationIndependentOfStopOrder)
{
    const cluster::Cluster cl(small_cluster_config());
    const auto segs = property_segments();

    // Stop {1, 3, 5} in every order; survivors {2, 4} price identically.
    std::vector<cluster::JobId> stops = {1, 3, 5};
    double want = -1;
    do {
        PowerManager pm(cl, PowerConfig{});
        for (const auto &seg : segs)
            start(pm, seg, at(0));
        for (cluster::JobId id : stops)
            pm.on_segment_stop(id, at(0));
        if (want < 0)
            want = pm.draw_w();
        EXPECT_EQ(pm.draw_w(), want);
        EXPECT_GE(pm.draw_w(), pm.baseline_w());
        // All scaled segments are gone, so no node stays throttled.
        EXPECT_EQ(pm.throttled_nodes(), 0);
    } while (std::next_permutation(stops.begin(), stops.end()));
}

TEST(PowerManagerProperty, ReleasePathsNeverGoNegative)
{
    const cluster::Cluster cl(small_cluster_config());
    PowerManager pm(cl, PowerConfig{});
    const auto segs = property_segments();

    // Unknown-job stops (a failure path races a completion) are no-ops.
    pm.on_segment_stop(99, at(0));
    EXPECT_EQ(pm.draw_w(), pm.baseline_w());

    for (const auto &seg : segs)
        start(pm, seg, at(0));
    for (const auto &seg : segs) {
        pm.on_segment_stop(seg.job, at(0));
        pm.on_segment_stop(seg.job, at(0)); // double stop: no-op
        EXPECT_GE(pm.draw_w(), pm.baseline_w());
    }
    EXPECT_EQ(pm.draw_w(), pm.baseline_w());
    EXPECT_EQ(pm.throttled_nodes(), 0);
}

TEST(PowerManager, AdmissionRefusesOverClusterBudget)
{
    const cluster::Cluster cl(small_cluster_config());
    PowerConfig config;
    config.enabled = true;
    config.cluster_cap_w = 8 * kNodeIdleW + 3000.0; // headroom 3000 W
    PowerManager pm(cl, config);
    EXPECT_DOUBLE_EQ(pm.commit_fraction(), 1.0);

    const auto eight = gang({{0, 8}}); // full activity: 2720 W
    auto d = pm.plan_start(eight, 1.0);
    EXPECT_TRUE(d.admit);
    EXPECT_DOUBLE_EQ(d.clock, 1.0);
    pm.on_segment_start(1, "alpha", eight, 1.0, d.clock, at(0));
    EXPECT_NEAR(pm.cluster_headroom_w(), 280.0, 1e-9);

    // A second full gang cannot fit; a tiny one still can.
    EXPECT_FALSE(pm.plan_start(gang({{1, 8}}), 1.0).admit);
    EXPECT_TRUE(pm.plan_start(gang({{1, 8}}), 0.1).admit);
}

TEST(PowerManager, RackAndPduCapsRefuseIndependently)
{
    const cluster::Cluster cl(small_cluster_config());
    PowerConfig config;
    config.enabled = true;
    config.rack_cap_w = 4 * kNodeIdleW + 1000.0; // per-rack headroom 1000
    PowerManager pm(cl, config);
    EXPECT_EQ(pm.cluster_headroom_w(),
              std::numeric_limits<double>::infinity());
    EXPECT_FALSE(pm.plan_start(gang({{0, 8}}), 1.0).admit); // 2720 > 1000
    EXPECT_TRUE(pm.plan_start(gang({{0, 2}}), 1.0).admit);  // 680 <= 1000

    PowerConfig pdu = config;
    pdu.rack_cap_w = 0;
    pdu.racks_per_pdu = 2;
    pdu.pdu_cap_w = 8 * kNodeIdleW + 1000.0; // both racks share one PDU
    PowerManager pm2(cl, pdu);
    EXPECT_EQ(pm2.pdu_count(), 1);
    // Spanning racks does not evade the shared PDU budget.
    EXPECT_FALSE(pm2.plan_start(gang({{0, 4}, {4, 4}}), 1.0).admit);
    EXPECT_TRUE(pm2.plan_start(gang({{0, 1}, {4, 1}}), 1.0).admit);
}

TEST(PowerManager, DvfsClockFillsTightestHeadroom)
{
    const cluster::Cluster cl(small_cluster_config());
    PowerConfig config;
    config.enabled = true;
    config.policy = "dvfs";
    config.cluster_cap_w = 8 * kNodeIdleW + 1000.0;
    PowerManager pm(cl, config);
    EXPECT_TRUE(pm.dvfs());
    EXPECT_DOUBLE_EQ(pm.commit_fraction(), std::pow(0.5, 3.0));

    // 2720 W full-speed into 1000 W headroom: clock = (1000/2720)^(1/3).
    const auto eight = gang({{0, 8}});
    auto d = pm.plan_start(eight, 1.0);
    ASSERT_TRUE(d.admit);
    const double want = std::pow(1000.0 / 2720.0, 1.0 / 3.0);
    EXPECT_NEAR(d.clock, want, 1e-12);
    EXPECT_GE(d.clock, config.min_clock);

    pm.on_segment_start(1, "alpha", eight, 1.0, d.clock, at(0));
    // The scaled delta exactly fills the cap (modulo pow round-trip).
    EXPECT_NEAR(pm.draw_w(), config.cluster_cap_w, 1e-6);
    EXPECT_EQ(pm.dvfs_starts(), 1u);
    EXPECT_EQ(pm.throttled_nodes(), 1);
    EXPECT_NEAR(pm.node_clock_of(0), want, 1e-12);
    EXPECT_DOUBLE_EQ(pm.node_clock_of(1), 1.0);

    // No headroom left: the next start would need clock < min_clock.
    auto refused = pm.plan_start(gang({{1, 8}}), 1.0);
    EXPECT_FALSE(refused.admit);
    EXPECT_LT(refused.clock, config.min_clock);

    // Releasing restores full-speed admission.
    pm.on_segment_stop(1, at(0));
    EXPECT_DOUBLE_EQ(pm.plan_start(gang({{1, 8}}), 0.3).clock, 1.0);
}

TEST(PowerManager, EnergyLedgerReconcilesByConstruction)
{
    const cluster::Cluster cl(small_cluster_config());
    PowerConfig config;
    config.enabled = true;
    PowerManager pm(cl, config);
    const double baseline = pm.baseline_w(); // 7040 W

    // j1: 8 GPUs at full activity (2720 W) over [100, 400].
    // j2: 4 GPUs at half activity (680 W) over [200, 500].
    pm.on_segment_start(1, "alpha", gang({{0, 8}}), 1.0, 1.0, at(100));
    pm.on_segment_start(2, "beta", gang({{4, 4}}), 0.5, 1.0, at(200));
    pm.on_segment_stop(1, at(400));
    pm.advance(at(500));
    pm.advance(at(500)); // idempotent

    const double joules = baseline * 500 + 2720.0 * 300 + 680.0 * 300;
    EXPECT_NEAR(pm.energy_kwh(), joules / 3.6e6, 1e-9);
    EXPECT_NEAR(pm.baseline_energy_kwh(), baseline * 500 / 3.6e6, 1e-9);
    EXPECT_DOUBLE_EQ(pm.peak_draw_w(), baseline + 2720.0 + 680.0);

    const auto groups = pm.group_energy_kwh();
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_NEAR(groups.at("alpha"), 2720.0 * 300 / 3.6e6, 1e-9);
    EXPECT_NEAR(groups.at("beta"), 680.0 * 300 / 3.6e6, 1e-9);

    // The reconciliation identity the T16 bench asserts at 0.0000%.
    double active = 0;
    for (const auto &[group, kwh] : groups)
        active += kwh;
    EXPECT_NEAR(pm.energy_kwh(), pm.baseline_energy_kwh() + active,
                1e-12 * pm.energy_kwh());

    // Per-job meters drain exactly once.
    EXPECT_NEAR(pm.job_energy_kwh(1), groups.at("alpha"), 1e-12);
    EXPECT_NEAR(pm.take_job_energy_kwh(1), groups.at("alpha"), 1e-12);
    EXPECT_DOUBLE_EQ(pm.take_job_energy_kwh(1), 0.0);
}

/**
 * The energy ledger with a map lookup per segment and accrual, kept as
 * the reference for PowerManager's cached ledger slots: the same
 * per-segment deltas, draw sums and additions in the same order.
 */
class LookupLedger
{
  public:
    LookupLedger(const cluster::Cluster &cluster, const PowerModel &model,
                 const PowerConfig &config)
        : cluster_(cluster), model_(model), config_(config)
    {
    }

    void
    start(cluster::JobId job, const std::string &group,
          const cluster::Placement &placement, double activity,
          double clock, TimePoint now)
    {
        advance(now);
        const double factor =
            clock < 1.0 ? std::pow(clock, config_.dvfs_exponent) : 1.0;
        double delta = 0;
        for (const auto &slice : placement.slices) {
            const auto &node = cluster_.node(slice.node);
            delta += model_.gpu_delta_w(node.spec().gpu.model) * activity *
                     factor * double(slice.gpu_indices.size());
        }
        active_[job] = {group, delta};
    }

    void
    stop(cluster::JobId job, TimePoint now)
    {
        advance(now);
        active_.erase(job);
    }

    void
    advance(TimePoint now)
    {
        const double dt = (now - last_).to_seconds();
        if (dt > 0) {
            double delta = 0;
            for (const auto &[id, seg] : active_)
                delta += seg.second;
            energy_j += (model_.baseline_w() + delta) * dt;
            for (const auto &[id, seg] : active_) {
                const double e = seg.second * dt;
                group_j[seg.first] += e;
                job_j[id] += e;
            }
            last_ = now;
        }
    }

    double energy_j = 0;
    std::map<std::string, double> group_j;
    std::map<cluster::JobId, double> job_j;

  private:
    const cluster::Cluster &cluster_;
    const PowerModel &model_;
    PowerConfig config_;
    std::map<cluster::JobId, std::pair<std::string, double>> active_;
    TimePoint last_ = TimePoint::origin();
};

bool
same_bits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Random starts (DVFS clocks, multi-node gangs), stops, requeues (a job
// runs several segments), same-instant changes, advances and finalized
// jobs: the cluster, group and job ledgers equal, bit for bit, the
// reference that looks every entry up at every accrual.
TEST(PowerManagerProperty, CachedLedgerSlotsMatchLookupLedger)
{
    const cluster::Cluster cl(small_cluster_config());
    PowerConfig config;
    config.enabled = true;
    config.policy = "dvfs";
    Rng rng(20261020);
    for (int trial = 0; trial < 20; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        PowerManager pm(cl, config);
        LookupLedger reference(cl, pm.model(), config);
        constexpr cluster::JobId kJobs = 24;
        std::vector<int> segments(kJobs + 1, 0);
        std::vector<uint8_t> running(kJobs + 1, 0), done(kJobs + 1, 0);
        auto group_of = [](cluster::JobId job) {
            return "g" + std::to_string(job % 5);
        };
        TimePoint now = TimePoint::origin();
        for (int op = 0; op < 400; ++op) {
            if (rng.bernoulli(0.7))
                now += Duration::from_seconds(rng.uniform(0, 900));
            const cluster::JobId job =
                cluster::JobId(rng.uniform_int(1, int64_t(kJobs)));
            const double what = rng.uniform();
            if (done[job]) {
                pm.advance(now);
                reference.advance(now);
            } else if (!running[job] && what < 0.6) {
                cluster::Placement placement;
                const int nodes = int(rng.uniform_int(1, 3));
                for (int n = 0; n < nodes; ++n) {
                    cluster::PlacementSlice slice;
                    slice.node = cluster::NodeId(rng.uniform_int(0, 7));
                    for (int g = 0; g < int(rng.uniform_int(1, 8)); ++g)
                        slice.gpu_indices.push_back(g);
                    placement.slices.push_back(std::move(slice));
                }
                const double activity = rng.uniform(0.1, 1.0);
                const double clock =
                    rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 1.0);
                pm.on_segment_start(job, group_of(job), placement, activity,
                                    clock, now);
                reference.start(job, group_of(job), placement, activity,
                                clock, now);
                running[job] = 1;
                ++segments[job];
            } else if (running[job] && what < 0.7) {
                pm.on_segment_stop(job, now);
                reference.stop(job, now);
                running[job] = 0;
            } else if (!running[job] && segments[job] > 0 && what < 0.8) {
                auto it = reference.job_j.find(job);
                const double want =
                    it == reference.job_j.end() ? 0.0 : it->second / 3.6e6;
                ASSERT_TRUE(same_bits(pm.take_job_energy_kwh(job), want));
                if (it != reference.job_j.end())
                    reference.job_j.erase(it);
                done[job] = 1;
            } else {
                pm.advance(now);
                reference.advance(now);
            }

            ASSERT_TRUE(same_bits(pm.energy_kwh(),
                                  reference.energy_j / 3.6e6));
            const auto groups = pm.group_energy_kwh();
            ASSERT_EQ(groups.size(), reference.group_j.size());
            for (const auto &[group, joules] : reference.group_j) {
                auto it = groups.find(group);
                ASSERT_NE(it, groups.end()) << group;
                ASSERT_TRUE(same_bits(it->second, joules / 3.6e6)) << group;
            }
            for (cluster::JobId id = 1; id <= kJobs; ++id) {
                auto it = reference.job_j.find(id);
                const double want =
                    it == reference.job_j.end() ? 0.0 : it->second / 3.6e6;
                ASSERT_TRUE(same_bits(pm.job_energy_kwh(id), want))
                    << "job " << id;
            }
        }
        EXPECT_GT(*std::max_element(segments.begin(), segments.end()), 2);
    }
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
// Taking a job's ledger entry while a segment still accrues into it
// would leave that segment's cached slot dangling.
TEST(PowerManagerDeathTest, TakingAnActiveJobsEnergyAsserts)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const cluster::Cluster cl(small_cluster_config());
    PowerConfig config;
    config.enabled = true;
    PowerManager pm(cl, config);
    pm.on_segment_start(1, "alpha", gang({{0, 8}}), 1.0, 1.0, at(100));
    pm.advance(at(200));
    EXPECT_DEATH(pm.take_job_energy_kwh(1), "active_");
}
#endif

TEST(PowerGate, AdmitsAndCommitsAcrossScopes)
{
    const cluster::Cluster cl(small_cluster_config());
    sched::PowerGate gate;
    gate.cluster = &cl;
    gate.per_gpu_w = kGpuDeltaW;
    gate.cluster_headroom_w = 3000.0;

    EXPECT_TRUE(gate.admits(8));   // 2720 <= 3000
    EXPECT_FALSE(gate.admits(9));  // 3060 > 3000

    ASSERT_TRUE(gate.try_commit(gang({{0, 8}})));
    EXPECT_NEAR(gate.cluster_headroom_w, 280.0, 1e-9);
    // A failed commit must not deduct anything.
    EXPECT_FALSE(gate.try_commit(gang({{1, 8}})));
    EXPECT_NEAR(gate.cluster_headroom_w, 280.0, 1e-9);

    sched::PowerGate rack_gate;
    rack_gate.cluster = &cl;
    rack_gate.per_gpu_w = kGpuDeltaW;
    rack_gate.rack_headroom_w = {3000.0, 500.0};
    EXPECT_FALSE(rack_gate.try_commit(gang({{4, 2}}))); // rack 1: 680>500
    EXPECT_TRUE(rack_gate.try_commit(gang({{0, 2}})));  // rack 0 fits
    EXPECT_NEAR(rack_gate.rack_headroom_w[0], 3000.0 - 680.0, 1e-9);

    sched::PowerGate pdu_gate;
    pdu_gate.cluster = &cl;
    pdu_gate.per_gpu_w = kGpuDeltaW;
    pdu_gate.racks_per_pdu = 2;
    pdu_gate.pdu_headroom_w = {1000.0}; // racks 0 and 1 share PDU 0
    EXPECT_FALSE(pdu_gate.try_commit(gang({{0, 2}, {4, 2}}))); // 1360
    EXPECT_TRUE(pdu_gate.try_commit(gang({{0, 1}, {4, 1}})));  // 680
    EXPECT_NEAR(pdu_gate.pdu_headroom_w[0], 320.0, 1e-9);
}

/** The stack-level scenario the digest tests run (mirrors tiny_spec). */
core::ScenarioConfig
tiny_scenario()
{
    core::ScenarioConfig sc;
    sc.stack.cluster.topology.racks = 2;
    sc.stack.cluster.topology.nodes_per_rack = 4;
    sc.stack.scheduler = "fairshare";
    sc.stack.emit_monitor_logs = false;
    sc.trace.num_jobs = 12;
    sc.trace.mean_interarrival_s = 120.0;
    sc.trace.seed = 1;
    return sc;
}

TEST(PowerStack, UncappedPowerKeepsDigestsByteIdentical)
{
    const auto off = core::run_scenario(tiny_scenario());
    EXPECT_DOUBLE_EQ(off.energy_kwh, 0.0);
    EXPECT_DOUBLE_EQ(off.peak_draw_w, 0.0);

    for (const char *policy : {"admission", "dvfs"}) {
        auto sc = tiny_scenario();
        sc.stack.power.enabled = true;
        sc.stack.power.policy = policy;
        sc.stack.power.cluster_cap_w = 1e9; // capped, never binding
        const auto on = core::run_scenario(sc);
        // Metering must be pure observation: same decisions, same digest.
        EXPECT_EQ(driver::scenario_digest(on),
                  driver::scenario_digest(off))
            << "policy " << policy;
        EXPECT_EQ(on.power_deferrals, 0u);
        EXPECT_EQ(on.dvfs_starts, 0u);
        EXPECT_GT(on.energy_kwh, on.baseline_energy_kwh);
        EXPECT_GE(on.peak_draw_w, 8 * kNodeIdleW);
    }
}

TEST(PowerStack, TightCapKeepsPeakUnderCapAndLedgerReconciled)
{
    const double cap = 8 * kNodeIdleW + 3000.0; // fits one busy gang
    for (const char *policy : {"admission", "dvfs"}) {
        auto sc = tiny_scenario();
        // Keep every gang small enough to start alone under the cap
        // (8 GPUs flat out = 2720 W < 3000 W of headroom): a gang whose
        // full-speed delta exceeds the whole budget could never be
        // admitted and would pend forever.
        sc.trace.gpu_demand_pmf = {{1, 0.4}, {2, 0.2}, {4, 0.2}, {8, 0.2}};
        sc.stack.power.enabled = true;
        sc.stack.power.policy = policy;
        sc.stack.power.cluster_cap_w = cap;
        const auto r = core::run_scenario(sc);
        EXPECT_GT(r.completed, 0u) << "policy " << policy;
        // Draw is piecewise-constant, so peak <= cap means the cap held
        // at every instant (tolerance covers the DVFS pow round-trip).
        EXPECT_LE(r.peak_draw_w, cap + 1e-6) << "policy " << policy;
        EXPECT_GT(r.peak_draw_w, 8 * kNodeIdleW);

        double active = 0;
        for (const auto &[group, kwh] : r.group_energy_kwh)
            active += kwh;
        ASSERT_GT(r.energy_kwh, 0.0);
        EXPECT_NEAR(r.energy_kwh, r.baseline_energy_kwh + active,
                    1e-9 * r.energy_kwh)
            << "policy " << policy;
    }
}

TEST(PowerSweepExpand, PowerAxisCollapsesOffPointsAndSuffixesNames)
{
    driver::SweepSpec spec;
    spec.schedulers = {"fairshare", "fifo-skip"};
    spec.placements = {"topology"};
    spec.preempt_modes = {"graceful"};
    spec.loads = {1.0};
    spec.seeds = {1, 2};
    spec.base.trace.num_jobs = 12;
    spec.base.stack.cluster.topology.racks = 2;
    spec.base.stack.cluster.topology.nodes_per_rack = 4;

    const auto base_names = driver::expand_sweep(spec);
    ASSERT_EQ(base_names.size(), 4u);

    // Every cap <= 0 collapses to ONE unsuffixed power-off point, so
    // the pre-power grid prefix survives verbatim.
    spec.power_caps = {0.0, -5.0, 80000.0};
    spec.power_policies = {"admission", "dvfs"};
    EXPECT_EQ(spec.power_point_count(), 3u);
    const auto scenarios = driver::expand_sweep(spec);
    ASSERT_EQ(scenarios.size(), spec.grid_size());
    ASSERT_EQ(scenarios.size(), 12u);
    for (size_t i = 0; i < base_names.size(); ++i) {
        EXPECT_EQ(scenarios[i].name, base_names[i].name);
        EXPECT_FALSE(scenarios[i].config.stack.power.enabled);
    }
    EXPECT_EQ(scenarios[4].name,
              "fairshare/topology/graceful/x1/s1+80kW-admission");
    EXPECT_EQ(scenarios[8].name,
              "fairshare/topology/graceful/x1/s1+80kW-dvfs");
    EXPECT_TRUE(scenarios[4].config.stack.power.enabled);
    EXPECT_EQ(scenarios[4].config.stack.power.policy, "admission");
    EXPECT_DOUBLE_EQ(scenarios[4].config.stack.power.cluster_cap_w,
                     80000.0);
    EXPECT_EQ(scenarios[8].config.stack.power.policy, "dvfs");
}

TEST(PowerSweepSpecParse, ParsesPowerAxesAndRejectsBadPolicy)
{
    auto parsed = driver::parse_sweep_spec(
        "power_caps: 0,80000\npower_policies: admission,dvfs\n");
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().str();
    EXPECT_EQ(parsed.value().power_caps, (std::vector<double>{0, 80000}));
    EXPECT_EQ(parsed.value().power_policies,
              (std::vector<std::string>{"admission", "dvfs"}));

    auto bad = driver::parse_sweep_spec("power_policies: turbo\n");
    ASSERT_FALSE(bad.is_ok());
    EXPECT_NE(bad.status().message().find("turbo"), std::string::npos);
}

TEST(PowerConfigIo, OffIsOmittedAndEnabledRoundTrips)
{
    // A power-free config renders without any power key, keeping old
    // config files (and their hashes) untouched.
    core::StackConfig plain;
    EXPECT_EQ(core::stack_config_to_text(plain).find("power"),
              std::string::npos);

    core::StackConfig config;
    config.power.enabled = true;
    config.power.policy = "dvfs";
    config.power.cluster_cap_w = 80000;
    config.power.rack_cap_w = 25000;
    config.power.racks_per_pdu = 4;
    config.power.host_idle_w = 450;
    config.power.default_gpu = {50, 350};
    config.power.gpu_power["H100"] = {80, 700};
    config.power.dvfs_exponent = 2.5;
    config.power.min_clock = 0.6;

    auto parsed =
        core::parse_stack_config(core::stack_config_to_text(config));
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().str();
    const auto &p = parsed.value().power;
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.policy, "dvfs");
    EXPECT_DOUBLE_EQ(p.cluster_cap_w, 80000);
    EXPECT_DOUBLE_EQ(p.rack_cap_w, 25000);
    EXPECT_EQ(p.racks_per_pdu, 4);
    EXPECT_DOUBLE_EQ(p.host_idle_w, 450);
    EXPECT_DOUBLE_EQ(p.default_gpu.idle_w, 50);
    EXPECT_DOUBLE_EQ(p.default_gpu.active_w, 350);
    ASSERT_TRUE(p.gpu_power.contains("H100"));
    EXPECT_DOUBLE_EQ(p.gpu_power.at("H100").active_w, 700);
    EXPECT_DOUBLE_EQ(p.dvfs_exponent, 2.5);
    EXPECT_DOUBLE_EQ(p.min_clock, 0.6);
}

} // namespace
} // namespace tacc::power
