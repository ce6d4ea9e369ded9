/**
 * @file
 * OpsCenter: the operations-layer hub one deployment carries.
 *
 * Owns the metric store, the alert engine, and the tenant accountant,
 * and runs the pull-based collection cycle: higher layers register
 * sample *sources* (closures reading live cluster state — GPU
 * utilization, queue depth, usage shares, failure counters) and the
 * embedding stack drives sample() from the simulator's pre-fire watch
 * (sim::Simulator::set_watch) at every sample instant. One
 * sample() pass polls every source into the store, then evaluates the
 * alert rules — so collection is strictly observational: it never
 * mutates scheduler or cluster state and never perturbs event ordering.
 *
 * The ops module sits *below* core in the module DAG (it depends only on
 * common); TaccStack wires its components in as sources.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "ops/accounting.h"
#include "ops/alert.h"
#include "ops/metric_store.h"

namespace tacc::ops {

/** Canonical series names the standard collectors publish. */
namespace series {
inline constexpr const char kGpuUtil[] = "cluster.gpu_util";
inline constexpr const char kFragmentation[] = "cluster.fragmentation";
inline constexpr const char kQueueDepth[] = "queue.depth";
inline constexpr const char kQueueOldestWait[] = "queue.oldest_wait_s";
inline constexpr const char kRunningJobs[] = "jobs.running";
inline constexpr const char kCompletedJobs[] = "jobs.completed";
inline constexpr const char kFailedJobs[] = "jobs.failed";
inline constexpr const char kPreemptions[] = "sched.preemptions";
inline constexpr const char kDeadlineMisses[] = "sched.deadline_misses";
inline constexpr const char kSegmentFailures[] = "exec.segment_failures";
inline constexpr const char kCrossRackJobs[] = "net.cross_rack_jobs";
inline constexpr const char kMonitorLines[] = "monitor.lines";
inline constexpr const char kSloAttainment[] = "serve.slo_attainment";
/** @name Request-serving plane (published when serving is on) */
///@{
inline constexpr const char kServeRequests[] = "serve.requests";
inline constexpr const char kServeGoodput[] = "serve.goodput";
inline constexpr const char kServeShed[] = "serve.shed";
inline constexpr const char kServeDegraded[] = "serve.degraded";
inline constexpr const char kServeRetries[] = "serve.retries";
inline constexpr const char kServeBreakerTrips[] = "serve.breaker_trips";
inline constexpr const char kServeReplicasUp[] = "serve.replicas_up";
inline constexpr const char kServeQueueDepth[] = "serve.queue_depth";
///@}
inline constexpr const char kNodesHealthy[] = "health.nodes_healthy";
inline constexpr const char kNodesDegraded[] = "health.nodes_degraded";
inline constexpr const char kNodesDown[] = "health.nodes_down";
/** Fraction of total GPU capacity on schedulable nodes. */
inline constexpr const char kSchedulableCapacity[] =
    "health.schedulable_capacity";
inline constexpr const char kNodeFaults[] = "health.node_faults";
inline constexpr const char kFaultLostGpuSeconds[] =
    "health.fault_lost_gpu_s";
/** Per-group fair-share usage: kGroupSharePrefix + group name. */
inline constexpr const char kGroupSharePrefix[] = "group.share.";
/** @name Power & energy (published when power management is on) */
///@{
inline constexpr const char kPowerDrawW[] = "power.draw_w";
inline constexpr const char kPowerHeadroomW[] = "power.headroom_w";
inline constexpr const char kPowerEnergyKwh[] = "power.energy_kwh";
inline constexpr const char kPowerDeferrals[] = "power.deferrals";
inline constexpr const char kPowerDvfsStarts[] = "power.dvfs_starts";
///@}
} // namespace series

/** Configuration of one deployment's operations layer. */
struct OpsConfig {
    /** Master switch; a disabled stack carries no ops state at all. */
    bool enabled = true;
    /** Collector cadence (simulated time). */
    Duration sample_period = Duration::seconds(30);
    MetricStoreConfig store;
    /** Install the standard campus alert pack (see default_rules()). */
    bool install_default_rules = true;
    /** Billing period for tenant statements. */
    Duration billing_period = Duration::days(30);
};

/** The standard campus alert pack, sized for the 256-GPU deployment. */
std::vector<AlertRule> default_rules();

class OpsCenter
{
  public:
    explicit OpsCenter(OpsConfig config = {});

    const OpsConfig &config() const { return config_; }
    MetricStore &store() { return store_; }
    const MetricStore &store() const { return store_; }
    AlertEngine &alerts() { return alerts_; }
    const AlertEngine &alerts() const { return alerts_; }
    Accountant &accounting() { return accounting_; }
    const Accountant &accounting() const { return accounting_; }

    /**
     * A source's value at the sample instant it is passed; sources that
     * read the clock must use that instant.
     */
    using SourceFn = std::function<double(TimePoint)>;

    /** @name Source registration (done once, at stack wiring time) */
    ///@{
    void add_gauge_source(const std::string &name, SourceFn fn);
    void add_counter_source(const std::string &name, SourceFn fn);
    /**
     * A source producing a *set* of gauges per sample (e.g. one share
     * per tenant group); it calls record_gauge for each.
     */
    void add_multi_source(
        std::function<void(OpsCenter &, TimePoint)> fn);
    ///@}

    /** Records a dynamically named gauge (defines the series lazily). */
    void record_gauge(const std::string &name, TimePoint t, double v);

    /**
     * One collection cycle: polls every source at time now, then
     * evaluates the alert rules. Driven by the stack's sample watch;
     * now must be non-decreasing.
     */
    void sample(TimePoint now);

    uint64_t samples_taken() const { return samples_; }

  private:
    struct Source {
        SeriesId id;
        SourceFn fn;
    };

    OpsConfig config_;
    MetricStore store_;
    AlertEngine alerts_;
    Accountant accounting_;
    std::vector<Source> sources_;
    std::vector<std::function<void(OpsCenter &, TimePoint)>>
        multi_sources_;
    uint64_t samples_ = 0;
};

} // namespace tacc::ops
