/**
 * @file
 * OpsCenter: the operations-layer hub one deployment carries.
 *
 * Owns the metric store, the alert engine, and the tenant accountant,
 * and runs the pull-based collection cycle: higher layers register
 * sample *sources* (closures reading live cluster state — GPU
 * utilization, queue depth, usage shares, failure counters) and the
 * embedding stack appends sample instants from the simulator's
 * pre-fire watch (sim::Simulator::set_watch). Every instant's values
 * are read at the instant; the instants gather in one pending chunk,
 * recorded (ring writes, then rule evaluation instant by instant) when
 * it fills and before anything reads the store, the alerts or the
 * sample count, so every reader sees what a pass per instant would
 * have left. Collection is strictly observational: it never mutates
 * scheduler or cluster state and never perturbs event ordering.
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

/**
 * What a source's value depends on. A state-only source reads stack
 * state, which no sample instant changes, so a run of quiet instants
 * polls it once. A clock-reading source uses the instant it is passed
 * or keeps state of its own between calls; it is polled at every
 * instant, in time order.
 */
enum class Reads { kState, kClock };

class OpsCenter
{
  public:
    explicit OpsCenter(OpsConfig config = {});

    const OpsConfig &config() const { return config_; }
    /** @name Readers: each records the pending chunk first */
    ///@{
    MetricStore &store()
    {
        flush();
        return store_;
    }
    const MetricStore &store() const
    {
        flush();
        return store_;
    }
    AlertEngine &alerts()
    {
        flush();
        return alerts_;
    }
    const AlertEngine &alerts() const
    {
        flush();
        return alerts_;
    }
    ///@}
    Accountant &accounting() { return accounting_; }
    const Accountant &accounting() const { return accounting_; }

    /**
     * A source's value at the sample instant it is passed; sources that
     * read the clock must use that instant.
     */
    using SourceFn = std::function<double(TimePoint)>;

    /** @name Source registration (done once, at stack wiring time) */
    ///@{
    void add_gauge_source(const std::string &name, SourceFn fn,
                          Reads reads = Reads::kClock);
    void add_counter_source(const std::string &name, SourceFn fn,
                            Reads reads = Reads::kClock);
    /** One gauge value of a multi-source at one instant. */
    struct Reading {
        SeriesId id;
        double v;
    };
    /**
     * A source producing a *set* of gauges per sample instant (e.g. one
     * share per tenant group). Called once per instant, in time order,
     * it appends a reading for each gauge it has a value for at that
     * instant, defining the series in the store as it first needs them
     * (callers cache the ids); the center records the readings.
     */
    using MultiSourceFn =
        std::function<void(MetricStore &, TimePoint, std::vector<Reading> &)>;
    void add_multi_source(MultiSourceFn fn);
    ///@}

    /** Records a dynamically named gauge (defines the series lazily). */
    void record_gauge(const std::string &name, TimePoint t, double v);

    /**
     * Takes k sample instants at first, first + sample_period, ..., with
     * no change to stack state between them (no event fires in the
     * run); first must not precede an instant taken before. Every value
     * is read now: state-only sources once, clock-reading sources and
     * multi-sources at every instant, in time order. The instants join
     * the pending chunk, which starts afresh at an instant off its
     * sample grid and is recorded whenever it fills.
     */
    void append(TimePoint first, size_t k = 1);

    /**
     * Records the pending chunk, bit for bit as a pass per instant
     * would have: each series records its chunk with one record_run
     * call, then the rules are evaluated instant by instant. A series a
     * rule could not read that way (AlertEngine::hold_back) is recorded
     * instant by instant instead, just before each evaluation. Const
     * because readers call it: what they see never depends on when the
     * chunk is recorded.
     */
    void
    flush() const
    {
        if (chunk_.count > 0)
            record_chunk();
    }

    uint64_t
    samples_taken() const
    {
        flush();
        return samples_;
    }

  private:
    struct Source {
        SeriesId id;
        SourceFn fn;
        Reads reads;
    };

    /** Instants the pending chunk holds at most. */
    static constexpr size_t kRunChunk = 64;

    /** Instants taken but not yet recorded, and a recording's scratch. */
    struct Chunk {
        /** The chunk's first instant and its instant count. */
        TimePoint first;
        size_t count = 0;
        /** Per source, its values at the chunk's instants (kRunChunk
         *  each). */
        std::vector<double> values;
        /** Multi-source readings, instant after instant; ends[i] is the
         *  end of instant i's. */
        std::vector<Reading> readings;
        std::vector<size_t> ends;
        /** Per series, its samples in the chunk and whether it is
         *  recorded instant by instant; one series' readings. */
        std::vector<uint32_t> run_counts;
        std::vector<uint8_t> held;
        std::vector<double> column;
    };

    /** Records chunk_ (count > 0) and empties it. */
    void record_chunk() const;

    OpsConfig config_;
    // Recording the pending chunk is no observable change, so readers
    // (const) may do it: the store, the rules and the sample count it
    // writes are mutable, the way the simulator's heap is for
    // drain_cancelled.
    mutable MetricStore store_;
    mutable AlertEngine alerts_;
    Accountant accounting_;
    std::vector<Source> sources_;
    std::vector<MultiSourceFn> multi_sources_;
    mutable uint64_t samples_ = 0;
    mutable Chunk chunk_;
    /** State-only sources' values of the current append. */
    std::vector<double> polled_;
};

} // namespace tacc::ops
