/**
 * @file
 * Operational metrics of a TACC stack run.
 *
 * Collects exactly what a cluster-operation paper reports: per-job records
 * (JCT, queueing delay, preemptions, service), time-weighted cluster
 * utilization and queue depth, and per-group service for fairness indices.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/stats.h"
#include "common/time.h"
#include "workload/job.h"

namespace tacc::core {

/** Immutable record of one finished (or abandoned) job. */
struct JobRecord {
    cluster::JobId id = cluster::kInvalidJob;
    std::string user;
    std::string group;
    workload::QosClass qos = workload::QosClass::kBatch;
    workload::JobState final_state = workload::JobState::kCompleted;
    TimePoint submitted;
    /** Terminal time (== submitted for jobs that never went terminal);
     *  what billing-period attribution keys on. */
    TimePoint finished;
    int gpus = 0;
    double wait_s = 0;      ///< submit -> first start (0 if never started)
    double jct_s = 0;       ///< submit -> terminal
    /** Estimated minimal service time at the requested scale. */
    double ideal_s = 0;
    double provision_s = 0; ///< compiler-layer latency
    double gpu_seconds = 0;
    int preemptions = 0;
    int segments = 0;
    bool started = false;
    bool has_deadline = false;
    bool missed_deadline = false;
    /**
     * Fold of every placement committed for the job (node ids + device
     * indices, in commit order). Two runs made the same placement
     * decisions for a job iff the digests match — the per-job input to
     * the sweep driver's determinism digest.
     */
    uint64_t placement_digest = 0;
};

struct RunDigestCounts; // core/digest.h

/** Streaming-mode knobs (see MetricsCollector::enable_streaming). */
struct StreamingMetricsConfig {
    /** FNV state after the run-identity prefix (run_digest_prefix). */
    uint64_t digest_prefix = 0;
    /** Bucket width of the bounded utilization/queue-depth series. */
    Duration series_bucket = Duration::hours(1);
};

/**
 * Run-wide metric accumulation.
 *
 * Two retention modes. The default (materialized) keeps every terminal
 * JobRecord for exact percentiles and post-hoc digests. Streaming mode
 * — the million-job regime — retains no records: each one is folded
 * into the run digest the moment the job-id prefix becomes contiguous
 * (terminal order is arbitrary but the reorder buffer is bounded by
 * the number of live jobs) and into O(1)-memory percentile sketches,
 * and the time-weighted signals switch to flat per-bucket integrals.
 * Aggregate sums (GPU-seconds, per-group service, deadline counters)
 * accumulate identically in both modes.
 */
class MetricsCollector
{
  public:
    MetricsCollector();

    /**
     * Switches to streaming retention. Call before the first signal;
     * the digest prefix seeds the incremental record fold.
     */
    void enable_streaming(const StreamingMetricsConfig &config);

    bool streaming() const { return streaming_; }

    /** Capacity hint for the record vector (materialized mode). */
    void reserve_records(size_t n);

    /** @name Signals driven by the core */
    ///@{
    void on_gpus_in_use(TimePoint t, int used);
    void on_queue_depth(TimePoint t, int pending);
    void on_preemption() { ++preemptions_; }
    void on_segment_failure() { ++segment_failures_; }
    /** A node went Down (crash or fault-domain outage). */
    void on_node_fault() { ++node_faults_; }
    /** GPU-seconds of held-but-wasted work a fault destroyed. */
    void
    on_fault_loss(double gpu_seconds)
    {
        fault_lost_gpu_seconds_ += gpu_seconds;
    }
    /** Fault kill -> next segment start, per requeued job. */
    void
    on_requeue_latency(double seconds)
    {
        requeue_latency_.add(seconds);
    }
    /**
     * Folds a committed placement into a job's placement digest (start
     * from kPlacementBasis; the caller keeps the running value per job).
     */
    static uint64_t fold_placement(uint64_t digest,
                                   const cluster::Placement &p);
    static constexpr uint64_t kPlacementBasis = Fnv1a::kBasis;
    /** An arrival fired at t; tracks the arrival-window end (streaming
     *  mode; the materialized path derives it from the trace). */
    void on_arrival(TimePoint t);
    /** @param placement_digest the job's fold_placement() value; read
     *  only for a job that started.
     *  @return the appended record (the ops accounting hand-off). In
     *  streaming mode the reference is to a scratch record that stays
     *  valid only until the next record_job call. */
    const JobRecord &record_job(const workload::Job &job,
                                uint64_t placement_digest = 0);
    ///@}

    /** @name Extraction */
    ///@{
    const std::vector<JobRecord> &records() const { return records_; }

    /** Records filtered to one QoS class. */
    std::vector<JobRecord> records_of(workload::QosClass qos) const;

    /** JCT samples (seconds) of completed jobs, optionally one class. */
    Samples jct_samples() const;
    Samples jct_samples_of(workload::QosClass qos) const;
    Samples wait_samples() const;
    Samples wait_samples_of(workload::QosClass qos) const;

    /** Time-weighted mean GPU utilization over [t0, t1], given capacity. */
    double mean_utilization(TimePoint t0, TimePoint t1,
                            int total_gpus) const;

    /** Utilization timeline (bucketed), as a fraction of capacity. */
    std::vector<double> utilization_series(TimePoint t0, TimePoint t1,
                                           Duration bucket,
                                           int total_gpus) const;

    double mean_queue_depth(TimePoint t0, TimePoint t1) const;

    /** Mean pending-queue depth per bucket (diurnal queueing figures). */
    std::vector<double> queue_depth_series(TimePoint t0, TimePoint t1,
                                           Duration bucket) const;

    /** Slowdown (JCT / minimal service time) of completed jobs. */
    Samples slowdown_samples() const;

    /** GPU-seconds delivered per group (completed + partial service). */
    std::map<std::string, double> gpu_seconds_by_group() const;

    /** Mean slowdown per group (completed jobs only). */
    std::map<std::string, double> mean_slowdown_by_group() const;

    /**
     * Jain index across groups' mean slowdowns: 1.0 when every group's
     * jobs are delayed equally, lower when some groups wait much longer
     * than others.
     */
    double group_fairness() const;

    /** Fraction of deadline-carrying jobs that missed (0 if none). */
    double deadline_miss_rate() const;

    /** @name Streaming-mode extraction */
    ///@{
    /** Percentile sketches (exact count/sum/mean/min/max). */
    const QuantileSketch &jct_sketch() const { return jct_sketch_; }
    const QuantileSketch &wait_sketch() const { return wait_sketch_; }
    const QuantileSketch &
    interactive_wait_sketch() const
    {
        return interactive_wait_sketch_;
    }
    const QuantileSketch &
    slowdown_sketch() const
    {
        return slowdown_sketch_;
    }
    /** Mean utilization over [origin, last arrival] (the mark). */
    double arrival_window_utilization(int total_gpus) const;
    /** Time of the last arrival seen by on_arrival. */
    TimePoint arrival_window_end() const;
    /**
     * Drains the reorder buffer (records of never-contiguous prefixes
     * fold in id order), folds the digest tail, and returns the run
     * digest. Call exactly once, after the run has quiesced.
     */
    uint64_t finish_streaming_digest(const RunDigestCounts &counts);
    ///@}

    /** @name Running aggregates (O(1) per record; both modes) */
    ///@{
    double total_gpu_seconds() const { return total_gpu_seconds_; }
    double
    total_ideal_gpu_seconds() const
    {
        return total_ideal_gpu_seconds_;
    }
    ///@}

    uint64_t preemptions() const { return preemptions_; }
    uint64_t segment_failures() const { return segment_failures_; }
    uint64_t node_faults() const { return node_faults_; }
    double fault_lost_gpu_seconds() const { return fault_lost_gpu_seconds_; }
    const Samples &requeue_latency_samples() const
    {
        return requeue_latency_;
    }
    /** @name O(1) counters (polled every ops sample) */
    ///@{
    size_t completed_count() const { return completed_count_; }
    size_t failed_count() const { return failed_count_; }
    size_t deadline_missed_count() const { return deadline_missed_; }
    ///@}
    /** Time of the last recorded job's terminal event. */
    TimePoint makespan() const { return makespan_; }
    ///@}

  private:
    /** Builds the terminal record (shared by both retention modes). */
    JobRecord make_record(const workload::Job &job,
                          uint64_t placement_digest);
    /** Folds buffered records while the id prefix is contiguous. */
    void drain_fold();

    std::vector<JobRecord> records_;
    TimeWeightedStat used_gpus_;
    TimeWeightedStat queue_depth_;
    uint64_t preemptions_ = 0;
    uint64_t segment_failures_ = 0;
    uint64_t node_faults_ = 0;
    double fault_lost_gpu_seconds_ = 0;
    Samples requeue_latency_;
    size_t completed_count_ = 0;
    size_t failed_count_ = 0;
    size_t deadline_missed_ = 0;
    size_t with_deadline_ = 0;
    TimePoint makespan_;

    /** @name Running aggregates (both modes; accumulation order equals
     *  record order, so sums match the record-loop values bit-for-bit) */
    ///@{
    double total_gpu_seconds_ = 0;
    double total_ideal_gpu_seconds_ = 0;
    std::map<std::string, double> group_gpu_seconds_;
    std::map<std::string, double> group_slowdown_sum_;
    std::map<std::string, int> group_slowdown_count_;
    ///@}

    /** @name Streaming mode */
    ///@{
    bool streaming_ = false;
    uint64_t digest_state_ = 0;
    uint64_t folded_records_ = 0;
    /** Next job id the contiguous fold is waiting for. */
    cluster::JobId next_fold_id_ = 1;
    /** Terminal records not yet foldable (id order); O(live jobs). */
    std::map<cluster::JobId, JobRecord> reorder_;
    /** Returned by record_job in streaming mode (no retention). */
    JobRecord scratch_record_;
    QuantileSketch jct_sketch_;
    QuantileSketch wait_sketch_;
    QuantileSketch interactive_wait_sketch_;
    QuantileSketch slowdown_sketch_;
    BoundedTimeWeighted bounded_used_;
    BoundedTimeWeighted bounded_queue_;
    ///@}
};

} // namespace tacc::core
