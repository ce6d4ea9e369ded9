/**
 * @file
 * The scheduling-policy zoo.
 *
 * TACC's scheduling layer (backed by Slurm in the deployed system) supports
 * fair-share scheduling, gang time-slicing, backfill, quota management and
 * preemption; recent research policies (LAS/Tiresias, DRF, goodput-driven
 * elasticity a la Pollux) slot into the same interface. Every policy here
 * is a pure function from a SchedulerContext snapshot to a
 * ScheduleDecision, so they compare apples-to-apples in the benches.
 *
 * Policy summary:
 *  - FifoScheduler        strict arrival order (optionally skipping blocked
 *                         heads, which is backfilling without reservations)
 *  - SjfScheduler         shortest user-estimated runtime first
 *  - FairShareScheduler   Slurm-style multifactor priority (age, fair-share
 *                         deficit, QoS, size)
 *  - BackfillScheduler    EASY or conservative reservation backfill
 *  - QosPreemptScheduler  strict QoS tiers; preempts lower tiers on demand
 *  - LasScheduler         least-attained-service with two-queue preemption
 *                         (Tiresias-like)
 *  - GangScheduler        cluster-wide round-robin gang time-slicing
 *  - DrfScheduler         dominant-resource fairness across groups
 *  - ElasticScheduler     goodput-driven GPU re-allocation for elastic jobs
 *                         (Pollux-like)
 */
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/capacity_profile.h"
#include "sched/types.h"

namespace tacc::sched {

/** Tunables shared by the scheduler factory. */
struct SchedulerOptions {
    /** FIFO: true = head-of-line blocking (no skipping). */
    bool strict_fifo = true;
    /** Backfill: true = conservative (reservations for every queued job). */
    bool conservative_backfill = false;
    /**
     * Backfill: queued jobs examined per pass (Slurm bf_max_job_test).
     * 0 = unlimited (the historical behaviour); small depths trade
     * backfill opportunities for cheaper passes and less reservation
     * churn. A prime auto-tuning dimension.
     */
    int backfill_depth = 0;
    /**
     * Preemption-cost ceiling: a running victim whose sunk work in the
     * current segment (GPUs x segment age) exceeds this many
     * GPU-seconds is never preempted. 0 = no ceiling (the historical
     * behaviour). Applies to the preempting policies (qos-preempt,
     * las).
     */
    double preempt_cost_threshold_gpu_s = 0;
    /** Gang scheduler time-slice quantum. */
    Duration gang_quantum = Duration::minutes(10);
    /** Elastic scheduler re-allocation period. */
    Duration elastic_period = Duration::minutes(2);
    /** LAS: attained GPU-seconds separating the high from the low queue. */
    double las_queue_threshold_gpu_s = 3600.0;
    /** Fair-share priority weights. */
    double w_age = 0.3;
    double w_fairshare = 0.4;
    double w_qos = 0.2;
    double w_size = 0.1;
    /** Age at which the age factor saturates. */
    Duration age_saturation = Duration::hours(12);
};

/** Strict (or skipping) arrival-order scheduling. */
class FifoScheduler : public Scheduler
{
  public:
    explicit FifoScheduler(bool strict = true) : strict_(strict) {}
    std::string name() const override
    {
        return strict_ ? "fifo" : "fifo-skip";
    }
    ScheduleDecision schedule(const SchedulerContext &ctx) override;

  private:
    bool strict_;
};

/**
 * Shortest job first, ordered by the user's time limit or (when
 * use_estimates and history exist) the learned runtime prediction.
 */
class SjfScheduler : public Scheduler
{
  public:
    explicit SjfScheduler(bool use_estimates = false)
        : use_estimates_(use_estimates)
    {
    }
    std::string name() const override
    {
        return use_estimates_ ? "sjf-pred" : "sjf";
    }
    ScheduleDecision schedule(const SchedulerContext &ctx) override;

  private:
    bool use_estimates_;
};

/** Slurm-style multifactor priority with fair-share deficit. */
class FairShareScheduler : public Scheduler
{
  public:
    explicit FairShareScheduler(SchedulerOptions opts = {}) : opts_(opts) {}
    std::string name() const override { return "fairshare"; }
    ScheduleDecision schedule(const SchedulerContext &ctx) override;

    /** The priority value used for ordering (exposed for tests). */
    double priority(const SchedulerContext &ctx,
                    const workload::Job &job) const;

  private:
    SchedulerOptions opts_;
};

/**
 * EASY / conservative backfill over arrival order. With use_estimates,
 * reservation bounds come from the runtime estimator instead of the
 * (loose) user time limits, which tightens the shadow windows and admits
 * more backfill.
 */
class BackfillScheduler : public Scheduler
{
  public:
    /** @param depth queued jobs examined per pass; 0 = unlimited. */
    explicit BackfillScheduler(bool conservative = false,
                               bool use_estimates = false, int depth = 0)
        : conservative_(conservative), use_estimates_(use_estimates),
          depth_(depth)
    {
    }
    std::string name() const override
    {
        if (use_estimates_)
            return conservative_ ? "backfill-cons-pred" : "backfill-pred";
        return conservative_ ? "backfill-cons" : "backfill-easy";
    }
    ScheduleDecision schedule(const SchedulerContext &ctx) override;

  private:
    bool conservative_;
    bool use_estimates_;
    int depth_;
    /** A pass's timeline and the running jobs' releases, kept for
     *  reuse. */
    CapacityProfile profile_{TimePoint::origin(), 0};
    std::vector<CapacityProfile::Release> releases_;
};

/** Strict QoS tiers with demand-driven preemption of lower tiers. */
class QosPreemptScheduler : public Scheduler
{
  public:
    /**
     * @param preemption_enabled false gives the no-preemption baseline.
     * @param cost_threshold_gpu_s victims with more sunk GPU-seconds in
     *        the current segment are spared; 0 = no ceiling.
     */
    explicit QosPreemptScheduler(bool preemption_enabled = true,
                                 double cost_threshold_gpu_s = 0)
        : preemption_enabled_(preemption_enabled),
          cost_threshold_gpu_s_(cost_threshold_gpu_s)
    {
    }
    std::string name() const override
    {
        return preemption_enabled_ ? "qos-preempt" : "qos-nopreempt";
    }
    ScheduleDecision schedule(const SchedulerContext &ctx) override;

  private:
    bool preemption_enabled_;
    double cost_threshold_gpu_s_;
};

/** Least-attained-service (Tiresias-like) two-queue scheduler. */
class LasScheduler : public Scheduler
{
  public:
    explicit LasScheduler(double queue_threshold_gpu_s = 3600.0,
                          double cost_threshold_gpu_s = 0)
        : threshold_(queue_threshold_gpu_s),
          cost_threshold_gpu_s_(cost_threshold_gpu_s)
    {
    }
    std::string name() const override { return "las"; }
    ScheduleDecision schedule(const SchedulerContext &ctx) override;
    Duration tick_period() const override { return Duration::minutes(5); }

  private:
    double threshold_;
    double cost_threshold_gpu_s_;
};

/** Cluster-wide round-robin gang time-slicing. */
class GangScheduler : public Scheduler
{
  public:
    explicit GangScheduler(Duration quantum = Duration::minutes(10))
        : quantum_(quantum)
    {
    }
    std::string name() const override { return "gang"; }
    ScheduleDecision schedule(const SchedulerContext &ctx) override;
    Duration tick_period() const override { return quantum_; }

  private:
    Duration quantum_;
    /** Round-robin recency: last quantum index each job was served. */
    std::unordered_map<cluster::JobId, uint64_t> last_served_;
    uint64_t round_ = 0;
};

/** Dominant-resource fairness across accounting groups. */
class DrfScheduler : public Scheduler
{
  public:
    std::string name() const override { return "drf"; }
    ScheduleDecision schedule(const SchedulerContext &ctx) override;
};

/**
 * Earliest-deadline-first over the pending queue; the preemptive variant
 * lets urgent deadline jobs (slack below the urgency window) preempt
 * later-deadline or deadline-free preemptible jobs.
 */
class EdfScheduler : public Scheduler
{
  public:
    explicit EdfScheduler(bool preemption_enabled = false,
                          Duration urgency_window = Duration::minutes(30))
        : preemption_enabled_(preemption_enabled),
          urgency_window_(urgency_window)
    {
    }
    std::string name() const override
    {
        return preemption_enabled_ ? "edf-preempt" : "edf";
    }
    ScheduleDecision schedule(const SchedulerContext &ctx) override;
    Duration tick_period() const override { return Duration::minutes(5); }

  private:
    bool preemption_enabled_;
    Duration urgency_window_;
};

/** Goodput-driven elastic re-allocation (Pollux-like). */
class ElasticScheduler : public Scheduler
{
  public:
    explicit ElasticScheduler(Duration period = Duration::minutes(2))
        : period_(period)
    {
    }
    std::string name() const override { return "elastic"; }
    ScheduleDecision schedule(const SchedulerContext &ctx) override;
    Duration tick_period() const override { return period_; }

  private:
    Duration period_;
};

/**
 * Builds a scheduler by name: "fifo", "fifo-skip", "sjf", "fairshare",
 * "backfill-easy", "backfill-cons", "qos-preempt", "qos-nopreempt", "las",
 * "gang", "drf", "elastic". @return nullptr for unknown names.
 */
std::unique_ptr<Scheduler> make_scheduler(const std::string &name,
                                          const SchedulerOptions &opts = {});

/** All factory names, for sweep benches. */
std::vector<std::string> scheduler_names();

} // namespace tacc::sched
