/**
 * @file
 * Request-granular serving plane: the one serving model (T11, T13,
 * T20).
 *
 * An actual request path on the discrete-event simulator: an open-loop
 * arrival process (diurnal curve plus an optional burst window,
 * generated in bounded windows via the streaming batched-event path so
 * a day of millions of requests runs in flat memory), per-replica
 * bounded batching queues, and the robustness stack from robustness.h —
 * SLO-aware admission, per-tenant retry budgets with backoff +
 * decorrelated jitter, per-replica circuit breakers fed by node health,
 * and tiered graceful degradation.
 *
 * The plane knows nothing about the cluster: replicas are opaque slots
 * backed by PlaneHooks (the embedding TaccStack spawns a 1-GPU
 * inference job per slot and routes its lifecycle notifications back).
 * Timed-out requests are *not* dequeued — the replica still burns
 * service time on them, which is exactly the wasted-work feedback loop
 * that makes an unprotected tier metastable and what admission control
 * plus retry budgets are shown to break in bench_t20_serving.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "serve/robustness.h"
#include "sim/simulator.h"

namespace tacc::serve {

/** Configuration of the request-level serving plane. */
struct ServePlaneConfig {
    /** Master switch; off leaves every existing digest byte-identical. */
    bool enabled = false;

    /** Tenant group the replica jobs bill to. */
    std::string group = "serve";
    /** Model served (becomes the replica jobs' model tag). */
    std::string model = "resnet50";

    /** @name Replica pool */
    ///@{
    int initial_replicas = 2;
    int min_replicas = 1;
    int max_replicas = 8;
    ///@}

    /** @name Arrival process (open loop) */
    ///@{
    /** Mean arrival rate at the diurnal trough. */
    double request_rate_hz = 20.0;
    /** Arrivals stop after this much simulated time. */
    double horizon_s = 3600.0;
    /** Sinusoidal day curve (peak/trough ratio; 1 = flat). */
    bool diurnal = false;
    double diurnal_peak_ratio = 2.0;
    /** Burst window multiplier (1 = no burst). */
    double burst_factor = 1.0;
    double burst_start_s = 0.0;
    double burst_duration_s = 0.0;
    /** Distinct client tenants (round-robin request attribution). */
    int tenants = 4;
    /** Arrival candidates generated per streaming window refill. */
    int arrival_window = 512;
    ///@}

    /** @name Replica service (bounded batching) */
    ///@{
    int max_batch = 8;
    /** Per-batch fixed cost (weights load, kernel launch). */
    double batch_fixed_s = 0.040;
    /** Incremental cost per request in the batch. */
    double batch_per_request_s = 0.010;
    ///@}

    /** @name Client behaviour */
    ///@{
    /** Latency SLO (end to end, from first arrival). */
    double slo_s = 1.0;
    /** Client abandons an attempt after this long. */
    double client_timeout_s = 2.0;
    /** Retries per logical request (beyond the first attempt). */
    int max_retries = 3;
    double retry_base_s = 0.1;
    double retry_cap_s = 10.0;
    /** Decorrelated jitter on retry backoff (off = pure exponential). */
    bool retry_jitter = true;
    ///@}

    /** @name Robustness toggles */
    ///@{
    bool admission = true;
    AdmissionConfig admission_cfg;
    bool retry_budget = true;
    RetryBudgetConfig budget;
    bool breakers = true;
    BreakerConfig breaker;
    /** Tiered degradation: serve a cheap response under pressure. */
    bool degrade = true;
    /** Queue backlog (seconds) beyond which responses degrade. */
    double degrade_backlog_s = 0.5;
    /** Service-cost multiplier of a degraded response. */
    double degrade_cost_factor = 0.25;
    /** Absolute per-replica queue bound (memory safety; enforced even
     *  with admission off — the no-admission baseline sheds only here). */
    int hard_queue_cap = 1024;
    ///@}

    /** @name Autoscaling on measured signals */
    ///@{
    bool autoscale = true;
    double scale_period_s = 60.0;
    /** Provisioning headroom over the measured arrival rate. */
    double scale_headroom = 1.3;
    ///@}

    /** Resolution of the goodput/offered/capacity report series. */
    double series_bucket_s = 60.0;

    /** Saturated per-replica throughput (requests/s at full batches). */
    double
    per_replica_capacity_hz() const
    {
        const double batch_s =
            batch_fixed_s + max_batch * batch_per_request_s;
        return batch_s > 0 ? max_batch / batch_s : 0.0;
    }
};

/** How the plane reaches the embedding stack (replica lifecycle). */
struct PlaneHooks {
    /** Submit a replica job for slot; returns its job id (0 = refused). */
    std::function<uint64_t(int slot)> spawn_replica;
    /** Terminally kill a replica job (scale-down / shutdown). */
    std::function<void(uint64_t job)> kill_replica;
    /** Is the node backing a replica degraded or worse? */
    std::function<bool(uint32_t node)> node_degraded;
    /**
     * Load forecaster (the stack's PredictionHub): folds the arrival
     * rate measured over the last scale period and returns the rate to
     * provision for the next one. Null = autoscale on the measured
     * (instantaneous) signal, byte-identical to pre-prediction runs.
     */
    std::function<double(double measured_rate_hz)> forecast_rate;
};

/** Monotonic counters; folded into the run digest when the plane ran. */
struct PlaneCounters {
    uint64_t requests = 0;   ///< logical requests (first attempts)
    uint64_t attempts = 0;   ///< dispatch attempts incl. retries
    uint64_t admitted = 0;
    uint64_t ok = 0;         ///< completed within SLO (goodput)
    uint64_t late = 0;       ///< completed but over SLO
    uint64_t degraded = 0;   ///< completions served in degraded tier
    uint64_t wasted = 0;     ///< server work burned on abandoned requests
    uint64_t shed = 0;       ///< refused before queueing
    uint64_t breaker_shed = 0;
    uint64_t timeouts = 0;
    uint64_t retries = 0;
    uint64_t retries_denied = 0;
    uint64_t dropped = 0;    ///< logical requests that never completed
    uint64_t breaker_trips = 0;
    uint64_t replica_failures = 0;
    uint64_t replicas_spawned = 0;
};

/** Snapshot handed to tools/bench (series are per series_bucket_s). */
struct ServingReport {
    PlaneCounters counters;
    double slo_attainment = 0; ///< ok / logical requests
    int replicas_up = 0;
    bool slo_unattainable = false;
    double bucket_s = 0;
    std::vector<double> offered;  ///< first-attempt arrivals per bucket
    std::vector<double> goodput;  ///< in-SLO completions per bucket
    std::vector<double> capacity; ///< surviving capacity (requests/bucket)
};

class RequestPlane
{
  public:
    RequestPlane(sim::Simulator &sim, ServePlaneConfig config,
                 uint64_t seed, PlaneHooks hooks);

    /** Spawns the initial pool and starts arrivals + autoscaling. */
    void start();

    /** @name Replica lifecycle notifications (from the stack) */
    ///@{
    /** The replica job was placed and is running on `node`. */
    void on_replica_up(uint64_t job, uint32_t node);
    /** The replica job stopped running (crash/preempt); the stack will
     *  requeue it, so the slot keeps the job id and waits. */
    void on_replica_down(uint64_t job);
    /** The replica job is terminally gone (killed or failed out). */
    void on_replica_gone(uint64_t job);
    ///@}

    /** True once arrivals finished and every request resolved; the
     *  stack treats a non-idle plane as pending work. */
    bool idle() const { return !config_.enabled || done_; }

    const ServePlaneConfig &config() const { return config_; }
    const PlaneCounters &counters() const { return counters_; }
    int replicas_up() const;
    int replicas_desired() const { return desired_; }
    /** Total admitted-but-unserved requests across replicas. */
    int queue_depth() const;
    bool slo_unattainable() const { return slo_unattainable_; }
    const RetryBudget &tenant_budget(int tenant) const;
    /** Snapshot up to now(); the capacity series includes the pending
     *  interval since the last up-count change, and nothing is
     *  committed, so reading never changes a later report. */
    ServingReport report() const;

  private:
    struct Request {
        uint64_t id = 0;
        int tenant = 0;
        int attempt = 1;
        bool degraded = false;
        /** Client gave up (timeout); server work on it is wasted. */
        bool abandoned = false;
        double last_backoff_s = 0;
        TimePoint first_arrival;
        sim::EventId timeout_event = 0;
        int replica_slot = -1;
    };

    struct Replica {
        uint64_t job = 0;
        uint32_t node = 0;
        bool up = false;
        /** False once scale-down/shutdown decided to retire the slot. */
        bool wanted = false;
        std::deque<uint64_t> queue;
        std::vector<uint64_t> batch;
        sim::EventId batch_event = 0;
        CircuitBreaker breaker;
    };

    void refill_arrivals();
    double rate_at(double t_s) const;
    void on_arrival();
    void dispatch(uint64_t request_id);
    int pick_replica();
    double backlog_s(const Replica &replica) const;
    void maybe_start_batch(int slot);
    void on_batch_done(int slot);
    void on_timeout(uint64_t request_id);
    /** Client-side failure of one attempt: retry or drop. */
    void attempt_failed(uint64_t request_id);
    void flush_replica(int slot);
    void spawn_missing();
    void autoscale_tick();
    void maybe_shutdown();
    void record_offered(TimePoint t);
    void record_goodput(TimePoint t);
    void accrue_capacity(TimePoint now);
    /** Adds the current surviving capacity over [from_s, to_s) to
     *  buckets, split at bucket boundaries. */
    void add_capacity(std::vector<double> &buckets, double from_s,
                      double to_s) const;
    static void bump_bucket(std::vector<double> &buckets, size_t index,
                            double amount);

    sim::Simulator &sim_;
    ServePlaneConfig config_;
    PlaneHooks hooks_;
    Rng arrival_rng_;
    Rng retry_rng_;

    std::vector<Replica> replicas_;
    std::vector<RetryBudget> budgets_;
    std::unordered_map<uint64_t, Request> requests_;
    PlaneCounters counters_;
    sim::PeriodicTask autoscale_task_;
    std::vector<sim::BatchEvent> batch_scratch_;

    uint64_t next_request_id_ = 1;
    int desired_ = 0;
    int retry_timers_ = 0;
    int pending_arrivals_ = 0;
    /** Arrival-process clock: time of the last generated candidate. */
    double last_candidate_s_ = 0;
    bool horizon_reached_ = false;
    bool done_ = false;
    bool slo_unattainable_ = false;
    /** Offered rate measured over the current autoscale period. */
    uint64_t arrivals_this_period_ = 0;

    /** @name Report series (per series_bucket_s buckets) */
    ///@{
    std::vector<double> offered_buckets_;
    std::vector<double> goodput_buckets_;
    std::vector<double> capacity_buckets_;
    TimePoint capacity_accrued_to_;
    ///@}
};

} // namespace tacc::serve
