/**
 * @file
 * TaccStack: the full-stack facade wiring the four workflow layers.
 *
 * A TaccStack owns one simulated deployment: the cluster substrate, the
 * compiler layer (with its delta cache), a pluggable scheduling policy and
 * placement policy, the execution engine (runtimes, transports, shared FS,
 * failure injection), monitoring, fair-share usage accounting, and quota
 * enforcement. Tasks flow through exactly the paper's pipeline:
 *
 *   submit(spec)  -> schema validation                     [Task Schema]
 *                 -> compile + provision (delta cache)      [Compiler]
 *                 -> pending queue -> policy decision       [Scheduling]
 *                 -> placement, runtime, transport, run     [Execution]
 *
 * Everything is event-driven on the owned Simulator; runs are
 * deterministic for a fixed config.
 */
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "compiler/compiler.h"
#include "core/fault_domain.h"
#include "core/job_table.h"
#include "core/metrics.h"
#include "exec/engine.h"
#include "exec/monitor.h"
#include "ops/ops_center.h"
#include "power/power_manager.h"
#include "predict/hub.h"
#include "sched/capacity_profile.h"
#include "sched/estimator.h"
#include "sched/live_views.h"
#include "sched/placement.h"
#include "sched/schedulers.h"
#include "sched/usage.h"
#include "serve/request_plane.h"
#include "sim/simulator.h"
#include "workload/job.h"
#include "workload/stream.h"
#include "workload/trace.h"

namespace tacc::core {

/** Configuration of a full deployment. */
struct StackConfig {
    cluster::ClusterConfig cluster;
    compiler::CompilerConfig compiler;
    exec::ExecConfig exec;
    /** Scheduler factory name (see sched::make_scheduler). */
    std::string scheduler = "fairshare";
    sched::SchedulerOptions sched_opts;
    /** Placement factory name (see sched::make_placement_policy). */
    std::string placement = "topology";
    Duration usage_half_life = Duration::hours(24);
    /** Per-group concurrent GPU caps (ordered map: deterministic). */
    std::map<std::string, int> group_quotas;
    int default_group_quota = -1; ///< <0 = unlimited
    /** Heterogeneous clusters: forbid mixed-generation gangs. */
    bool avoid_gpu_mixing = false;
    uint64_t seed = 1;
    /** Emit per-node monitor log lines on job events. */
    bool emit_monitor_logs = true;
    /**
     * Operations layer: telemetry collectors, alert rules, tenant
     * accounting. Strictly observational — enabling it never changes a
     * scheduling decision or the event ordering jobs see.
     */
    ops::OpsConfig ops;
    /**
     * Fault-domain injection and the self-healing node lifecycle.
     * Disabled (the default) leaves every run byte-identical to a
     * stack without the subsystem; operator verbs (cordon/drain/
     * uncordon) work either way.
     */
    FaultDomainConfig faults;
    /**
     * Power & energy management: draw model, cluster/rack/PDU caps
     * (admission gating or DVFS), per-tenant energy accounting.
     * Disabled (the default) keeps every run byte-identical to a stack
     * without the subsystem.
     */
    power::PowerConfig power;
    /**
     * Request-level serving plane: inference replicas occupying cluster
     * GPUs next to training jobs, with an open-loop request stream and
     * the overload-robustness stack (admission control, retry budgets,
     * circuit breakers, graceful degradation). Disabled (the default)
     * keeps every run byte-identical to a stack without the subsystem.
     */
    serve::ServePlaneConfig serve;
    /**
     * Prediction subsystem: the online runtime model (decayed
     * regression over completions) and short-horizon load forecaster
     * that become the stack's single prediction authority — backfill
     * reservations, elastic shrink victims, and serve autoscaling all
     * consume it. Disabled (the default), the runtime model is the
     * per-(user, model) EMA and the load forecasters stay idle.
     */
    predict::PredictConfig predict;
    /**
     * Streaming (million-job) retention: terminal jobs are folded into
     * the run digest and percentile sketches and then reclaimed, so
     * memory tracks the *live* job set instead of the trace length.
     * Exact per-record extraction (metrics().records()) is empty in
     * this mode; pair with submit_stream().
     */
    bool streaming = false;
    /** Bucket width of the bounded metric series in streaming mode. */
    Duration metrics_bucket = Duration::hours(1);
};

/**
 * Recyclable allocations handed between successive TaccStack runs —
 * one arena per sweep worker. Holds the simulator's event slab/heap,
 * the compiler cache's chunk slab and index, and the storage of the
 * pending and running views (sched::LiveViews), so back-to-back
 * scenarios skip the allocation ramp-up a fresh stack pays.
 */
struct StackArena {
    sim::Simulator::Storage sim_storage;
    bool has_storage = false;
    compiler::ChunkStore::Storage chunk_storage;
    std::vector<workload::Job *> pending_scratch;
    std::vector<sched::RunningInfo> running_scratch;
};

/** The running deployment. */
class TaccStack
{
  public:
    /**
     * @param arena optional recycled allocations from a previous run
     *        (see StackArena); adopted before any event is scheduled.
     */
    explicit TaccStack(StackConfig config, StackArena *arena = nullptr);
    ~TaccStack();
    TaccStack(const TaccStack &) = delete;
    TaccStack &operator=(const TaccStack &) = delete;

    /** @name Component access */
    ///@{
    sim::Simulator &simulator() { return sim_; }
    const cluster::Cluster &cluster() const { return cluster_; }
    compiler::Compiler &task_compiler() { return compiler_; }
    exec::ExecutionEngine &engine() { return engine_; }
    exec::MonitorHub &monitor() { return monitor_; }
    const MetricsCollector &metrics() const { return metrics_; }
    /** Mutable access (streaming digest finish; see MetricsCollector). */
    MetricsCollector &metrics() { return metrics_; }
    /** The operations layer; nullptr when config.ops.enabled is off. */
    ops::OpsCenter *ops() { return ops_.get(); }
    const ops::OpsCenter *ops() const { return ops_.get(); }
    /** The power manager; nullptr when config.power.enabled is off. */
    const power::PowerManager *power() const { return power_.get(); }
    /** The serving plane; nullptr when config.serve.enabled is off. */
    serve::RequestPlane *serve_plane() { return serve_plane_.get(); }
    const serve::RequestPlane *serve_plane() const
    {
        return serve_plane_.get();
    }
    const sched::UsageTracker &usage() const { return usage_; }
    /** The prediction hub; nullptr when config.predict.enabled is off
     *  (the stack still owns one: its model is active_estimator()). */
    const predict::PredictionHub *prediction_hub() const
    {
        return config_.predict.enabled ? &predict_hub_ : nullptr;
    }
    /**
     * The estimator scheduling conditions on: the hub's runtime model,
     * which with prediction off is the per-(user, model) EMA. Every
     * prediction consumer routes through this.
     */
    const sched::RuntimeEstimator &
    active_estimator() const
    {
        return predict_hub_.model();
    }
    sched::Scheduler &scheduler() { return *scheduler_; }
    const StackConfig &config() const { return config_; }
    ///@}

    /**
     * Submits a task at the current simulation time. The spec is schema-
     * validated and compiled; the job becomes schedulable once its
     * provisioning completes *and* every dependency has completed
     * (pipelines: data-prep -> train -> evaluate). If a dependency
     * fails or is killed, the dependent is killed (fail-fast cascade,
     * Slurm `afterok` semantics).
     * @param dependencies ids of previously submitted jobs; already-
     *        completed dependencies are satisfied immediately.
     * @return the assigned job id.
     */
    StatusOr<cluster::JobId> submit(
        const workload::TaskSpec &spec,
        const std::vector<cluster::JobId> &dependencies = {});

    /** Schedules every trace entry for submission at its arrival time. */
    void submit_trace(const std::vector<workload::SubmittedTask> &trace);

    /**
     * Streams arrivals from a pull-based source with bounded lookahead:
     * only `window` arrival events are materialized at a time; the last
     * arrival of each window pulls the next one. Same-instant arrivals
     * keep trace order (the batch assigns consecutive sequence
     * numbers), so the event interleaving matches submit_trace. The
     * stream must outlive the run and yield sorted arrivals >= now().
     */
    void submit_stream(workload::WorkloadStream &stream,
                       size_t window = 4096);

    /** Jobs assigned an id so far (streaming mode reclaims terminal
     *  jobs, so jobs().size() undercounts submissions there). */
    uint64_t total_submitted() const { return next_job_id_ - 1; }

    /** Hands the stack's recyclable allocations to `arena` for the next
     *  run. Call after the run completes; the stack stays destructible
     *  but must not run further events. */
    void donate_arena(StackArena *arena);

    /** Kills a job in any non-terminal state. */
    Status kill(cluster::JobId id);

    /**
     * Estimates when a job will start, from the capacity timeline of
     * running jobs plus the queue ahead of it (each priced by the
     * runtime estimator). Running jobs return their actual segment
     * start. Held (dependency-blocked) jobs and jobs waiting out a
     * requeue backoff cannot be estimated (failed_precondition).
     * The estimate assumes arrival-order scheduling, so it is exact for
     * FIFO-like policies and a good hint for the others — precisely
     * what `squeue --start` gives Slurm users.
     *
     * Answers come from a per-state table: the first query at a stack
     * state walks the pending queue in arrival order as deep as that
     * job, later queries at the same state read the table or extend
     * the walk. The table is mutable storage reused across states, so
     * one stack must not be read from two threads at once.
     */
    StatusOr<TimePoint> estimated_start(cluster::JobId id) const;

    /** Stack states whose arrival-order walk estimated_start started;
     *  every other query was answered from a table (a test hook). */
    uint64_t eta_walks() const { return eta_.walks; }

    /**
     * Updates a group's concurrent-GPU cap at runtime (an operator
     * action: e.g. handing the serving partition's GPUs to batch
     * training overnight). Negative means unlimited. Takes effect at
     * the next scheduling decision; running jobs are not preempted.
     */
    void set_group_quota(const std::string &group, int max_gpus);

    workload::Job *find_job(cluster::JobId id);
    const workload::Job *find_job(cluster::JobId id) const;

    /** All jobs ever submitted, in id order (streaming mode: the live
     *  ones; terminal jobs are reclaimed). */
    std::vector<const workload::Job *> jobs() const;

    /** @name Node lifecycle (operator verbs + introspection) */
    ///@{
    /** Hold a node: running gangs finish, no new placements land. */
    Status cordon_node(int node);
    /** Evacuate a node: residents are gracefully requeued. */
    Status drain_node(int node);
    /** Return a cordoned/drained node to service. */
    Status uncordon_node(int node);
    /** `tcloud health`: per-state node counts, capacity, fault totals. */
    std::string health_report() const;
    /** `tcloud power`: draw vs caps per scope, throttling, deferrals. */
    std::string power_report() const;
    /** `tcloud energy`: cluster/baseline/per-group kWh ledger. */
    std::string energy_report() const;
    /** The fault injector (always present; chains run when enabled). */
    const FaultInjector &fault_injector() const { return *faults_; }
    ///@}

    size_t pending_count() const { return views_.pending().size(); }
    size_t running_count() const { return views_.running().size(); }
    /** The scheduler's pending (arrival order) and running views. */
    const sched::LiveViews &views() const { return views_; }

    /**
     * Test hook: rebuilds every incrementally kept view from the job
     * table and the cluster and compares (see sched::LiveViews::check),
     * plus each record's stage against its view membership, placement
     * and pending event. O(jobs + nodes); never called by the stack.
     */
    Status check_views() const;

    /** True once every submitted job reached a terminal state and no
     *  arrivals remain. */
    bool quiescent() const;

    /**
     * The `tcloud report` operator summary: occupancy, queueing, last-day
     * telemetry, alert incidents, per-group usage. Degrades to the
     * header lines when the ops layer is disabled.
     */
    std::string operator_report() const;

    /** One group's accounting statements (`tcloud accounting <group>`). */
    std::string accounting_report(const std::string &group) const;

    /** `tcloud serve status`: replica pool, goodput, shed/retry/breaker
     *  totals. */
    std::string serving_report() const;

    /** Runs simulated time forward to t, ops samples due by t included. */
    void run_until(TimePoint t);

    /**
     * Runs until every submitted (and scheduled-to-arrive) job is
     * terminal, the event queue empties, or max_events fire (safety
     * valve against unschedulable configurations). Ops samples are not
     * events and do not count. With ops on, the run ends with one more
     * sample at the instant it stopped.
     * @return true if the run quiesced.
     */
    bool run_to_completion(uint64_t max_events = 100'000'000);

  private:
    void wire_ops();
    /** Pulls and schedules the next arrival window (streaming mode). */
    void refill_stream();
    void enqueue_pending(JobEntry &rec);
    /** Releases/cascades dependents when `rec` reaches a terminal state. */
    void resolve_dependents(JobEntry &rec, bool completed);
    void schedule_now();
    void apply_decision(const sched::ScheduleDecision &decision);
    /** Takes a running job out of the running view (cancelling its
     *  segment event) and hands back its placement; the caller ends the
     *  segment, then calls release_segment(). */
    cluster::Placement leave_running(JobEntry &rec);
    /** Frees a stopped segment's GPUs, reader slots and draw, and charges
     *  its usage. */
    void release_segment(JobEntry &rec, const cluster::Placement &placement);
    /** Stops a running segment (cancel event, release, charge, account). */
    void stop_segment(JobEntry &rec, bool count_as_preemption);
    void on_segment_complete(cluster::JobId id);
    void on_segment_failure(cluster::JobId id);
    /** Crash-kills one running segment and requeues (or fails) the job,
     *  with failure-classified backoff and fault-loss accounting. */
    void handle_segment_failure(cluster::JobId id, exec::FailureKind kind);
    /** Distinct jobs resident on a node, ascending. */
    std::vector<cluster::JobId> residents_of(cluster::NodeId node) const;
    /** Fault path: every gang on the node dies (node went Down). */
    void kill_gangs_on(cluster::NodeId node);
    /** Drain path: residents are gracefully preempted and requeued. */
    void evacuate_node(cluster::NodeId node);
    void charge_usage(JobEntry &rec);
    /** Accounts a terminal job, resolves its dependents and, in
     *  streaming mode, retires its record (`rec` dangles afterwards). */
    void finalize(JobEntry &rec);
    /** Submits the 1-GPU inference job backing a replica slot. */
    cluster::JobId spawn_serve_replica(int slot);
    /** Emits a monitor line on every node of the placement; formats
     *  nothing when monitor logs are off or the placement is empty. */
    void log_job(const workload::Job &job,
                 const cluster::Placement &placement, const char *fmt,
                 ...) __attribute__((format(printf, 4, 5)));

    StackConfig config_;
    sim::Simulator sim_;
    cluster::Cluster cluster_;
    compiler::Compiler compiler_;
    exec::ExecutionEngine engine_;
    exec::MonitorHub monitor_;
    std::unique_ptr<sched::PlacementPolicy> placement_;
    std::unique_ptr<sched::Scheduler> scheduler_;
    sched::UsageTracker usage_;
    sched::QuotaManager quota_;
    predict::PredictionHub predict_hub_;
    MetricsCollector metrics_;
    std::unique_ptr<ops::OpsCenter> ops_;
    std::unique_ptr<power::PowerManager> power_;
    std::unique_ptr<serve::RequestPlane> serve_plane_;
    /** Scratch the scheduler context's power gate points into. */
    sched::PowerGate power_gate_;

    /** Every job's state, one record per id. */
    JobTable table_;
    /** Submitted jobs not yet terminal. */
    size_t active_jobs_ = 0;
    /** The scheduler's pending/running/held/free views of the table. */
    sched::LiveViews views_;
    std::unique_ptr<FaultInjector> faults_;
    /** Scratch for the flaky-node scoreboard's placement veto. */
    std::vector<uint8_t> node_filter_scratch_;
    std::unique_ptr<sim::PeriodicTask> tick_;
    cluster::JobId next_job_id_ = 1;
    uint64_t arrivals_outstanding_ = 0;
    /** @name Streaming arrivals (null/empty unless submit_stream ran) */
    ///@{
    workload::WorkloadStream *stream_ = nullptr;
    size_t stream_window_ = 0;
    std::vector<workload::SubmittedTask> stream_tasks_;
    std::vector<sim::BatchEvent> stream_batch_;
    ///@}
    /**
     * estimated_start's table: the arrival-order walk of one stack
     * state, as deep as the deepest query so far. The key holds every
     * input of the walk — the views' version (pending and running
     * views, running GPUs and ends), the clock, the cluster's free
     * GPUs and the estimator's observation count — so a state whose
     * key matches is the state that was walked.
     */
    struct EtaWalk {
        uint64_t views_version = ~uint64_t(0);
        TimePoint now;
        int free_gpus = -1;
        uint64_t observations = 0;
        /** The running releases plus every walked job's reservation. */
        sched::CapacityProfile profile{TimePoint::origin(), 0};
        /** The running jobs' releases, kept for reuse. */
        std::vector<sched::CapacityProfile::Release> releases;
        /** fit[i]: the estimated start of pending()[i]. */
        std::vector<TimePoint> fit;
        uint64_t walks = 0;
    };
    mutable EtaWalk eta_;
    /** @name Ops sampling in quiet runs (see wire_ops) */
    ///@{
    /** The bound of the stack's run loop that is stepping (run_until's
     *  t, or max), unset while an outside caller steps the simulator. */
    std::optional<TimePoint> ops_run_bound_;
    /** The last sample instant a quiet run already took. */
    TimePoint ops_taken_until_ = TimePoint::origin();
    ///@}
};

} // namespace tacc::core
