#include "core/stack.h"

#include <algorithm>
#include <cassert>
#include <cstdarg>
#include <cstdio>
#include <numeric>

#include "common/log.h"
#include "core/digest.h"
#include "ops/report.h"
#include "sched/capacity_profile.h"
#include "common/strings.h"
#include "workload/model.h"

namespace tacc::core {

using cluster::JobId;
using workload::Job;
using workload::JobState;

TaccStack::TaccStack(StackConfig config, StackArena *arena)
    : config_(std::move(config)),
      cluster_(config_.cluster),
      compiler_(config_.compiler),
      engine_(cluster_, config_.exec, config_.seed),
      monitor_(cluster_.node_count()),
      placement_(sched::make_placement_policy(config_.placement,
                                              config_.seed)),
      scheduler_(sched::make_scheduler(config_.scheduler,
                                       config_.sched_opts)),
      usage_(config_.usage_half_life),
      predict_hub_(config_.predict),
      views_(cluster_)
{
    assert(placement_ && "unknown placement policy name");
    assert(scheduler_ && "unknown scheduler name");
    // Adopt recycled allocations before anything schedules an event
    // (the simulator requires a pristine engine).
    if (arena) {
        if (arena->has_storage) {
            sim_.adopt_storage(std::move(arena->sim_storage));
            arena->has_storage = false;
        }
        compiler_.adopt_cache_storage(std::move(arena->chunk_storage));
        views_.adopt(std::move(arena->pending_scratch),
                     std::move(arena->running_scratch));
    }
    if (config_.streaming) {
        metrics_.enable_streaming(
            {run_digest_prefix(config_.scheduler, config_.placement),
             config_.metrics_bucket});
    }
    quota_.set_default_quota(config_.default_group_quota);
    for (const auto &[group, cap] : config_.group_quotas)
        quota_.set_group_quota(group, cap);

    // The injector always exists (operator verbs need it); its fault
    // chains only run when the subsystem is enabled.
    FaultInjector::Callbacks fault_cb;
    fault_cb.on_node_down = [this](cluster::NodeId node) {
        metrics_.on_node_fault();
        kill_gangs_on(node);
    };
    fault_cb.on_node_evacuate = [this](cluster::NodeId node) {
        evacuate_node(node);
    };
    fault_cb.on_capacity_change = [this] { schedule_now(); };
    faults_ = std::make_unique<FaultInjector>(sim_, cluster_,
                                              config_.faults, config_.seed,
                                              std::move(fault_cb));
    if (config_.faults.enabled)
        faults_->start();

    if (config_.power.enabled) {
        power_ =
            std::make_unique<power::PowerManager>(cluster_, config_.power);
    }

    if (config_.serve.enabled) {
        serve::PlaneHooks hooks;
        hooks.spawn_replica = [this](int slot) {
            return spawn_serve_replica(slot);
        };
        hooks.kill_replica = [this](uint64_t job) {
            Job *victim = find_job(job);
            if (victim && !victim->terminal()) {
                Status s = kill(job);
                assert(s.is_ok());
            }
        };
        hooks.node_degraded = [this](uint32_t node) {
            const auto state =
                cluster_.health().state(cluster::NodeId(node));
            return state == cluster::NodeHealth::kDegraded ||
                   state == cluster::NodeHealth::kDown;
        };
        if (config_.predict.enabled) {
            hooks.forecast_rate = [this](double measured_hz) {
                return predict_hub_.forecast_serve_rate(measured_hz);
            };
        }
        serve_plane_ = std::make_unique<serve::RequestPlane>(
            sim_, config_.serve, config_.seed, std::move(hooks));
    }

    const Duration period = scheduler_->tick_period();
    if (!period.is_zero()) {
        tick_ = std::make_unique<sim::PeriodicTask>(
            sim_, period, "sched-tick", [this] { schedule_now(); });
        tick_->start();
    }
    if (config_.ops.enabled)
        wire_ops();
    // Last: spawning the initial pool and arming arrivals submits jobs,
    // which needs the fully wired stack above.
    if (serve_plane_)
        serve_plane_->start();
}

void
TaccStack::wire_ops()
{
    ops_ = std::make_unique<ops::OpsCenter>(config_.ops);
    namespace series = ops::series;
    // Sources that read stack state only (see ops::Reads); the others
    // read the sample instant or keep state between calls.
    using enum ops::Reads;

    // Gauges: live cluster state, read at each sample instant. The
    // fragmentation gauge is a sample's one pass over the nodes; the
    // health tracker keeps per-state counts, so its gauges need none.
    ops_->add_gauge_source(series::kGpuUtil, [this](TimePoint) {
        const int total = cluster_.total_gpus();
        return total > 0 ? double(cluster_.used_gpus()) / double(total)
                         : 0.0;
    }, kState);
    ops_->add_gauge_source(series::kFragmentation, [this](TimePoint) {
        return cluster_.occupancy().fragmentation;
    }, kState);
    ops_->add_gauge_source(series::kQueueDepth, [this](TimePoint) {
        return double(pending_count());
    }, kState);
    ops_->add_gauge_source(series::kQueueOldestWait, [this](TimePoint now) {
        const auto pending = views_.pending();
        if (pending.empty())
            return 0.0;
        // The pending view is in (submit time, id) order: front is oldest.
        return (now - pending.front()->submit_time()).to_seconds();
    });
    ops_->add_gauge_source(series::kRunningJobs, [this](TimePoint) {
        return double(running_count());
    }, kState);
    ops_->add_gauge_source(series::kCrossRackJobs, [this](TimePoint) {
        return double(engine_.cross_rack_jobs());
    }, kState);
    ops_->add_gauge_source(series::kNodesHealthy, [this](TimePoint) {
        return double(
            cluster_.health().count(cluster::NodeHealth::kHealthy));
    }, kState);
    ops_->add_gauge_source(series::kNodesDegraded, [this](TimePoint) {
        return double(
            cluster_.health().count(cluster::NodeHealth::kDegraded));
    }, kState);
    ops_->add_gauge_source(series::kNodesDown, [this](TimePoint) {
        return double(cluster_.health().count(cluster::NodeHealth::kDown));
    }, kState);
    ops_->add_gauge_source(series::kSchedulableCapacity, [this](TimePoint) {
        const int total = cluster_.total_gpus();
        return total > 0
                   ? double(cluster_.schedulable_total_gpus()) /
                         double(total)
                   : 0.0;
    }, kState);

    // Counters: monotone totals; alert rules consume them as rates.
    ops_->add_counter_source(series::kCompletedJobs, [this](TimePoint) {
        return double(metrics_.completed_count());
    }, kState);
    ops_->add_counter_source(series::kFailedJobs, [this](TimePoint) {
        return double(metrics_.failed_count());
    }, kState);
    ops_->add_counter_source(series::kPreemptions, [this](TimePoint) {
        return double(metrics_.preemptions());
    }, kState);
    ops_->add_counter_source(series::kDeadlineMisses, [this](TimePoint) {
        return double(metrics_.deadline_missed_count());
    }, kState);
    ops_->add_counter_source(series::kSegmentFailures, [this](TimePoint) {
        return double(metrics_.segment_failures());
    }, kState);
    ops_->add_counter_source(series::kNodeFaults, [this](TimePoint) {
        return double(metrics_.node_faults());
    }, kState);
    ops_->add_counter_source(series::kFaultLostGpuSeconds, [this](TimePoint) {
        return metrics_.fault_lost_gpu_seconds();
    }, kState);
    ops_->add_counter_source(series::kMonitorLines, [this](TimePoint) {
        return double(monitor_.total_emitted());
    }, kState);

    // Power & energy: draw/headroom gauges, the kWh meter, and cap
    // alerting. The energy source advances the ledger first — a pure
    // integration of already-decided draw, so sampling cannot perturb
    // scheduling (the telemetry invariant the ops layer guarantees).
    if (power_) {
        ops_->add_gauge_source(series::kPowerDrawW, [this](TimePoint) {
            return power_->draw_w();
        }, kState);
        ops_->add_counter_source(series::kPowerEnergyKwh,
                                 [this](TimePoint now) {
                                     power_->advance(now);
                                     return power_->energy_kwh();
                                 });
        ops_->add_counter_source(series::kPowerDeferrals, [this](TimePoint) {
            return double(power_->deferrals());
        }, kState);
        ops_->add_counter_source(series::kPowerDvfsStarts, [this](TimePoint) {
            return double(power_->dvfs_starts());
        }, kState);
        const double cap = config_.power.cluster_cap_w;
        if (cap > 0) {
            ops_->add_gauge_source(series::kPowerHeadroomW, [this](TimePoint) {
                return power_->cluster_headroom_w();
            }, kState);
            ops::AlertRule breach;
            breach.name = "power-cap-breach";
            breach.series = series::kPowerDrawW;
            breach.agg = ops::AlertRule::Agg::kLast;
            breach.cmp = ops::AlertRule::Cmp::kAbove;
            breach.threshold = cap;
            breach.for_duration = Duration::zero();
            breach.severity = ops::AlertSeverity::kCritical;
            breach.description =
                "instantaneous cluster draw exceeds the facility cap";
            ops_->alerts().add_rule(std::move(breach));

            ops::AlertRule sustained;
            sustained.name = "sustained-high-draw";
            sustained.series = series::kPowerDrawW;
            sustained.agg = ops::AlertRule::Agg::kMean;
            sustained.cmp = ops::AlertRule::Cmp::kAbove;
            sustained.threshold = config_.power.high_draw_fraction * cap;
            sustained.window = Duration::minutes(30);
            sustained.for_duration = Duration::minutes(10);
            sustained.severity = ops::AlertSeverity::kWarning;
            sustained.description =
                "mean draw has run near the facility cap for 30 min";
            ops_->alerts().add_rule(std::move(sustained));
        }
    }

    // Request-serving plane: goodput/shed/breaker counters, pool
    // gauges, and the SLO-burn / shed-storm / breaker alert rules. All
    // sources read plane counters — observational, like everything here.
    if (serve_plane_) {
        ops_->add_counter_source(series::kServeRequests, [this](TimePoint) {
            return double(serve_plane_->counters().requests);
        }, kState);
        ops_->add_counter_source(series::kServeGoodput, [this](TimePoint) {
            return double(serve_plane_->counters().ok);
        }, kState);
        ops_->add_counter_source(series::kServeShed, [this](TimePoint) {
            return double(serve_plane_->counters().shed);
        }, kState);
        ops_->add_counter_source(series::kServeDegraded, [this](TimePoint) {
            return double(serve_plane_->counters().degraded);
        }, kState);
        ops_->add_counter_source(series::kServeRetries, [this](TimePoint) {
            return double(serve_plane_->counters().retries);
        }, kState);
        ops_->add_counter_source(series::kServeBreakerTrips, [this](TimePoint) {
            return double(serve_plane_->counters().breaker_trips);
        }, kState);
        ops_->add_gauge_source(series::kServeReplicasUp, [this](TimePoint) {
            return double(serve_plane_->replicas_up());
        }, kState);
        ops_->add_gauge_source(series::kServeQueueDepth, [this](TimePoint) {
            return double(serve_plane_->queue_depth());
        }, kState);
        // Windowed attainment: in-SLO completions over resolved
        // requests since the previous sample (1.0 when idle).
        ops_->add_gauge_source(
            series::kSloAttainment,
            [this, ok = uint64_t(0), done = uint64_t(0)](TimePoint) mutable {
                const auto &c = serve_plane_->counters();
                const uint64_t now_ok = c.ok;
                const uint64_t now_done = c.ok + c.late + c.dropped;
                const uint64_t d_ok = now_ok - ok;
                const uint64_t d_done = now_done - done;
                ok = now_ok;
                done = now_done;
                return d_done > 0 ? double(d_ok) / double(d_done) : 1.0;
            });

        ops::AlertRule shed_storm;
        shed_storm.name = "serve-shed-storm";
        shed_storm.series = series::kServeShed;
        shed_storm.agg = ops::AlertRule::Agg::kRate;
        shed_storm.cmp = ops::AlertRule::Cmp::kAbove;
        shed_storm.threshold = 0.5; // shed requests per second
        shed_storm.window = Duration::minutes(5);
        shed_storm.for_duration = Duration::minutes(5);
        shed_storm.severity = ops::AlertSeverity::kWarning;
        shed_storm.description =
            "serving tier is shedding sustained load (over capacity)";
        ops_->alerts().add_rule(std::move(shed_storm));

        ops::AlertRule breaker_trips;
        breaker_trips.name = "serve-breaker-trips";
        breaker_trips.series = series::kServeBreakerTrips;
        breaker_trips.agg = ops::AlertRule::Agg::kRate;
        breaker_trips.cmp = ops::AlertRule::Cmp::kAbove;
        breaker_trips.threshold = 1.0 / 60.0; // one trip per minute
        breaker_trips.window = Duration::minutes(10);
        breaker_trips.for_duration = Duration::minutes(5);
        breaker_trips.severity = ops::AlertSeverity::kWarning;
        breaker_trips.description =
            "replica circuit breakers are tripping repeatedly";
        ops_->alerts().add_rule(std::move(breaker_trips));

        ops::AlertRule slo_burn;
        slo_burn.name = "serve-slo-burn";
        slo_burn.series = series::kSloAttainment;
        slo_burn.agg = ops::AlertRule::Agg::kMean;
        slo_burn.cmp = ops::AlertRule::Cmp::kBelow;
        slo_burn.threshold = 0.9;
        slo_burn.window = Duration::minutes(10);
        slo_burn.for_duration = Duration::minutes(10);
        slo_burn.severity = ops::AlertSeverity::kCritical;
        slo_burn.description =
            "SLO attainment is burning through the error budget";
        ops_->alerts().add_rule(std::move(slo_burn));
    }

    // Per-tenant fair-share usage: one gauge per group. One pass over
    // the tracker sums the total in its own order (bit-identical to
    // total_usage) and keeps each group's usage by slot; the shares are
    // then read out under series ids cached by slot, and the ops center
    // records them. Groups are given their series as they first appear,
    // in name order.
    ops_->add_multi_source(
        [this, ids = std::vector<ops::SeriesId>(),
         used = std::vector<double>()](
            ops::MetricStore &store, TimePoint now,
            std::vector<ops::OpsCenter::Reading> &out) mutable {
            used.resize(usage_.key_count());
            const double total = usage_.for_each_usage(
                now, [&used](size_t slot, double v) { used[slot] = v; });
            if (total <= 0)
                return;
            if (ids.size() < used.size()) {
                std::vector<size_t> fresh(used.size() - ids.size());
                std::iota(fresh.begin(), fresh.end(), ids.size());
                std::sort(fresh.begin(), fresh.end(),
                          [this](size_t a, size_t b) {
                              return usage_.key_at(a) < usage_.key_at(b);
                          });
                ids.resize(used.size());
                for (const size_t slot : fresh) {
                    ids[slot] = store.define(
                        ops::series::kGroupSharePrefix + usage_.key_at(slot),
                        ops::SeriesKind::kGauge);
                }
            }
            for (size_t slot = 0; slot < used.size(); ++slot)
                out.push_back({ids[slot], used[slot] / total});
        });

    // Sampled by the simulator's pre-fire watch: every sample_period,
    // where a periodic task would fire, but with no event per sample.
    // Inside the stack's own run loops the first instant of a quiet run
    // takes the whole run, and the run's later instants only advance
    // the clock; an outside caller stepping the simulator gets one
    // instant per step, so no value is read ahead of a point where it
    // can read or change the stack. Either way the instants join the
    // ops center's pending chunk.
    sim_.set_watch(config_.ops.sample_period, [this](TimePoint now) {
        if (now <= ops_taken_until_)
            return;
        const size_t k =
            ops_run_bound_ ? sim_.quiet_instants(*ops_run_bound_) : 1;
        ops_->append(now, k);
        ops_taken_until_ =
            now + int64_t(k - 1) * config_.ops.sample_period;
    });
}

TaccStack::~TaccStack() = default;

StatusOr<JobId>
TaccStack::submit(const workload::TaskSpec &spec,
                  const std::vector<JobId> &dependencies)
{
    if (auto s = spec.validate(); !s.is_ok())
        return s;
    for (JobId dep : dependencies) {
        const Job *parent = find_job(dep);
        if (!parent) {
            return Status::not_found(
                strfmt("dependency job %llu", (unsigned long long)dep));
        }
        if (parent->terminal() &&
            parent->state() != JobState::kCompleted) {
            return Status::failed_precondition(
                strfmt("dependency job %llu already %s",
                       (unsigned long long)dep,
                       workload::job_state_name(parent->state())));
        }
    }
    if (spec.gpus > cluster_.total_gpus()) {
        return Status::invalid_argument(
            strfmt("task wants %d GPUs, cluster has %d", spec.gpus,
                   cluster_.total_gpus()));
    }
    auto profile = workload::ModelCatalog::instance().find(spec.model);
    if (!profile.is_ok())
        return profile.status();

    // Compiler layer: build the instruction (and price provisioning) now.
    auto instruction = compiler_.compile(spec);
    if (!instruction.is_ok())
        return instruction.status();

    const JobId id = next_job_id_++;
    ++active_jobs_;
    JobEntry &rec = table_.emplace(id, profile.value(), sim_.now(),
                                   std::move(instruction.value()));

    // Register unfinished dependencies, each distinct parent once (a
    // repeat finds this id last in its list); completed ones are met.
    for (JobId dep : dependencies) {
        JobEntry &parent = *table_.find(dep);
        if (parent.job.state() == JobState::kCompleted ||
            (!parent.dependents.empty() && parent.dependents.back() == id))
            continue;
        ++rec.unmet_deps;
        parent.dependents.push_back(id);
    }

    Status s = rec.job.begin_provisioning(sim_.now());
    assert(s.is_ok());
    rec.event = sim_.schedule_after(
        rec.instruction.provision_time, "provision-done", [this, id] {
            JobEntry &rec = *table_.find(id);
            rec.event = 0;
            Status st = rec.job.finish_provisioning(sim_.now());
            assert(st.is_ok());
            if (rec.unmet_deps > 0) {
                rec.stage = Stage::kHeld; // blocked on dependencies
                return;
            }
            enqueue_pending(rec);
            schedule_now();
        });
    return id;
}

void
TaccStack::resolve_dependents(JobEntry &rec, bool completed)
{
    const std::vector<JobId> dependents = std::move(rec.dependents);
    rec.dependents.clear();
    for (JobId child_id : dependents) {
        JobEntry *child = table_.find(child_id);
        // A child killed earlier may already be retired (streaming).
        if (!child || child->job.terminal())
            continue;
        if (!completed) {
            // Fail-fast cascade: the parent failed or was killed.
            log_job(child->job, child->placement,
                    "dependency failed; cancelling");
            Status s = kill(child_id);
            assert(s.is_ok());
            continue;
        }
        if (--child->unmet_deps == 0 && child->stage == Stage::kHeld) {
            enqueue_pending(*child);
            schedule_now();
        }
    }
}

void
TaccStack::submit_trace(const std::vector<workload::SubmittedTask> &trace)
{
    metrics_.reserve_records(metrics_.records().size() + trace.size());
    for (const auto &entry : trace) {
        assert(entry.arrival >= sim_.now());
        ++arrivals_outstanding_;
        sim_.schedule_at(entry.arrival, "arrival", [this, entry] {
            --arrivals_outstanding_;
            metrics_.on_arrival(sim_.now());
            auto result = submit(entry.spec);
            if (!result.is_ok()) {
                Log::warnf("trace submission rejected: %s",
                           result.status().str().c_str());
            }
        });
    }
}

void
TaccStack::submit_stream(workload::WorkloadStream &stream, size_t window)
{
    assert(window > 0);
    assert(!stream_ && "a stream is already attached");
    stream_ = &stream;
    stream_window_ = window;
    refill_stream();
}

void
TaccStack::refill_stream()
{
    if (!stream_)
        return;
    stream_tasks_.clear();
    stream_->pull(stream_tasks_, stream_window_);
    if (stream_tasks_.empty()) {
        stream_ = nullptr; // exhausted
        return;
    }
    stream_batch_.clear();
    stream_batch_.reserve(stream_tasks_.size());
    const size_t last = stream_tasks_.size() - 1;
    for (size_t i = 0; i <= last; ++i) {
        assert(stream_tasks_[i].arrival >= sim_.now());
        const TimePoint arrival = stream_tasks_[i].arrival;
        const bool refill = i == last;
        ++arrivals_outstanding_;
        stream_batch_.push_back(sim::BatchEvent{
            arrival, "arrival",
            [this, task = std::move(stream_tasks_[i]), refill] {
                --arrivals_outstanding_;
                metrics_.on_arrival(sim_.now());
                // Pull the next window BEFORE submitting: its arrival
                // events then take consecutive sequence numbers ahead
                // of anything this submission schedules, matching the
                // all-at-once trace order for same-instant arrivals.
                if (refill)
                    refill_stream();
                auto result = submit(task.spec);
                if (!result.is_ok()) {
                    Log::warnf("trace submission rejected: %s",
                               result.status().str().c_str());
                }
            }});
    }
    sim_.schedule_batch(stream_batch_);
}

void
TaccStack::donate_arena(StackArena *arena)
{
    if (!arena)
        return;
    arena->sim_storage = sim_.release_storage();
    arena->has_storage = true;
    arena->chunk_storage = compiler_.release_cache_storage();
    views_.donate(arena->pending_scratch, arena->running_scratch);
}

void
TaccStack::enqueue_pending(JobEntry &rec)
{
    // Requeued (preempted/failed) jobs keep their past submit time; the
    // view's ordered insert keeps the queue in (submit time, id) order,
    // so schedulers consume it without re-sorting.
    rec.stage = Stage::kQueued;
    views_.add_pending(&rec.job);
    metrics_.on_queue_depth(sim_.now(), int(pending_count()));
}

Job *
TaccStack::find_job(JobId id)
{
    JobEntry *rec = table_.find(id);
    return rec ? &rec->job : nullptr;
}

const Job *
TaccStack::find_job(JobId id) const
{
    const JobEntry *rec = table_.find(id);
    return rec ? &rec->job : nullptr;
}

std::vector<const Job *>
TaccStack::jobs() const
{
    std::vector<const Job *> out;
    out.reserve(table_.size());
    table_.for_each([&out](const JobEntry &rec) { out.push_back(&rec.job); });
    return out;
}

bool
TaccStack::quiescent() const
{
    if (arrivals_outstanding_ > 0 || active_jobs_ > 0)
        return false;
    // The serving plane counts as pending work until its arrival stream
    // ends and every request resolved (it then retires its replicas).
    if (serve_plane_ && !serve_plane_->idle())
        return false;
    return true;
}

void
TaccStack::run_until(TimePoint t)
{
    ops_run_bound_ = t;
    sim_.run_until(t);
    ops_run_bound_.reset();
}

bool
TaccStack::run_to_completion(uint64_t max_events)
{
    // Quiescence and the event cap can only change at an event, so the
    // loop never stops inside a quiet run: it has stepped every instant
    // a run recorded.
    ops_run_bound_ = TimePoint::max();
    const uint64_t first = sim_.processed();
    while (!quiescent() && sim_.processed() - first < max_events) {
        if (!sim_.step())
            break;
    }
    ops_run_bound_.reset();
    assert(sim_.now() >= ops_taken_until_);
    if (tick_)
        tick_->stop();
    if (ops_) {
        sim_.clear_watch();
        // Close the books with a final sample at the quiesce instant so
        // the last partial rollup buckets and alert states are current.
        ops_->append(sim_.now());
        ops_->flush();
    }
    if (power_)
        power_->advance(sim_.now()); // close the energy ledger
    return quiescent();
}

std::string
TaccStack::operator_report() const
{
    ops::ReportContext ctx;
    ctx.cluster_name = config_.cluster.name;
    ctx.now = sim_.now();
    ctx.total_gpus = cluster_.total_gpus();
    ctx.used_gpus = cluster_.used_gpus();
    ctx.running_jobs = running_count();
    ctx.pending_jobs = pending_count();
    ctx.completed_jobs = metrics_.completed_count();
    ctx.failed_jobs = metrics_.failed_count();
    ctx.preemptions = metrics_.preemptions();
    const Samples waits = metrics_.wait_samples();
    if (!waits.empty()) {
        ctx.mean_wait_min = waits.mean() / 60.0;
        ctx.p99_wait_min = waits.percentile(99) / 60.0;
    }
    ctx.cache_transfer_savings = compiler_.stats().transfer_savings();
    if (!ops_) {
        return strfmt("cluster %s: ops layer disabled\n"
                      "occupancy: %d/%d GPUs, %zu running, %zu pending\n",
                      ctx.cluster_name.c_str(), ctx.used_gpus,
                      ctx.total_gpus, ctx.running_jobs, ctx.pending_jobs);
    }
    return ops::render_operator_report(ops_->store(), ops_->alerts(),
                                       ops_->accounting(), ctx);
}

std::string
TaccStack::accounting_report(const std::string &group) const
{
    if (!ops_)
        return "ops layer disabled; no accounting available\n";
    return ops::render_group_accounting(ops_->accounting(), group);
}

cluster::JobId
TaccStack::spawn_serve_replica(int slot)
{
    workload::TaskSpec spec;
    spec.name = strfmt("serve-replica-%d", slot);
    spec.user = "inference";
    spec.group = config_.serve.group;
    spec.model = config_.serve.model;
    spec.gpus = 1;
    spec.qos = workload::QosClass::kInteractive;
    spec.preemptible = false;
    // A replica runs until the plane retires it: give the job an
    // effectively unbounded segment so it never completes on its own.
    spec.iterations = 1'000'000'000'000LL;
    spec.time_limit = Duration::days(365);
    auto result = submit(spec);
    if (!result.is_ok()) {
        Log::warnf("serve replica %d refused: %s", slot,
                   result.status().str().c_str());
        return cluster::kInvalidJob;
    }
    table_.find(result.value())->serve_replica = true;
    return result.value();
}

std::string
TaccStack::serving_report() const
{
    if (!serve_plane_)
        return "serving plane disabled\n";
    const serve::ServingReport r = serve_plane_->report();
    const auto &c = r.counters;
    std::string out = strfmt(
        "== serving: cluster '%s' at %s ==\n",
        config_.cluster.name.c_str(),
        ops::format_day_time(sim_.now()).c_str());
    out += strfmt("replicas: %d up / %d desired (max %d); %llu spawned, "
                  "%llu failure(s)\n",
                  r.replicas_up, serve_plane_->replicas_desired(),
                  config_.serve.max_replicas,
                  (unsigned long long)c.replicas_spawned,
                  (unsigned long long)c.replica_failures);
    out += strfmt("requests: %llu (%llu attempts), goodput %llu, late "
                  "%llu, dropped %llu — SLO attainment %.4f%s\n",
                  (unsigned long long)c.requests,
                  (unsigned long long)c.attempts,
                  (unsigned long long)c.ok, (unsigned long long)c.late,
                  (unsigned long long)c.dropped, r.slo_attainment,
                  r.slo_unattainable ? " [SLO UNATTAINABLE at max pool]"
                                     : "");
    out += strfmt("robustness: shed %llu (breaker %llu), degraded %llu, "
                  "wasted %llu, timeouts %llu\n",
                  (unsigned long long)c.shed,
                  (unsigned long long)c.breaker_shed,
                  (unsigned long long)c.degraded,
                  (unsigned long long)c.wasted,
                  (unsigned long long)c.timeouts);
    out += strfmt("retries: %llu spent, %llu denied by budget; breaker "
                  "trips %llu\n",
                  (unsigned long long)c.retries,
                  (unsigned long long)c.retries_denied,
                  (unsigned long long)c.breaker_trips);
    out += strfmt("queue depth now: %d\n", serve_plane_->queue_depth());
    return out;
}

void
TaccStack::log_job(const Job &job, const cluster::Placement &placement,
                   const char *fmt, ...)
{
    if (!config_.emit_monitor_logs || placement.empty())
        return;
    char text[256]; // every caller's text is a short status line
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(text, sizeof text, fmt, ap);
    va_end(ap);
    monitor_.emit_all(sim_.now(), job.id(), placement,
                      strfmt("[%s] %s", job.spec().name.c_str(), text));
}

void
TaccStack::charge_usage(JobEntry &rec)
{
    const double delta = rec.job.gpu_seconds() - rec.charged_gpu_s;
    if (delta > 0) {
        usage_.charge(rec.job.spec().group, delta, sim_.now());
        rec.charged_gpu_s = rec.job.gpu_seconds();
    }
}

void
TaccStack::finalize(JobEntry &rec)
{
    Job &job = rec.job;
    const JobId id = job.id();
    rec.stage = Stage::kDone;
    --active_jobs_;
    predict_hub_.observe_completion(job); // no-op unless it completed
    // Drain the job's energy meter even when accounting is off, so the
    // ledger does not grow with terminal jobs.
    const double energy_kwh =
        power_ ? power_->take_job_energy_kwh(id) : 0.0;
    const JobRecord &done = metrics_.record_job(job, rec.placement_digest);
    if (ops_) {
        ops::UsageEvent ev;
        ev.group = done.group;
        ev.user = done.user;
        ev.finished = done.finished;
        ev.wait_s = done.wait_s;
        ev.gpu_seconds = done.gpu_seconds;
        ev.ideal_gpu_seconds = done.ideal_s * double(done.gpus);
        ev.preemptions = done.preemptions;
        ev.started = done.started;
        ev.completed = done.final_state == JobState::kCompleted;
        ev.failed = done.final_state == JobState::kFailed;
        ev.missed_deadline = done.missed_deadline;
        ev.fault_lost_gpu_seconds = rec.fault_lost_gpu_s;
        ev.energy_kwh = energy_kwh;
        ops_->accounting().record(ev);
    }
    resolve_dependents(rec, job.state() == JobState::kCompleted);
    // A replica job reaching a terminal state hands its slot back to
    // the plane (which respawns a replacement unless shutting down).
    if (serve_plane_ && rec.serve_replica)
        serve_plane_->on_replica_gone(id);
    if (metrics_.streaming()) {
        // Streaming reclamation: the terminal record is folded, so the
        // job's state is dead weight — retire its record. Memory now
        // tracks the live job set, not the trace length. `rec` dangles
        // past the retire; nothing below may touch it.
        engine_.failures().forget(id);
        table_.retire(id);
    }
}

cluster::Placement
TaccStack::leave_running(JobEntry &rec)
{
    assert(rec.stage == Stage::kRunning);
    sim_.cancel(rec.event); // no-op for the firing event itself
    rec.event = 0;
    views_.remove_running(rec.job.id());
    cluster::Placement placement = std::move(rec.placement);
    rec.placement = {};
    return placement;
}

void
TaccStack::release_segment(JobEntry &rec,
                           const cluster::Placement &placement)
{
    const JobId id = rec.job.id();
    cluster_.release(id);
    engine_.fs().unregister_reader(id);
    engine_.unregister_cross_rack_job(id);
    if (power_) {
        power_->on_segment_stop(id, sim_.now());
        // The departing gang may have been the reason its nodes ran
        // throttled; push the refreshed clocks into the engine.
        for (const auto &slice : placement.slices) {
            engine_.set_node_clock(slice.node,
                                   power_->node_clock_of(slice.node));
        }
    }
    charge_usage(rec);
}

void
TaccStack::stop_segment(JobEntry &rec, bool count_as_preemption)
{
    const cluster::Placement placement = leave_running(rec);
    Status s = count_as_preemption ? rec.job.preempt(sim_.now())
                                   : rec.job.end_segment(sim_.now());
    assert(s.is_ok());
    release_segment(rec, placement);
    if (count_as_preemption) {
        metrics_.on_preemption();
        log_job(rec.job, placement, "preempted");
    }
    metrics_.on_gpus_in_use(sim_.now(), cluster_.used_gpus());
    if (serve_plane_ && rec.serve_replica)
        serve_plane_->on_replica_down(rec.job.id());
}

void
TaccStack::on_segment_complete(JobId id)
{
    JobEntry &rec = *table_.find(id);
    assert(rec.job.state() == JobState::kRunning);
    const cluster::Placement placement = leave_running(rec);
    Status s = rec.job.complete(sim_.now());
    assert(s.is_ok());
    release_segment(rec, placement);
    log_job(rec.job, placement, "completed");
    metrics_.on_gpus_in_use(sim_.now(), cluster_.used_gpus());
    finalize(rec);
    schedule_now();
}

void
TaccStack::on_segment_failure(JobId id)
{
    // A sampled in-segment fault: transient unless the segment ran on
    // the job's incompatible runtime.
    const JobEntry &rec = *table_.find(id);
    assert(rec.stage == Stage::kRunning);
    handle_segment_failure(
        id, engine_.failures().classify(rec.job, rec.runtime));
}

void
TaccStack::handle_segment_failure(JobId id, exec::FailureKind kind)
{
    JobEntry &rec = *table_.find(id);
    Job &job = rec.job;
    assert(job.state() == JobState::kRunning);
    const double iteration_s = rec.iteration_s;
    const cluster::Placement placement = leave_running(rec);
    // A crash rolls progress back to the last periodic checkpoint (or
    // loses the segment when checkpointing is off). The wall-clock the
    // gang held beyond the surviving credited compute is fault loss.
    const int64_t iters_before = job.iterations_done();
    const double held_s = (sim_.now() - job.segment_start()).to_seconds();
    const int gpus = job.running_gpus();
    Status s = job.end_segment(sim_.now(),
                               engine_.config().checkpoint_interval_s);
    assert(s.is_ok());
    const double useful_s =
        double(job.iterations_done() - iters_before) * iteration_s;
    const double lost_gpu_s =
        std::max(0.0, held_s - useful_s) * double(gpus);
    metrics_.on_fault_loss(lost_gpu_s);
    rec.fault_lost_gpu_s += lost_gpu_s;
    release_segment(rec, placement);
    metrics_.on_segment_failure();
    metrics_.on_gpus_in_use(sim_.now(), cluster_.used_gpus());
    if (serve_plane_ && rec.serve_replica)
        serve_plane_->on_replica_down(id);

    const bool out_of_attempts = engine_.failures().on_failure(job);
    if (out_of_attempts) {
        log_job(job, placement, "failed permanently");
        Status st = job.fail(sim_.now(), "exceeded max attempts");
        assert(st.is_ok());
        finalize(rec);
        schedule_now();
        return;
    }
    log_job(job, placement,
            kind == exec::FailureKind::kNodeLocal
                ? "node fault; requeueing"
                : "segment failed; requeueing");
    rec.requeue_killed_at = sim_.now();
    const Duration backoff = engine_.failures().requeue_delay(
        id, engine_.failures().attempts_of(id));
    if (backoff.is_zero()) {
        enqueue_pending(rec);
    } else {
        // Failure-classified exponential backoff: the job sits out the
        // delay before re-entering the queue, damping crash loops.
        rec.stage = Stage::kBackoff;
        rec.event = sim_.schedule_after(
            backoff, "requeue-backoff", [this, id] {
                JobEntry &waiting = *table_.find(id);
                waiting.event = 0;
                enqueue_pending(waiting);
                schedule_now();
            });
    }
    schedule_now();
}

std::vector<JobId>
TaccStack::residents_of(cluster::NodeId node) const
{
    // A snapshot: stopping a gang mutates the node's residency.
    std::vector<JobId> ids = cluster_.node(node).resident_jobs();
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
}

void
TaccStack::kill_gangs_on(cluster::NodeId node)
{
    for (JobId id : residents_of(node)) {
        const JobEntry *rec = table_.find(id);
        if (rec && rec->stage == Stage::kRunning)
            handle_segment_failure(id, exec::FailureKind::kNodeLocal);
    }
}

void
TaccStack::evacuate_node(cluster::NodeId node)
{
    for (JobId id : residents_of(node)) {
        JobEntry *rec = table_.find(id);
        if (!rec || rec->stage != Stage::kRunning)
            continue;
        // Graceful: checkpoint on demand, no progress lost, no failure
        // attempt charged — the operator asked, the job did nothing.
        stop_segment(*rec, true);
        enqueue_pending(*rec);
    }
    schedule_now();
}

void
TaccStack::apply_decision(const sched::ScheduleDecision &decision)
{
    for (JobId victim : decision.preemptions) {
        JobEntry *rec = table_.find(victim);
        if (!rec || rec->stage != Stage::kRunning)
            continue; // stale decision entry; ignore
        stop_segment(*rec, true);
        enqueue_pending(*rec);
    }

    for (const auto &start : decision.starts) {
        JobEntry *rec = table_.find(start.job);
        if (!rec || rec->stage != Stage::kQueued)
            continue;
        Job &job = rec->job;
        // Power authority check against the exact model (the scheduler's
        // gate is conservative): a refused start simply stays pending.
        double activity = 0;
        power::StartDecision power_start;
        if (power_) {
            activity = engine_.compute_activity(job, start.placement);
            power_start = power_->plan_start(start.placement, activity);
            if (!power_start.admit) {
                power_->note_deferrals(1);
                continue;
            }
        }
        cluster::Placement &granted = rec->placement;
        Status alloc = cluster_.allocate(start.job, start.placement, &granted);
        if (!alloc.is_ok()) {
            Log::warnf("placement failed for job %llu: %s",
                       (unsigned long long)start.job,
                       alloc.str().c_str());
            continue;
        }
        rec->placement_digest =
            MetricsCollector::fold_placement(rec->placement_digest, granted);
        if (power_) {
            // Commit draw and push node clocks before pricing, so
            // plan_segment sees any DVFS stretch this start causes.
            power_->on_segment_start(start.job, job.spec().group, granted,
                                     activity, power_start.clock,
                                     sim_.now());
            for (const auto &slice : granted.slices) {
                engine_.set_node_clock(
                    slice.node, power_->node_clock_of(slice.node));
            }
        }
        exec::SegmentPlan plan =
            engine_.plan_segment(job, granted, rec->instruction.runtime);

        Status s = job.begin_segment(sim_.now(), granted.total_gpus(),
                                     plan.iteration_s, plan.startup);
        assert(s.is_ok());
        views_.remove_pending(&job);
        metrics_.on_queue_depth(sim_.now(), int(pending_count()));
        engine_.fs().register_reader(start.job);
        if (cluster_.topology().scope_of(granted) ==
            cluster::CommScope::kCrossRack) {
            engine_.register_cross_rack_job(start.job);
        }

        if (rec->requeue_killed_at) {
            metrics_.on_requeue_latency(
                (sim_.now() - *rec->requeue_killed_at).to_seconds());
            rec->requeue_killed_at.reset();
        }

        const Duration total =
            plan.startup + job.remaining_runtime(plan.iteration_s);
        const JobId id = start.job;
        rec->stage = Stage::kRunning;
        rec->iteration_s = plan.iteration_s;
        rec->runtime = plan.runtime;
        rec->expected_end = sim_.now() + total;
        if (plan.failure_after) {
            rec->event = sim_.schedule_after(
                *plan.failure_after, "segment-fail",
                [this, id] { on_segment_failure(id); });
        } else {
            rec->event = sim_.schedule_after(
                total, "segment-done",
                [this, id] { on_segment_complete(id); });
        }
        views_.add_running(&job, granted, rec->expected_end);
        log_job(job, granted, "started on %zu node(s), %d GPU(s), %s/%s",
                granted.slices.size(), granted.total_gpus(),
                compiler::runtime_kind_name(plan.runtime),
                exec::transport_name(plan.transport));
        if (serve_plane_ && rec->serve_replica && !granted.slices.empty())
            serve_plane_->on_replica_up(id, granted.slices.front().node);
    }
    metrics_.on_gpus_in_use(sim_.now(), cluster_.used_gpus());
}

void
TaccStack::schedule_now()
{
    sched::SchedulerContext ctx;
    ctx.now = sim_.now();
    ctx.cluster = &cluster_;
    ctx.placement = placement_.get();
    ctx.usage = &usage_;
    ctx.quota = &quota_;
    ctx.estimator = &active_estimator();
    ctx.predictions_authoritative =
        config_.predict.enabled &&
        config_.predict.mode != predict::EstimatorMode::kLimit;
    ctx.avoid_gpu_mixing = config_.avoid_gpu_mixing;
    // Flaky-node scoreboard: veto nodes with recent fault strikes.
    if (faults_->build_node_filter(sim_.now(), node_filter_scratch_))
        ctx.node_filter = &node_filter_scratch_;
    // Power gate: conservative per-scope headroom snapshot the policy
    // deducts from as it commits starts. Only wired when a cap exists.
    const bool power_capped =
        power_ && (config_.power.cluster_cap_w > 0 ||
                   config_.power.rack_cap_w > 0 ||
                   config_.power.pdu_cap_w > 0);
    if (power_capped) {
        power_gate_ = sched::PowerGate{};
        power_gate_.cluster = &cluster_;
        power_gate_.racks_per_pdu = config_.power.racks_per_pdu;
        power_gate_.per_gpu_w =
            power_->model().max_gpu_delta_w() * power_->commit_fraction();
        if (config_.power.cluster_cap_w > 0)
            power_gate_.cluster_headroom_w = power_->cluster_headroom_w();
        if (config_.power.rack_cap_w > 0) {
            const int racks = power_->model().rack_count();
            power_gate_.rack_headroom_w.resize(size_t(racks));
            for (int r = 0; r < racks; ++r)
                power_gate_.rack_headroom_w[size_t(r)] =
                    power_->rack_headroom_w(r);
        }
        if (config_.power.pdu_cap_w > 0) {
            const int pdus = power_->pdu_count();
            power_gate_.pdu_headroom_w.resize(size_t(pdus));
            for (int p = 0; p < pdus; ++p)
                power_gate_.pdu_headroom_w[size_t(p)] =
                    power_->pdu_headroom_w(p);
        }
        ctx.power = &power_gate_;
    }
    ctx.iter_time = [this](const Job &job,
                           const cluster::Placement &placement) {
        return engine_.iteration_time_s(job, placement);
    };
    views_.attach(ctx);
    if (config_.predict.enabled) {
        // Backlog series: pending GPU demand sampled per scheduling
        // pass, in event order — deterministic at any worker count.
        double pending_gpus = 0;
        for (const Job *job : ctx.pending)
            pending_gpus += double(job->spec().gpus);
        predict_hub_.observe_backlog(pending_gpus);
        ctx.forecast_backlog_gpus =
            predict_hub_.forecast_backlog(pending_gpus);
    }

    const sched::ScheduleDecision decision = scheduler_->schedule(ctx);
    if (power_capped)
        power_->note_deferrals(power_gate_.rejections);
    if (!decision.empty())
        apply_decision(decision);
}

StatusOr<TimePoint>
TaccStack::estimated_start(cluster::JobId id) const
{
    const JobEntry *rec = table_.find(id);
    if (!rec)
        return Status::not_found(strfmt("job %llu", (unsigned long long)id));
    switch (rec->stage) {
      case Stage::kRunning:
        return rec->job.segment_start();
      case Stage::kDone:
        return Status::failed_precondition("job already finished");
      case Stage::kHeld:
        return Status::failed_precondition(
            "blocked on pipeline dependencies");
      case Stage::kBackoff:
        return Status::failed_precondition("waiting out requeue backoff");
      case Stage::kProvisioning:
      case Stage::kQueued:
        break;
    }

    EtaWalk &walk = eta_;
    const uint64_t observations = predict_hub_.model().model_observations();
    if (walk.views_version != views_.version() || walk.now != sim_.now() ||
        walk.free_gpus != cluster_.free_gpus() ||
        walk.observations != observations) {
        walk.views_version = views_.version();
        walk.now = sim_.now();
        walk.free_gpus = cluster_.free_gpus();
        walk.observations = observations;
        walk.releases.clear();
        for (const sched::RunningInfo &r : views_.running())
            walk.releases.push_back({r.expected_end, r.job->running_gpus()});
        walk.profile.reset(sim_.now(), cluster_.free_gpus(), walk.releases);
        walk.fit.clear();
        ++walk.walks;
    }
    // The queue ahead of (and including) the target, in arrival order;
    // provisioning jobs enter the queue after everything pending now.
    const auto pending = views_.pending();
    size_t depth = pending.size();
    if (rec->stage == Stage::kQueued) {
        depth = size_t(std::lower_bound(pending.begin(), pending.end(),
                                        &rec->job, sched::arrives_before) -
                       pending.begin());
        assert(depth < pending.size() && pending[depth] == &rec->job);
        ++depth;
    }
    while (walk.fit.size() < depth) {
        const Job &ahead = *pending[walk.fit.size()];
        const Duration bound = active_estimator().predict(ahead);
        const TimePoint fit =
            walk.profile.earliest_fit(ahead.spec().gpus, bound);
        walk.profile.reserve(fit, bound, ahead.spec().gpus);
        walk.fit.push_back(fit);
    }
    if (rec->stage == Stage::kQueued)
        return walk.fit[depth - 1];
    const Duration bound = active_estimator().predict(rec->job);
    return walk.profile.earliest_fit(rec->job.spec().gpus, bound);
}

Status
TaccStack::check_views() const
{
    if (Status s = views_.check(); !s.is_ok())
        return s;
    const auto pending = views_.pending();
    const auto running = views_.running();
    size_t queued = 0, active = 0, next_running = 0;
    JobId bad = cluster::kInvalidJob;
    table_.for_each([&](const JobEntry &rec) {
        const JobState state = rec.job.state();
        bool ok = rec.stage == Stage::kRunning || rec.placement.empty();
        switch (rec.stage) {
          case Stage::kProvisioning:
            ok &= state == JobState::kProvisioning && rec.event != 0;
            break;
          case Stage::kHeld:
            ok &= state == JobState::kPending && rec.unmet_deps > 0 &&
                  rec.event == 0;
            break;
          case Stage::kBackoff:
            ok &= state == JobState::kPending && rec.event != 0;
            break;
          case Stage::kQueued:
            ++queued;
            ok &= state == JobState::kPending && rec.event == 0 &&
                  std::binary_search(pending.begin(), pending.end(),
                                     &rec.job, sched::arrives_before);
            break;
          case Stage::kRunning: {
            const sched::RunningInfo *r = next_running < running.size()
                                              ? &running[next_running]
                                              : nullptr;
            ++next_running;
            ok &= rec.event != 0 && r && r->job == &rec.job &&
                  r->expected_end == rec.expected_end &&
                  r->placement.total_gpus() == rec.placement.total_gpus();
            break;
          }
          case Stage::kDone:
            ok &= rec.job.terminal() && !metrics_.streaming();
            break;
        }
        active += rec.stage != Stage::kDone;
        if (!ok && bad == cluster::kInvalidJob)
            bad = rec.job.id();
    });
    if (bad != cluster::kInvalidJob) {
        return Status::internal(strfmt("job %llu's record disagrees with "
                                       "its stage or views",
                                       (unsigned long long)bad));
    }
    if (queued != pending.size() || next_running != running.size() ||
        active != active_jobs_)
        return Status::internal("the views or counts hold unknown jobs");
    return Status::ok();
}

void
TaccStack::set_group_quota(const std::string &group, int max_gpus)
{
    quota_.set_group_quota(group, max_gpus);
    schedule_now();
}

Status
TaccStack::cordon_node(int node)
{
    return faults_->cordon(cluster::NodeId(node));
}

Status
TaccStack::drain_node(int node)
{
    return faults_->drain(cluster::NodeId(node));
}

Status
TaccStack::uncordon_node(int node)
{
    Status s = faults_->uncordon(cluster::NodeId(node));
    return s;
}

std::string
TaccStack::health_report() const
{
    using cluster::NodeHealth;
    const auto &health = cluster_.health();
    std::string out = strfmt(
        "== node health: cluster '%s' at %s ==\n",
        config_.cluster.name.c_str(),
        ops::format_day_time(sim_.now()).c_str());
    out += strfmt(
        "nodes: %d healthy, %d degraded, %d cordoned, %d draining, "
        "%d down, %d repairing\n",
        health.count(NodeHealth::kHealthy),
        health.count(NodeHealth::kDegraded),
        health.count(NodeHealth::kCordoned),
        health.count(NodeHealth::kDraining),
        health.count(NodeHealth::kDown),
        health.count(NodeHealth::kRepairing));
    out += strfmt("schedulable GPUs: %d/%d (%d free)\n",
                  cluster_.schedulable_total_gpus(),
                  cluster_.total_gpus(),
                  cluster_.schedulable_free_gpus());
    out += strfmt(
        "faults: %llu node crash(es), %llu rack outage(s), "
        "%llu PDU outage(s), %llu degradation(s), %llu repair(s)\n",
        (unsigned long long)faults_->node_crashes(),
        (unsigned long long)faults_->rack_outages(),
        (unsigned long long)faults_->pdu_outages(),
        (unsigned long long)faults_->degradations(),
        (unsigned long long)faults_->repairs());
    out += strfmt("fault-lost GPU-hours: %.1f\n",
                  metrics_.fault_lost_gpu_seconds() / 3600.0);
    for (const auto &node : cluster_.nodes()) {
        const NodeHealth s = health.state(node.id());
        if (s == NodeHealth::kHealthy)
            continue;
        out += strfmt("  %s: %s (%d job(s) resident)\n",
                      node.name().c_str(), cluster::health_name(s),
                      int(node.resident_jobs().size()));
    }
    return out;
}

std::string
TaccStack::power_report() const
{
    if (!power_)
        return "power management disabled\n";
    const auto &pc = config_.power;
    std::string out = strfmt(
        "== power: cluster '%s' at %s ==\n", config_.cluster.name.c_str(),
        ops::format_day_time(sim_.now()).c_str());
    out += strfmt("draw: %.1f kW (baseline %.1f kW, peak %.1f kW)\n",
                  power_->draw_w() / 1000.0, power_->baseline_w() / 1000.0,
                  power_->peak_draw_w() / 1000.0);
    out += strfmt("policy: %s\n", pc.policy.c_str());
    if (pc.cluster_cap_w > 0) {
        out += strfmt("cluster cap: %.1f kW (headroom %.1f kW)\n",
                      pc.cluster_cap_w / 1000.0,
                      power_->cluster_headroom_w() / 1000.0);
    }
    if (pc.rack_cap_w > 0)
        out += strfmt("rack cap: %.1f kW\n", pc.rack_cap_w / 1000.0);
    if (pc.pdu_cap_w > 0) {
        out += strfmt("PDU cap: %.1f kW (%d rack(s) per PDU)\n",
                      pc.pdu_cap_w / 1000.0, pc.racks_per_pdu);
    }
    out += strfmt(
        "enforcement: %llu deferral(s), %llu DVFS-scaled start(s), "
        "%d node(s) throttled\n",
        (unsigned long long)power_->deferrals(),
        (unsigned long long)power_->dvfs_starts(),
        power_->throttled_nodes());
    for (int rack = 0; rack < power_->model().rack_count(); ++rack) {
        out += strfmt("  rack %d: %.1f kW\n", rack,
                      power_->rack_draw_w(rack) / 1000.0);
    }
    return out;
}

std::string
TaccStack::energy_report() const
{
    if (!power_)
        return "power management disabled\n";
    power_->advance(sim_.now());
    std::string out = strfmt(
        "== energy: cluster '%s' at %s ==\n", config_.cluster.name.c_str(),
        ops::format_day_time(sim_.now()).c_str());
    const double total = power_->energy_kwh();
    const double baseline = power_->baseline_energy_kwh();
    out += strfmt("cluster: %.1f kWh (baseline %.1f kWh, active %.1f "
                  "kWh)\n",
                  total, baseline, total - baseline);
    const auto groups = power_->group_energy_kwh();
    if (!groups.empty()) {
        out += "active energy by group:\n";
        for (const auto &[group, kwh] : groups)
            out += strfmt("  %s: %.1f kWh\n", group.c_str(), kwh);
    }
    return out;
}

Status
TaccStack::kill(JobId id)
{
    JobEntry *rec = table_.find(id);
    if (!rec)
        return Status::not_found(strfmt("job %llu", (unsigned long long)id));
    if (rec->job.terminal())
        return Status::failed_precondition("job already terminal");

    switch (rec->stage) {
      case Stage::kProvisioning:
      case Stage::kBackoff:
        sim_.cancel(rec->event);
        rec->event = 0;
        break;
      case Stage::kQueued:
        views_.remove_pending(&rec->job);
        metrics_.on_queue_depth(sim_.now(), int(pending_count()));
        break;
      case Stage::kRunning:
        stop_segment(*rec, false);
        break;
      case Stage::kHeld:
      case Stage::kDone:
        break;
    }
    Status s = rec->job.kill(sim_.now());
    assert(s.is_ok());
    finalize(*rec);
    schedule_now();
    return Status::ok();
}

} // namespace tacc::core
