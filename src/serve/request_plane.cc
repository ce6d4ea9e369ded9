#include "serve/request_plane.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/log.h"

namespace tacc::serve {

namespace {
constexpr uint64_t kPlaneSeedSalt = 0x5e4e'0b1a'57ab'1e01ULL;
constexpr double kDaySeconds = 86400.0;
} // namespace

RequestPlane::RequestPlane(sim::Simulator &sim, ServePlaneConfig config,
                           uint64_t seed, PlaneHooks hooks)
    : sim_(sim), config_(std::move(config)), hooks_(std::move(hooks)),
      arrival_rng_(Rng(seed ^ kPlaneSeedSalt).fork(1)),
      retry_rng_(Rng(seed ^ kPlaneSeedSalt).fork(2)),
      autoscale_task_(
          sim, Duration::from_seconds(std::max(1.0, config_.scale_period_s)),
          "serve.autoscale", [this] { autoscale_tick(); })
{
    config_.tenants = std::max(1, config_.tenants);
    config_.max_replicas = std::max(1, config_.max_replicas);
    config_.min_replicas =
        std::clamp(config_.min_replicas, 0, config_.max_replicas);
}

void
RequestPlane::start()
{
    if (!config_.enabled)
        return;
    budgets_.assign(size_t(config_.tenants), RetryBudget(config_.budget));
    replicas_.resize(size_t(config_.max_replicas));
    for (auto &replica : replicas_)
        replica.breaker = CircuitBreaker(config_.breaker);
    desired_ = std::clamp(config_.initial_replicas, config_.min_replicas,
                          config_.max_replicas);
    spawn_missing();
    refill_arrivals();
    if (config_.autoscale)
        autoscale_task_.start();
}

double
RequestPlane::rate_at(double t_s) const
{
    double rate = config_.request_rate_hz;
    if (config_.diurnal && config_.diurnal_peak_ratio > 1.0) {
        const double swing = (config_.diurnal_peak_ratio - 1.0) * 0.5;
        rate *= 1.0 +
                swing * (1.0 - std::cos(2.0 * M_PI * t_s / kDaySeconds));
    }
    if (config_.burst_factor > 1.0 && t_s >= config_.burst_start_s &&
        t_s < config_.burst_start_s + config_.burst_duration_s) {
        rate *= config_.burst_factor;
    }
    return rate;
}

void
RequestPlane::refill_arrivals()
{
    if (horizon_reached_)
        return;
    // Thinning over the peak-rate envelope: candidates are drawn at the
    // maximum rate the configured curve can reach and accepted with
    // probability rate(t)/peak, so one homogeneous stream reproduces
    // the diurnal curve and the burst window exactly. Only one window
    // of events is in the heap at a time (the streaming regime): the
    // last candidate doubles as the refill point.
    double peak = config_.request_rate_hz;
    if (config_.diurnal && config_.diurnal_peak_ratio > 1.0)
        peak *= config_.diurnal_peak_ratio;
    if (config_.burst_factor > 1.0)
        peak *= config_.burst_factor;
    if (peak <= 0) {
        horizon_reached_ = true;
        maybe_shutdown();
        return;
    }

    batch_scratch_.clear();
    double t = last_candidate_s_;
    const int window = std::max(1, config_.arrival_window);
    for (int i = 0; i < window; ++i) {
        t += arrival_rng_.exponential(1.0 / peak);
        if (t >= config_.horizon_s) {
            horizon_reached_ = true;
            break;
        }
        if (arrival_rng_.uniform() < rate_at(t) / peak) {
            ++pending_arrivals_;
            batch_scratch_.push_back(
                {TimePoint::origin() + Duration::from_seconds(t),
                 "serve.arrival", [this] { on_arrival(); }});
        }
    }
    last_candidate_s_ = t;
    if (!horizon_reached_) {
        batch_scratch_.push_back(
            {TimePoint::origin() + Duration::from_seconds(t),
             "serve.refill", [this] { refill_arrivals(); }});
    }
    sim_.schedule_batch(batch_scratch_);
    if (horizon_reached_)
        maybe_shutdown();
}

void
RequestPlane::on_arrival()
{
    --pending_arrivals_;
    ++counters_.requests;
    ++arrivals_this_period_;
    record_offered(sim_.now());

    const uint64_t id = next_request_id_++;
    Request request;
    request.id = id;
    request.tenant = int(id % uint64_t(config_.tenants));
    request.first_arrival = sim_.now();
    budgets_[size_t(request.tenant)].on_request();
    requests_.emplace(id, request);
    dispatch(id);
}

double
RequestPlane::backlog_s(const Replica &replica) const
{
    const double capacity = config_.per_replica_capacity_hz();
    const double queued =
        double(replica.queue.size() + replica.batch.size());
    double backlog = capacity > 0 ? queued / capacity : 0.0;
    if (replica.batch_event != 0)
        backlog += config_.batch_fixed_s;
    return backlog;
}

int
RequestPlane::pick_replica()
{
    int best = -1;
    size_t best_depth = 0;
    for (int slot = 0; slot < int(replicas_.size()); ++slot) {
        Replica &replica = replicas_[size_t(slot)];
        if (replica.job == 0 || !replica.up || !replica.wanted)
            continue;
        if (config_.breakers) {
            if (hooks_.node_degraded &&
                hooks_.node_degraded(replica.node)) {
                const uint64_t before = replica.breaker.trips();
                replica.breaker.trip(sim_.now());
                counters_.breaker_trips +=
                    replica.breaker.trips() - before;
                continue;
            }
            if (!replica.breaker.can_allow(sim_.now()))
                continue;
        }
        const size_t depth = replica.queue.size();
        if (depth >= size_t(config_.hard_queue_cap))
            continue;
        if (best < 0 || depth < best_depth) {
            best = slot;
            best_depth = depth;
        }
    }
    return best;
}

void
RequestPlane::dispatch(uint64_t request_id)
{
    ++counters_.attempts;
    auto it = requests_.find(request_id);
    assert(it != requests_.end());

    const int slot = pick_replica();
    if (slot < 0) {
        ++counters_.shed;
        // Distinguish "no healthy replica would take it" caused by
        // breakers from plain unavailability, for the ops series.
        for (const auto &replica : replicas_) {
            if (replica.job != 0 && replica.up && replica.wanted &&
                config_.breakers &&
                !replica.breaker.can_allow(sim_.now())) {
                ++counters_.breaker_shed;
                break;
            }
        }
        attempt_failed(request_id);
        return;
    }

    Replica &replica = replicas_[size_t(slot)];
    const double now_s = sim_.now().to_seconds();
    const double backlog = backlog_s(replica);
    const double service =
        config_.batch_fixed_s + config_.batch_per_request_s;
    if (config_.admission) {
        const AdmissionDecision decision = admit_request(
            config_.admission_cfg, int(replica.queue.size()), backlog,
            service, now_s, now_s + config_.client_timeout_s);
        if (!decision.admit) {
            ++counters_.shed;
            attempt_failed(request_id);
            return;
        }
    }
    if (config_.breakers && !replica.breaker.allow(sim_.now())) {
        ++counters_.shed;
        ++counters_.breaker_shed;
        attempt_failed(request_id);
        return;
    }

    Request &request = it->second;
    ++counters_.admitted;
    request.degraded =
        config_.degrade && backlog > config_.degrade_backlog_s;
    request.replica_slot = slot;
    replica.queue.push_back(request_id);
    request.timeout_event = sim_.schedule_after(
        Duration::from_seconds(config_.client_timeout_s), "serve.timeout",
        [this, request_id] { on_timeout(request_id); });
    maybe_start_batch(slot);
}

void
RequestPlane::maybe_start_batch(int slot)
{
    Replica &replica = replicas_[size_t(slot)];
    if (!replica.up || replica.batch_event != 0 || replica.queue.empty())
        return;
    double duration = config_.batch_fixed_s;
    while (!replica.queue.empty() &&
           int(replica.batch.size()) < config_.max_batch) {
        const uint64_t id = replica.queue.front();
        replica.queue.pop_front();
        replica.batch.push_back(id);
        // Abandoned requests burn full service — the wasted-work loop.
        const auto it = requests_.find(id);
        const bool cheap =
            it != requests_.end() && it->second.degraded &&
            !it->second.abandoned;
        duration += config_.batch_per_request_s *
                    (cheap ? config_.degrade_cost_factor : 1.0);
    }
    replica.batch_event =
        sim_.schedule_after(Duration::from_seconds(duration),
                            "serve.batch", [this, slot] {
                                on_batch_done(slot);
                            });
}

void
RequestPlane::on_batch_done(int slot)
{
    Replica &replica = replicas_[size_t(slot)];
    replica.batch_event = 0;
    for (const uint64_t id : replica.batch) {
        auto it = requests_.find(id);
        if (it == requests_.end())
            continue;
        Request &request = it->second;
        if (request.abandoned) {
            ++counters_.wasted;
        } else {
            sim_.cancel(request.timeout_event);
            const double latency =
                (sim_.now() - request.first_arrival).to_seconds();
            if (request.degraded)
                ++counters_.degraded;
            if (latency <= config_.slo_s) {
                ++counters_.ok;
                record_goodput(sim_.now());
            } else {
                ++counters_.late;
            }
        }
        requests_.erase(it);
    }
    replica.batch.clear();
    if (config_.breakers && replica.up)
        replica.breaker.on_success(sim_.now());
    maybe_start_batch(slot);
    maybe_shutdown();
}

void
RequestPlane::on_timeout(uint64_t request_id)
{
    auto it = requests_.find(request_id);
    if (it == requests_.end())
        return;
    it->second.timeout_event = 0;
    it->second.abandoned = true;
    ++counters_.timeouts;
    // The entry stays queued server-side (wasted work); the client
    // moves on to the retry decision.
    attempt_failed(request_id);
}

void
RequestPlane::attempt_failed(uint64_t request_id)
{
    auto it = requests_.find(request_id);
    assert(it != requests_.end());
    const int tenant = it->second.tenant;
    const int attempt = it->second.attempt;
    const double prev_backoff = it->second.last_backoff_s;
    const TimePoint first_arrival = it->second.first_arrival;
    // A shed attempt never reached a queue: drop its entry now.
    // Abandoned entries stay behind until the server burns them.
    if (it->second.replica_slot < 0)
        requests_.erase(it);

    if (attempt > config_.max_retries) {
        ++counters_.dropped;
        maybe_shutdown();
        return;
    }
    if (config_.retry_budget && !budgets_[size_t(tenant)].try_spend()) {
        ++counters_.retries_denied;
        ++counters_.dropped;
        maybe_shutdown();
        return;
    }
    ++counters_.retries;
    double backoff;
    if (config_.retry_jitter) {
        backoff = decorrelated_jitter(retry_rng_, config_.retry_base_s,
                                      config_.retry_cap_s, prev_backoff);
    } else {
        backoff = std::min(config_.retry_cap_s,
                           config_.retry_base_s *
                               std::pow(2.0, double(attempt - 1)));
    }
    ++retry_timers_;
    sim_.schedule_after(
        Duration::from_seconds(backoff), "serve.retry",
        [this, tenant, attempt, backoff, first_arrival] {
            --retry_timers_;
            const uint64_t id = next_request_id_++;
            Request request;
            request.id = id;
            request.tenant = tenant;
            request.attempt = attempt + 1;
            request.last_backoff_s = backoff;
            request.first_arrival = first_arrival;
            requests_.emplace(id, request);
            dispatch(id);
        });
}

void
RequestPlane::flush_replica(int slot)
{
    Replica &replica = replicas_[size_t(slot)];
    if (replica.batch_event != 0) {
        sim_.cancel(replica.batch_event);
        replica.batch_event = 0;
    }
    std::vector<uint64_t> in_flight;
    in_flight.reserve(replica.batch.size() + replica.queue.size());
    in_flight.insert(in_flight.end(), replica.batch.begin(),
                     replica.batch.end());
    in_flight.insert(in_flight.end(), replica.queue.begin(),
                     replica.queue.end());
    replica.batch.clear();
    replica.queue.clear();
    for (const uint64_t id : in_flight) {
        auto it = requests_.find(id);
        if (it == requests_.end())
            continue;
        if (it->second.abandoned) {
            ++counters_.wasted;
            requests_.erase(it);
            continue;
        }
        sim_.cancel(it->second.timeout_event);
        it->second.timeout_event = 0;
        it->second.replica_slot = -1;
        attempt_failed(id); // client sees a connection reset
    }
}

void
RequestPlane::on_replica_up(uint64_t job, uint32_t node)
{
    for (auto &replica : replicas_) {
        if (replica.job != job)
            continue;
        accrue_capacity(sim_.now());
        replica.up = true;
        replica.node = node;
        return;
    }
}

void
RequestPlane::on_replica_down(uint64_t job)
{
    for (int slot = 0; slot < int(replicas_.size()); ++slot) {
        Replica &replica = replicas_[size_t(slot)];
        if (replica.job != job)
            continue;
        accrue_capacity(sim_.now());
        const bool was_up = replica.up;
        replica.up = false;
        flush_replica(slot);
        if (was_up) {
            ++counters_.replica_failures;
            if (config_.breakers) {
                const uint64_t before = replica.breaker.trips();
                replica.breaker.trip(sim_.now());
                counters_.breaker_trips +=
                    replica.breaker.trips() - before;
            }
        }
        return;
    }
}

void
RequestPlane::on_replica_gone(uint64_t job)
{
    for (int slot = 0; slot < int(replicas_.size()); ++slot) {
        Replica &replica = replicas_[size_t(slot)];
        if (replica.job != job)
            continue;
        accrue_capacity(sim_.now());
        replica.up = false;
        flush_replica(slot);
        replica.job = 0;
        if (!done_ && replica.wanted) {
            replica.job = hooks_.spawn_replica(slot);
            if (replica.job != 0)
                ++counters_.replicas_spawned;
        }
        return;
    }
}

void
RequestPlane::spawn_missing()
{
    for (int slot = 0; slot < int(replicas_.size()); ++slot) {
        Replica &replica = replicas_[size_t(slot)];
        replica.wanted = slot < desired_;
        if (replica.wanted && replica.job == 0) {
            replica.job = hooks_.spawn_replica(slot);
            if (replica.job != 0)
                ++counters_.replicas_spawned;
        }
    }
}

void
RequestPlane::autoscale_tick()
{
    if (done_)
        return;
    const double rate =
        double(arrivals_this_period_) / config_.scale_period_s;
    arrivals_this_period_ = 0;
    // Plan against the forecast when a forecaster is wired: a climbing
    // rate provisions ahead of the trend instead of one period behind
    // it. The SLO-unattainable latch stays on the *measured* rate — it
    // reports what was offered, not what was predicted.
    const double planning_rate =
        hooks_.forecast_rate ? hooks_.forecast_rate(rate) : rate;
    const double capacity = config_.per_replica_capacity_hz();
    int want = desired_;
    if (capacity > 0) {
        want = int(
            std::ceil(planning_rate * config_.scale_headroom / capacity));
        // Queue pressure overrides a stale rate estimate: a backlog of
        // more than two full batches per replica asks for one more.
        if (queue_depth() >
            std::max(1, desired_) * config_.max_batch * 2) {
            ++want;
        }
        if (rate * config_.scale_headroom >
                capacity * config_.max_replicas &&
            !slo_unattainable_) {
            slo_unattainable_ = true;
            Log::warnf("serve: SLO unattainable at max pool "
                       "(offered %.1f req/s > %.1f req/s at %d replicas)",
                       rate, capacity * config_.max_replicas,
                       config_.max_replicas);
        }
    }
    desired_ =
        std::clamp(want, config_.min_replicas, config_.max_replicas);

    // Retire slots beyond the target: requeue their admitted work onto
    // surviving replicas (no retry-budget charge), then kill the job.
    for (int slot = desired_; slot < int(replicas_.size()); ++slot) {
        Replica &replica = replicas_[size_t(slot)];
        if (!replica.wanted && replica.job == 0)
            continue;
        replica.wanted = false;
        if (replica.job == 0)
            continue;
        accrue_capacity(sim_.now());
        if (replica.batch_event != 0) {
            sim_.cancel(replica.batch_event);
            replica.batch_event = 0;
        }
        std::vector<uint64_t> moved;
        moved.insert(moved.end(), replica.batch.begin(),
                     replica.batch.end());
        moved.insert(moved.end(), replica.queue.begin(),
                     replica.queue.end());
        replica.batch.clear();
        replica.queue.clear();
        replica.up = false;
        for (const uint64_t id : moved) {
            auto it = requests_.find(id);
            if (it == requests_.end())
                continue;
            if (it->second.abandoned) {
                ++counters_.wasted;
                requests_.erase(it);
                continue;
            }
            const int target = pick_replica();
            if (target >= 0) {
                it->second.replica_slot = target;
                replicas_[size_t(target)].queue.push_back(id);
                maybe_start_batch(target);
            } else {
                sim_.cancel(it->second.timeout_event);
                it->second.timeout_event = 0;
                it->second.replica_slot = -1;
                attempt_failed(id);
            }
        }
        hooks_.kill_replica(replica.job);
    }
    spawn_missing();
}

void
RequestPlane::maybe_shutdown()
{
    if (!config_.enabled || done_)
        return;
    if (!horizon_reached_ || pending_arrivals_ > 0)
        return;
    if (retry_timers_ > 0 || !requests_.empty())
        return;
    done_ = true;
    accrue_capacity(sim_.now());
    autoscale_task_.stop();
    for (auto &replica : replicas_) {
        replica.wanted = false;
        if (replica.job != 0)
            hooks_.kill_replica(replica.job);
    }
}

int
RequestPlane::replicas_up() const
{
    int up = 0;
    for (const auto &replica : replicas_)
        up += (replica.job != 0 && replica.up) ? 1 : 0;
    return up;
}

int
RequestPlane::queue_depth() const
{
    size_t depth = 0;
    for (const auto &replica : replicas_)
        depth += replica.queue.size() + replica.batch.size();
    return int(depth);
}

const RetryBudget &
RequestPlane::tenant_budget(int tenant) const
{
    return budgets_.at(size_t(tenant));
}

void
RequestPlane::bump_bucket(std::vector<double> &buckets, size_t index,
                          double amount)
{
    if (buckets.size() <= index)
        buckets.resize(index + 1, 0.0);
    buckets[index] += amount;
}

void
RequestPlane::record_offered(TimePoint t)
{
    const size_t bucket =
        size_t(t.to_seconds() / std::max(1.0, config_.series_bucket_s));
    bump_bucket(offered_buckets_, bucket, 1.0);
}

void
RequestPlane::record_goodput(TimePoint t)
{
    const size_t bucket =
        size_t(t.to_seconds() / std::max(1.0, config_.series_bucket_s));
    bump_bucket(goodput_buckets_, bucket, 1.0);
}

void
RequestPlane::accrue_capacity(TimePoint now)
{
    // Called BEFORE any up-count change: commits the current surviving
    // capacity over [accrued_to, now).
    const double from = capacity_accrued_to_.to_seconds();
    capacity_accrued_to_ = now;
    add_capacity(capacity_buckets_, from, now.to_seconds());
}

void
RequestPlane::add_capacity(std::vector<double> &buckets, double from_s,
                           double to_s) const
{
    if (to_s <= from_s)
        return;
    const double rate_hz =
        replicas_up() * config_.per_replica_capacity_hz();
    if (rate_hz <= 0)
        return;
    const double bucket_s = std::max(1.0, config_.series_bucket_s);
    while (from_s < to_s) {
        const size_t bucket = size_t(from_s / bucket_s);
        const double end = std::min(to_s, double(bucket + 1) * bucket_s);
        bump_bucket(buckets, bucket, rate_hz * (end - from_s));
        from_s = end;
    }
}

ServingReport
RequestPlane::report() const
{
    ServingReport out;
    out.counters = counters_;
    out.slo_attainment =
        counters_.requests > 0
            ? double(counters_.ok) / double(counters_.requests)
            : 0.0;
    out.replicas_up = replicas_up();
    out.slo_unattainable = slo_unattainable_;
    out.bucket_s = std::max(1.0, config_.series_bucket_s);
    out.offered = offered_buckets_;
    out.goodput = goodput_buckets_;
    out.capacity = capacity_buckets_;
    add_capacity(out.capacity, capacity_accrued_to_.to_seconds(),
                 sim_.now().to_seconds());
    return out;
}

} // namespace tacc::serve
