/**
 * @file
 * Scheduling Layer interfaces (layer 3 of the TACC workflow abstraction).
 *
 * The scheduler is pure policy: given a snapshot of the pending queue, the
 * running set, and cluster free-state, it returns a ScheduleDecision
 * (preemptions to apply, then jobs to start, each with a concrete
 * placement). The core applies decisions; the scheduler never mutates
 * simulation state directly, which keeps every policy trivially swappable
 * and unit-testable.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/types.h"
#include "common/time.h"
#include "workload/job.h"

namespace tacc::sched {

class FreeView;
class PlacementPolicy;
class QuotaManager;
class RuntimeEstimator;
class UsageTracker;

/**
 * Power admission gate the core fills from the PowerManager before each
 * scheduling pass. Advisory and conservative: headroom is priced at
 * `per_gpu_w` (the worst-case per-GPU delta times the policy's commit
 * fraction), so the gate only skips starts that certainly cannot fit.
 * The core re-checks every start against the exact power model when
 * applying the decision. Mutable headrooms let a const context deduct
 * reservations as the scheduler commits starts within one pass.
 */
struct PowerGate {
    const cluster::Cluster *cluster = nullptr;
    /** Conservative watts reserved per requested GPU. */
    double per_gpu_w = 0;
    int racks_per_pdu = 2;
    /** Remaining budget per scope; empty vector = scope uncapped. */
    mutable double cluster_headroom_w =
        std::numeric_limits<double>::infinity();
    mutable std::vector<double> rack_headroom_w;
    mutable std::vector<double> pdu_headroom_w;
    /** Starts this pass skipped for lack of power headroom. */
    mutable uint64_t rejections = 0;

    /** Cheap pre-plan check: can `gpus` possibly fit anywhere? */
    bool
    admits(int gpus) const
    {
        return double(gpus) * per_gpu_w <= cluster_headroom_w;
    }

    /**
     * Post-plan check against every scope the placement touches;
     * deducts the reservation from each on success.
     */
    bool
    try_commit(const cluster::Placement &placement) const
    {
        const double total = double(placement.total_gpus()) * per_gpu_w;
        if (total > cluster_headroom_w)
            return false;
        if (!rack_headroom_w.empty() || !pdu_headroom_w.empty()) {
            std::vector<std::pair<int, double>> rack_w;
            for (const auto &slice : placement.slices) {
                const int rack = int(cluster->node(slice.node).rack());
                const double w =
                    double(slice.gpu_indices.size()) * per_gpu_w;
                bool merged = false;
                for (auto &[r, acc] : rack_w) {
                    if (r == rack) {
                        acc += w;
                        merged = true;
                        break;
                    }
                }
                if (!merged)
                    rack_w.emplace_back(rack, w);
            }
            const int per = racks_per_pdu > 0 ? racks_per_pdu : 1;
            for (const auto &[rack, w] : rack_w) {
                if (!rack_headroom_w.empty() &&
                    (size_t(rack) >= rack_headroom_w.size() ||
                     w > rack_headroom_w[size_t(rack)]))
                    return false;
                if (!pdu_headroom_w.empty()) {
                    const size_t pdu = size_t(rack / per);
                    double pdu_w = 0;
                    for (const auto &[r2, w2] : rack_w) {
                        if (size_t(r2 / per) == pdu)
                            pdu_w += w2;
                    }
                    if (pdu >= pdu_headroom_w.size() ||
                        pdu_w > pdu_headroom_w[pdu])
                        return false;
                }
            }
            for (const auto &[rack, w] : rack_w) {
                if (!rack_headroom_w.empty())
                    rack_headroom_w[size_t(rack)] -= w;
                if (!pdu_headroom_w.empty())
                    pdu_headroom_w[size_t(rack / per)] -= w;
            }
        }
        cluster_headroom_w -= total;
        return true;
    }
};

/** A running job as the scheduler sees it. */
struct RunningInfo {
    workload::Job *job = nullptr;
    cluster::Placement placement;
    /** Projected completion at the current allocation. */
    TimePoint expected_end;
};

/**
 * Snapshot handed to Scheduler::schedule(). The pending/running/free/held
 * views reference storage owned by the caller (the core keeps them
 * current between decisions, see LiveViews); they must stay alive and
 * unchanged for the call.
 */
struct SchedulerContext {
    TimePoint now;
    /** Pending jobs; see pending_sorted for the ordering guarantee. */
    std::span<workload::Job *const> pending;
    /**
     * True when `pending` is already in (submit time, id) order — the
     * arrival order every policy starts from — letting schedulers skip
     * their re-sort. False for ad-hoc contexts (tests, tools).
     */
    bool pending_sorted = false;
    /** Running jobs; the core hands them over in ascending id order. */
    std::span<const RunningInfo> running;
    /**
     * Free GPUs per node as of `running`, health-masked (see FreeView).
     * Null in ad-hoc contexts, where scratch_view() snapshots `cluster`.
     */
    const FreeView *free = nullptr;
    /**
     * GPUs `running` holds per group, indexed by Job::group_id() (short
     * entries read as 0). Empty in ad-hoc contexts, where
     * held_by_group() sums `running`.
     */
    std::span<const int> held_gpus;
    const cluster::Cluster *cluster = nullptr;
    PlacementPolicy *placement = nullptr;
    /** Decayed per-group service usage; null if untracked. */
    const UsageTracker *usage = nullptr;
    /** Group GPU caps; null if unenforced. */
    const QuotaManager *quota = nullptr;
    /** Learned runtime predictions; null if unavailable. */
    const RuntimeEstimator *estimator = nullptr;
    /**
     * True when `estimator` is the stack's online prediction authority
     * (src/predict in ema/regress mode): policies may condition
     * reservations and victim choice on it even when their own
     * use_estimates knob is off. False leaves every pre-prediction
     * decision byte-identical.
     */
    bool predictions_authoritative = false;
    /**
     * Short-horizon forecast of pending GPU demand (the load
     * forecaster's one-pass-ahead backlog estimate); < 0 when no
     * forecast is available. Elastic allocation leaves headroom for
     * forecast demand beyond what is pending now.
     */
    double forecast_backlog_gpus = -1;
    /**
     * Heterogeneous clusters: plan gangs within one GPU generation
     * (a mixed gang runs at its slowest worker's speed).
     */
    bool avoid_gpu_mixing = false;
    /**
     * Per-node placement veto (1 = allowed), e.g. the flaky-node
     * scoreboard steering requeues away from recently-faulty nodes.
     * Null means every node is allowed. ANDed with any GPU-model mask.
     */
    const std::vector<uint8_t> *node_filter = nullptr;
    /**
     * Power admission gate; null when power management is off or the
     * deployment is uncapped. See PowerGate for the contract.
     */
    const PowerGate *power = nullptr;
    /**
     * Per-iteration wall seconds the execution layer predicts for a job on
     * a hypothetical placement. Used for reservations and elastic search.
     */
    std::function<double(const workload::Job &,
                         const cluster::Placement &)>
        iter_time;
};

/** One job start within a decision. */
struct StartAction {
    cluster::JobId job = cluster::kInvalidJob;
    cluster::Placement placement;
};

/** What the scheduler wants done, applied atomically by the core. */
struct ScheduleDecision {
    /** Victims preempted (and their GPUs freed) before any start. */
    std::vector<cluster::JobId> preemptions;
    std::vector<StartAction> starts;

    bool
    empty() const
    {
        return preemptions.empty() && starts.empty();
    }
};

/** Scheduling policy interface. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    virtual std::string name() const = 0;

    /** Computes a decision; must not mutate anything it is handed. */
    virtual ScheduleDecision schedule(const SchedulerContext &ctx) = 0;

    /**
     * Period at which the core should invoke the scheduler even without
     * queue events (time slicing, elastic re-allocation, priority decay).
     * zero() means event-driven only.
     */
    virtual Duration tick_period() const { return Duration::zero(); }
};

} // namespace tacc::sched
