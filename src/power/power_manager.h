/**
 * @file
 * PowerManager: live draw tracking, cap enforcement, and the energy
 * ledger.
 *
 * The manager is the single authority for instantaneous draw. The core
 * reports every segment start/stop; the manager keeps the per-scope
 * (cluster / rack / PDU) active deltas and answers two questions:
 *
 *  - plan_start(): may this gang start now, and at what clock? Under
 *    the "admission" policy a start that would overflow any scope's
 *    budget is refused (the job stays pending). Under "dvfs" the gang
 *    is frequency-scaled into the tightest scope's headroom,
 *      clock = min(1, (headroom / delta_full)^(1/alpha)),
 *    and refused only below min_clock. Clocks are chosen once at
 *    segment start — running segments are never repriced (a deliberate
 *    approximation that keeps the one-event-per-segment execution model
 *    intact).
 *
 *  - node_clock_of(): the clock multiplier a node runs at — the min
 *    over its resident scaled segments — which the core pushes into the
 *    execution engine so compute time stretches accordingly.
 *
 * Determinism contract: draw is recomputed from the (id-ordered) active
 * segment set after every change, so the totals are exactly independent
 * of the order events arrived in, never accumulate floating-point
 * residue, and can never go negative on release/failure paths (the
 * property test relies on all three). The energy ledger integrates
 * piecewise-constant draw on every state change; per-group integrals
 * use the same per-segment deltas as the cluster integral, so
 *   cluster energy == baseline energy + sum of group energies
 * reconciles to floating-point accuracy by construction.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/time.h"
#include "power/power_model.h"

namespace tacc::power {

/** plan_start() verdict. */
struct StartDecision {
    bool admit = true;
    /** Gang clock multiplier (1.0 unless DVFS-scaled). */
    double clock = 1.0;
};

class PowerManager
{
  public:
    PowerManager(const cluster::Cluster &cluster, PowerConfig config);

    const PowerConfig &config() const { return config_; }
    const PowerModel &model() const { return model_; }
    bool dvfs() const { return config_.policy == "dvfs"; }

    /** @name Instantaneous draw (watts) */
    ///@{
    double baseline_w() const { return model_.baseline_w(); }
    double draw_w() const { return model_.baseline_w() + total_delta_w_; }
    double rack_draw_w(int rack) const;
    double pdu_draw_w(int pdu) const;
    int pdu_count() const;
    /** Highest draw ever reached (piecewise-constant, so the max over
     *  segment boundaries is the max over all instants). */
    double peak_draw_w() const { return peak_draw_w_; }
    ///@}

    /** @name Remaining budget per scope (infinity when uncapped) */
    ///@{
    double cluster_headroom_w() const;
    double rack_headroom_w(int rack) const;
    double pdu_headroom_w(int pdu) const;
    ///@}

    /**
     * Fraction of a gang's full-speed delta the admission gate must
     * reserve per start: min_clock^alpha under DVFS (the least a start
     * can be scaled down to), 1.0 under admission gating.
     */
    double commit_fraction() const;

    /**
     * Decides whether a gang at `placement` with compute `activity`
     * (full-clock compute fraction, [0,1]) may start now, and at what
     * clock. Pure; call on_segment_start to commit.
     */
    StartDecision plan_start(const cluster::Placement &placement,
                             double activity) const;

    /** Commits a started segment's draw and opens its energy meter. */
    void on_segment_start(cluster::JobId job, const std::string &group,
                          const cluster::Placement &placement,
                          double activity, double clock, TimePoint now);

    /** Releases a segment's draw (no-op for unknown jobs, so release
     *  and failure paths can call it unconditionally). */
    void on_segment_stop(cluster::JobId job, TimePoint now);

    /** Clock multiplier a node runs at: min over resident scaled
     *  segments, 1.0 when none. */
    double node_clock_of(cluster::NodeId node) const;

    /** Nodes currently running below full clock. */
    int throttled_nodes() const { return int(node_clock_.size()); }

    /** @name Energy ledger */
    ///@{
    /** Integrates draw up to `now` (idempotent; now non-decreasing). */
    void advance(TimePoint now);
    double energy_kwh() const { return energy_j_ / 3.6e6; }
    double baseline_energy_kwh() const
    {
        return baseline_energy_j_ / 3.6e6;
    }
    /** Per-group active energy; sums to energy - baseline energy. */
    std::map<std::string, double> group_energy_kwh() const;
    /** Energy a job's segments drew so far (0 if it never ran). */
    double job_energy_kwh(cluster::JobId job) const;
    /** job_energy_kwh plus ledger cleanup; call once at finalize, after
     *  the job's last segment stopped. */
    double take_job_energy_kwh(cluster::JobId job);
    ///@}

    /** @name Enforcement counters */
    ///@{
    void note_deferrals(uint64_t n) { deferrals_ += n; }
    /** Starts blocked (or vetoed by the scheduler gate) on power. */
    uint64_t deferrals() const { return deferrals_; }
    /** Segments started below full clock. */
    uint64_t dvfs_starts() const { return dvfs_starts_; }
    ///@}

  private:
    struct Segment {
        std::string group;
        double delta_w = 0; ///< total active delta at the chosen clock
        double clock = 1.0;
        /** (rack, delta watts) pairs, one per rack touched. */
        std::vector<std::pair<int, double>> rack_delta_w;
        /** Nodes the gang occupies (for the per-node clock min). */
        std::vector<cluster::NodeId> nodes;
        /** The group's and the job's ledger entries, from the segment's
         *  first accrual on (map nodes never move). */
        double *group_j = nullptr;
        double *job_j = nullptr;
    };

    /** Rebuilds every total from active_ in id order (see file docs). */
    void recompute();

    const cluster::Cluster &cluster_;
    PowerConfig config_;
    PowerModel model_;

    /** id-ordered so recomputed sums are permutation-independent. */
    std::map<cluster::JobId, Segment> active_;
    double total_delta_w_ = 0;
    std::vector<double> rack_delta_w_;
    /** Only nodes below full clock appear. */
    std::map<cluster::NodeId, double> node_clock_;

    TimePoint last_;
    double energy_j_ = 0;
    double baseline_energy_j_ = 0;
    std::map<std::string, double> group_energy_j_;
    std::map<cluster::JobId, double> job_energy_j_;

    double peak_draw_w_ = 0;
    uint64_t deferrals_ = 0;
    uint64_t dvfs_starts_ = 0;
};

} // namespace tacc::power
