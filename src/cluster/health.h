/**
 * @file
 * Per-node health state machine.
 *
 * Every node carries a health state that the scheduler, the fault
 * injector, and the operator tooling all agree on:
 *
 *   Healthy ──degrade──> Degraded ──fault──> Down
 *      │                    │                 │
 *      │ cordon             │ cordon          │ detect
 *      v                    v                 v
 *   Cordoned ──drain──> Draining ──empty──> Repairing ──repair──> Healthy
 *
 * Healthy and Degraded nodes are schedulable (Degraded merely raises the
 * per-segment fault rate); Cordoned/Draining/Down/Repairing nodes are
 * masked out of the FreeView so no new gang lands on them. The tracker
 * itself is pure bookkeeping — transitions are driven by the FaultInjector
 * (timed crashes, outages, repairs) and by operator verbs (cordon/drain/
 * uncordon); it never schedules events on its own.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cluster/types.h"

namespace tacc::cluster {

enum class NodeHealth : uint8_t {
    kHealthy = 0,
    kDegraded,  ///< up, but faulting at an elevated rate
    kCordoned,  ///< operator hold: running gangs keep going, no new work
    kDraining,  ///< evacuating residents before maintenance
    kDown,      ///< crashed or lost to a fault-domain outage
    kRepairing, ///< repair crew on it; comes back Healthy
};

const char *health_name(NodeHealth state);

/** Health bookkeeping for a fixed node inventory. */
class NodeHealthTracker
{
  public:
    NodeHealthTracker() = default;
    explicit NodeHealthTracker(int node_count)
        : states_(size_t(node_count), NodeHealth::kHealthy),
          epochs_(size_t(node_count), 0)
    {
        counts_[size_t(NodeHealth::kHealthy)] = node_count;
    }

    int node_count() const { return int(states_.size()); }

    NodeHealth state(NodeId id) const { return states_[size_t(id)]; }

    /** True while the scheduler may place new work on the node. */
    bool
    schedulable(NodeId id) const
    {
        const NodeHealth s = states_[size_t(id)];
        return s == NodeHealth::kHealthy || s == NodeHealth::kDegraded;
    }

    /** True when every node is Healthy (fast path: skip all masking). */
    bool
    all_healthy() const
    {
        return count(NodeHealth::kHealthy) == node_count();
    }

    /**
     * Moves a node to a new state. Bumps the node's epoch so stale
     * timer callbacks (e.g. a repair scheduled before a second outage
     * extended the downtime) can detect they are out of date.
     * @return the node's new epoch.
     */
    uint64_t set_state(NodeId id, NodeHealth next);

    /** Epoch counter for stale-callback detection. */
    uint64_t epoch(NodeId id) const { return epochs_[size_t(id)]; }

    /** Bumped by every state change: views derived from the states
     *  (the scheduler's free-view mask) resync when it moves. */
    uint64_t version() const { return version_; }

    /** Nodes in a state; kept by set_state, O(1). */
    int count(NodeHealth state) const { return counts_[size_t(state)]; }

    int
    schedulable_count() const
    {
        return count(NodeHealth::kHealthy) + count(NodeHealth::kDegraded);
    }

  private:
    std::vector<NodeHealth> states_;
    std::vector<uint64_t> epochs_;
    std::array<int, 6> counts_{}; ///< nodes per state, by enum value
    uint64_t version_ = 0;
};

} // namespace tacc::cluster
