#include "cluster/health.h"

#include <cassert>

namespace tacc::cluster {

const char *
health_name(NodeHealth state)
{
    switch (state) {
    case NodeHealth::kHealthy: return "healthy";
    case NodeHealth::kDegraded: return "degraded";
    case NodeHealth::kCordoned: return "cordoned";
    case NodeHealth::kDraining: return "draining";
    case NodeHealth::kDown: return "down";
    case NodeHealth::kRepairing: return "repairing";
    }
    return "?";
}

uint64_t
NodeHealthTracker::set_state(NodeId id, NodeHealth next)
{
    assert(size_t(id) < states_.size());
    NodeHealth &slot = states_[size_t(id)];
    if (slot != next) {
        --counts_[size_t(slot)];
        ++counts_[size_t(next)];
        slot = next;
        ++version_;
    }
    return ++epochs_[size_t(id)];
}

} // namespace tacc::cluster
