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
        unhealthy_ += (slot == NodeHealth::kHealthy ? 1 : 0) -
                      (next == NodeHealth::kHealthy ? 1 : 0);
        slot = next;
        ++version_;
    }
    return ++epochs_[size_t(id)];
}

int
NodeHealthTracker::count(NodeHealth state) const
{
    int n = 0;
    for (NodeHealth s : states_)
        n += s == state ? 1 : 0;
    return n;
}

int
NodeHealthTracker::schedulable_count() const
{
    int n = 0;
    for (size_t i = 0; i < states_.size(); ++i)
        n += schedulable(NodeId(i)) ? 1 : 0;
    return n;
}

} // namespace tacc::cluster
