#include "cluster/cluster.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "common/strings.h"

namespace tacc::cluster {

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)), topology_(config_.topology)
{
    const int n = config_.topology.total_nodes();
    nodes_.reserve(size_t(n));
    for (int i = 0; i < n; ++i) {
        const int rack = i / config_.topology.nodes_per_rack;
        const auto override_it = config_.rack_node_overrides.find(rack);
        const NodeSpec &spec =
            override_it != config_.rack_node_overrides.end()
                ? override_it->second
                : config_.node;
        nodes_.emplace_back(NodeId(i),
                            strfmt("%s-r%02d-n%02d", config_.name.c_str(),
                                   rack, i % config_.topology.nodes_per_rack),
                            rack, spec);
        total_gpus_ += spec.gpu_count;
        max_gpus_per_node_ = std::max(max_gpus_per_node_, spec.gpu_count);
    }
    free_gpus_ = total_gpus_;
    health_ = NodeHealthTracker(n);
}

int
Cluster::schedulable_free_gpus() const
{
    if (health_.all_healthy())
        return free_gpus_;
    int free = 0;
    for (const auto &n : nodes_)
        if (health_.schedulable(n.id()))
            free += n.free_gpu_count();
    return free;
}

int
Cluster::schedulable_total_gpus() const
{
    if (health_.all_healthy())
        return total_gpus_;
    int total = 0;
    for (const auto &n : nodes_)
        if (health_.schedulable(n.id()))
            total += n.gpu_count();
    return total;
}

const Node &
Cluster::node(NodeId id) const
{
    assert(size_t(id) < nodes_.size());
    return nodes_[id];
}

Node &
Cluster::node(NodeId id)
{
    assert(size_t(id) < nodes_.size());
    return nodes_[id];
}

Status
Cluster::allocate(JobId job, const Placement &placement,
                  Placement *granted_out)
{
    if (job == kInvalidJob)
        return Status::invalid_argument("invalid job id");
    if (placement.empty() || placement.total_gpus() == 0)
        return Status::invalid_argument("empty placement");
    if (holdings_.contains(job)) {
        return Status::already_exists(
            strfmt("job %llu already holds GPUs", (unsigned long long)job));
    }

    // Validate before mutating so failure leaves no residue.
    std::unordered_set<NodeId> seen;
    for (const auto &slice : placement.slices) {
        if (size_t(slice.node) >= nodes_.size())
            return Status::invalid_argument("placement names unknown node");
        if (!seen.insert(slice.node).second)
            return Status::invalid_argument("duplicate node in placement");
        if (slice.gpu_indices.empty())
            return Status::invalid_argument("empty slice in placement");
        if (int(slice.gpu_indices.size()) >
            nodes_[slice.node].free_gpu_count()) {
            return Status::resource_exhausted(
                strfmt("%s has %d free GPUs, slice needs %zu",
                       nodes_[slice.node].name().c_str(),
                       nodes_[slice.node].free_gpu_count(),
                       slice.gpu_indices.size()));
        }
    }

    Placement granted;
    for (const auto &slice : placement.slices) {
        auto result =
            nodes_[slice.node].allocate(job, int(slice.gpu_indices.size()));
        assert(result.is_ok());
        granted.slices.push_back(
            PlacementSlice{slice.node, result.value()});
    }
    free_gpus_ -= granted.total_gpus();
    if (granted_out)
        *granted_out = granted;
    holdings_.emplace(job, std::move(granted));
    return Status::ok();
}

int
Cluster::release(JobId job)
{
    auto it = holdings_.find(job);
    if (it == holdings_.end())
        return 0;
    int freed = 0;
    for (const auto &slice : it->second.slices)
        freed += nodes_[slice.node].release(job);
    free_gpus_ += freed;
    holdings_.erase(it);
    return freed;
}

Placement
Cluster::placement_of(JobId job) const
{
    auto it = holdings_.find(job);
    return it == holdings_.end() ? Placement{} : it->second;
}

std::vector<JobId>
Cluster::running_jobs() const
{
    std::vector<JobId> out;
    out.reserve(holdings_.size());
    for (const auto &[job, placement] : holdings_)
        out.push_back(job);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::string>
Cluster::gpu_models() const
{
    std::vector<std::string> out;
    for (const auto &n : nodes_) {
        if (std::find(out.begin(), out.end(), n.spec().gpu.model) ==
            out.end()) {
            out.push_back(n.spec().gpu.model);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<uint8_t>
Cluster::eligible_mask(const std::string &gpu_model) const
{
    std::vector<uint8_t> mask(nodes_.size(), 1);
    if (gpu_model.empty())
        return mask;
    for (size_t i = 0; i < nodes_.size(); ++i)
        mask[i] = nodes_[i].spec().gpu.model == gpu_model ? 1 : 0;
    return mask;
}

OccupancySnapshot
Cluster::occupancy() const
{
    OccupancySnapshot snap;
    snap.total_gpus = total_gpus_;
    snap.used_gpus = used_gpus();
    int stranded_free = 0;
    for (const auto &n : nodes_) {
        if (n.is_idle()) {
            ++snap.idle_nodes;
        } else if (n.is_full()) {
            ++snap.full_nodes;
        } else {
            ++snap.partial_nodes;
            stranded_free += n.free_gpu_count();
        }
        snap.largest_free_block =
            std::max(snap.largest_free_block, n.free_gpu_count());
    }
    snap.fragmentation =
        free_gpus_ ? double(stranded_free) / double(free_gpus_) : 0.0;
    return snap;
}

} // namespace tacc::cluster
