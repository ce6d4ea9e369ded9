/**
 * @file
 * The Cluster: node inventory + topology + allocation bookkeeping.
 *
 * The cluster is pure mechanism: it validates and applies placements that
 * the scheduling layer computed, tracks which job holds which GPUs, and
 * exposes occupancy/fragmentation metrics. It never decides anything.
 */
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/health.h"
#include "cluster/node.h"
#include "cluster/topology.h"
#include "cluster/types.h"
#include "common/status.h"

namespace tacc::cluster {

/**
 * Everything needed to build a cluster. By default all racks share one
 * NodeSpec; campus clusters are usually bought in generations, so
 * rack_node_overrides swaps whole racks to different hardware (older
 * GPUs, fewer devices, slower NICs).
 */
struct ClusterConfig {
    std::string name = "tacc";
    TopologyConfig topology;
    NodeSpec node;
    /** rack index -> hardware for that rack (others use `node`). */
    std::map<int, NodeSpec> rack_node_overrides;

    ClusterConfig()
    {
        // Keep the per-node NIC/NVLink numbers and the topology's in sync
        // by default; callers overriding one should override both.
        node.nic_gbps = topology.nic_gbps;
        node.nvlink_gbps = topology.nvlink_gbps;
    }

    /** Total GPUs, accounting for per-rack overrides. */
    int
    total_gpus() const
    {
        int total = 0;
        for (int r = 0; r < topology.racks; ++r) {
            auto it = rack_node_overrides.find(r);
            const NodeSpec &spec =
                it != rack_node_overrides.end() ? it->second : node;
            total += topology.nodes_per_rack * spec.gpu_count;
        }
        return total;
    }
};

/** Cluster-wide occupancy snapshot. */
struct OccupancySnapshot {
    int total_gpus = 0;
    int used_gpus = 0;
    int idle_nodes = 0;
    int full_nodes = 0;
    int partial_nodes = 0;
    /**
     * Fragmentation: fraction of free GPUs stranded on partially-occupied
     * nodes (free GPUs that cannot serve a whole-node request).
     */
    double fragmentation = 0.0;
    /** Largest single-node free block, in GPUs. */
    int largest_free_block = 0;

    double
    utilization() const
    {
        return total_gpus ? double(used_gpus) / double(total_gpus) : 0.0;
    }
};

/** A homogeneous GPU cluster with per-GPU allocation state. */
class Cluster
{
  public:
    explicit Cluster(ClusterConfig config);

    const ClusterConfig &config() const { return config_; }
    const std::string &name() const { return config_.name; }
    const Topology &topology() const { return topology_; }

    int node_count() const { return int(nodes_.size()); }
    int total_gpus() const { return total_gpus_; }
    /** Largest per-node GPU count across (possibly heterogeneous) racks. */
    int max_gpus_per_node() const { return max_gpus_per_node_; }
    /** Distinct GPU models present, sorted. */
    std::vector<std::string> gpu_models() const;
    /**
     * Per-node eligibility for a GPU model requirement: 1 where the node
     * carries that model. An empty model matches every node.
     */
    std::vector<uint8_t> eligible_mask(const std::string &gpu_model) const;
    int free_gpus() const { return free_gpus_; }
    int used_gpus() const { return total_gpus_ - free_gpus_; }

    const Node &node(NodeId id) const;
    Node &node(NodeId id);
    const std::vector<Node> &nodes() const { return nodes_; }

    /** Per-node health, shared by scheduler / injector / operator verbs. */
    const NodeHealthTracker &health() const { return health_; }
    NodeHealthTracker &health() { return health_; }

    /** Free GPUs on schedulable (Healthy/Degraded) nodes only. */
    int schedulable_free_gpus() const;
    /** Total GPUs on schedulable nodes (capacity net of outages). */
    int schedulable_total_gpus() const;

    /**
     * Applies a placement atomically: either every slice is granted or
     * nothing is. Slices must name distinct nodes.
     * @param granted if set, receives the GPU indices actually granted
     *        (what placement_of() returns from now on).
     * @return invalid_argument / resource_exhausted on failure.
     */
    Status allocate(JobId job, const Placement &placement,
                    Placement *granted = nullptr);

    /**
     * Releases all GPUs held by the job across the cluster.
     * @return number of GPUs freed (0 if the job held nothing).
     */
    int release(JobId job);

    /** The placement currently held by a job (empty if none). */
    Placement placement_of(JobId job) const;

    bool has_job(JobId job) const { return holdings_.contains(job); }

    /** Jobs currently holding GPUs anywhere. */
    std::vector<JobId> running_jobs() const;

    OccupancySnapshot occupancy() const;

  private:
    ClusterConfig config_;
    Topology topology_;
    std::vector<Node> nodes_;
    int total_gpus_ = 0;
    int max_gpus_per_node_ = 0;
    int free_gpus_ = 0;
    NodeHealthTracker health_;
    std::unordered_map<JobId, Placement> holdings_;
};

} // namespace tacc::cluster
