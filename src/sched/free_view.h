/**
 * @file
 * Trial-allocation view of cluster free capacity.
 *
 * Schedulers plan several starts (and preemptions) per decision without
 * touching the real cluster; FreeView is the cheap scratch copy of per-node
 * free GPU counts they plan against.
 *
 * Beyond the raw per-node counts, the view keeps an incremental bucket
 * index: a bitmap of nodes per free count, suffix counts of nodes with at
 * least k free GPUs, and per-rack free totals. take()/give() update the
 * index in O(slice GPUs); in exchange fits_single_node() is O(1) and
 * tightest_single_node() / nodes_fullest_first() avoid the O(nodes) scans
 * and sorts the placement policies otherwise repeat for every candidate
 * job. The index is pure acceleration: every query returns exactly what
 * the straightforward linear scan over free() would (the property tests
 * pin this down).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/types.h"

namespace tacc::sched {

/** Mutable, index-accelerated snapshot of free GPUs per node. */
class FreeView
{
  public:
    /** Empty view; reset() must run before any query. */
    FreeView() = default;
    explicit FreeView(const cluster::Cluster &cluster);

    /**
     * Re-snapshots the cluster, reusing this view's storage. Nodes that
     * are not schedulable per the cluster's health tracker (cordoned,
     * draining, down, repairing) are masked: their free count snapshots
     * as 0 and take()/give() ignore slices on them, so neither a planned
     * start nor a planned preemption victim can expose their capacity.
     */
    void reset(const cluster::Cluster &cluster);

    /**
     * Brings the health mask up to date with the cluster's tracker,
     * touching only nodes whose schedulability changed: a newly masked
     * node drops to 0 free, a newly usable one takes the cluster's free
     * count. A view kept current by take()/give() of every allocation
     * and release then equals a fresh reset() of the cluster.
     */
    void sync_health(const cluster::Cluster &cluster);

    /** Same per-node state, mask and index (a fresh reset() of the same
     *  cluster compares equal to a view kept current by deltas). */
    bool operator==(const FreeView &) const = default;

    int free(cluster::NodeId node) const { return free_[node]; }

    /** False when the node is health-masked out of this view. */
    bool
    schedulable(cluster::NodeId node) const
    {
        return !masked_ || schedulable_[size_t(node)] != 0;
    }
    int total_free() const { return total_free_; }
    int node_count() const { return int(free_.size()); }
    /** GPU capacity of one node (racks may differ in hardware). */
    int node_capacity(cluster::NodeId node) const
    {
        return capacity_[node];
    }
    /** Largest per-node capacity in the cluster. */
    int max_node_capacity() const { return max_capacity_; }

    /** Removes a placement's GPUs from the view. */
    void take(const cluster::Placement &placement);

    /** Returns a placement's GPUs to the view (e.g. a planned victim). */
    void give(const cluster::Placement &placement);

    /** True if some single node has at least n free GPUs. O(1). */
    bool
    fits_single_node(int n) const
    {
        if (n <= 0)
            return !free_.empty();
        return n <= max_capacity_ && count_ge_[size_t(n)] > 0;
    }

    /** True if every slice of the placement still fits in the view. */
    bool fits(const cluster::Placement &placement) const;

    /**
     * Tightest single node able to host the whole gang: smallest free
     * count >= gpus, lowest node id on ties (the order a forward linear
     * scan would pick). Nodes outside the eligibility mask are skipped.
     * @return kInvalidNode if none (or if gpus > per_node_limit).
     */
    cluster::NodeId
    tightest_single_node(int gpus, int per_node_limit,
                         const std::vector<uint8_t> *eligible = nullptr)
        const;

    /**
     * Fills `out` with every node holding free GPUs, ordered (free desc,
     * node id asc) — the stable fullest-first order greedy fills use.
     * Fully-busy nodes are omitted; a fill can never take from them.
     */
    void nodes_fullest_first(std::vector<cluster::NodeId> &out) const;

    int rack_count() const { return int(rack_free_.size()); }
    /** Free GPUs summed over the rack's nodes. */
    int rack_free(int rack) const { return rack_free_[size_t(rack)]; }
    int rack_of(cluster::NodeId node) const
    {
        return int(node) / nodes_per_rack_;
    }
    int nodes_per_rack() const { return nodes_per_rack_; }

  private:
    /** Moves a node between free-count buckets, keeping every aggregate
     *  (bitmaps, suffix counts, rack totals) consistent. */
    void move_bucket(cluster::NodeId node, int from, int to);

    std::vector<int> free_;
    std::vector<int> capacity_;
    /** Health mask, one entry per node; masked_ is true when any is 0. */
    std::vector<uint8_t> schedulable_;
    bool masked_ = false;
    int total_free_ = 0;
    int max_capacity_ = 0;
    int nodes_per_rack_ = 1;

    /** @name Bucket index (see file header). */
    ///@{
    size_t bucket_words_ = 0; ///< 64-bit words per free-count bitmap
    /** Bitmap of nodes with exactly f free GPUs, at [f * bucket_words_). */
    std::vector<uint64_t> bits_;
    std::vector<int> bucket_count_; ///< nodes with exactly f free
    std::vector<int> count_ge_;     ///< nodes with at least f free
    std::vector<int> rack_free_;
    ///@}
};

} // namespace tacc::sched
