#include "sched/free_view.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tacc::sched {

FreeView::FreeView(const cluster::Cluster &cluster)
{
    reset(cluster);
}

void
FreeView::reset(const cluster::Cluster &cluster)
{
    const size_t n = size_t(cluster.node_count());
    const auto &health = cluster.health();
    free_.clear();
    capacity_.clear();
    schedulable_.clear();
    free_.reserve(n);
    capacity_.reserve(n);
    schedulable_.reserve(n);
    masked_ = false;
    total_free_ = 0;
    for (const auto &node : cluster.nodes()) {
        const bool usable = health.schedulable(node.id());
        masked_ |= !usable;
        schedulable_.push_back(usable ? 1 : 0);
        free_.push_back(usable ? node.free_gpu_count() : 0);
        capacity_.push_back(node.gpu_count());
        total_free_ += free_.back();
    }
    max_capacity_ = cluster.max_gpus_per_node();
    nodes_per_rack_ = cluster.topology().config().nodes_per_rack;

    bucket_words_ = (n + 63) / 64;
    bits_.assign(size_t(max_capacity_ + 1) * bucket_words_, 0);
    bucket_count_.assign(size_t(max_capacity_ + 1), 0);
    count_ge_.assign(size_t(max_capacity_ + 1), 0);
    rack_free_.assign(size_t(cluster.topology().racks()), 0);
    for (size_t i = 0; i < n; ++i) {
        const int f = free_[i];
        assert(f >= 0 && f <= max_capacity_);
        bits_[size_t(f) * bucket_words_ + i / 64] |= uint64_t(1)
                                                     << (i % 64);
        ++bucket_count_[size_t(f)];
        rack_free_[size_t(int(i) / nodes_per_rack_)] += f;
    }
    int running = 0;
    for (int f = max_capacity_; f >= 0; --f) {
        running += bucket_count_[size_t(f)];
        count_ge_[size_t(f)] = running;
    }
}

void
FreeView::sync_health(const cluster::Cluster &cluster)
{
    const auto &health = cluster.health();
    masked_ = false;
    for (size_t i = 0; i < free_.size(); ++i) {
        const auto node = cluster::NodeId(i);
        const uint8_t usable = health.schedulable(node) ? 1 : 0;
        if (usable != schedulable_[i]) {
            const int f = free_[i];
            const int to = usable ? cluster.node(node).free_gpu_count() : 0;
            free_[i] = to;
            total_free_ += to - f;
            move_bucket(node, f, to);
            schedulable_[i] = usable;
        }
        masked_ |= !usable;
    }
}

void
FreeView::move_bucket(cluster::NodeId node, int from, int to)
{
    const size_t word = size_t(node) / 64;
    const uint64_t bit = uint64_t(1) << (size_t(node) % 64);
    bits_[size_t(from) * bucket_words_ + word] &= ~bit;
    bits_[size_t(to) * bucket_words_ + word] |= bit;
    --bucket_count_[size_t(from)];
    ++bucket_count_[size_t(to)];
    if (to > from) {
        for (int f = from + 1; f <= to; ++f)
            ++count_ge_[size_t(f)];
    } else {
        for (int f = to + 1; f <= from; ++f)
            --count_ge_[size_t(f)];
    }
    rack_free_[size_t(rack_of(node))] += to - from;
}

void
FreeView::take(const cluster::Placement &placement)
{
    for (const auto &slice : placement.slices) {
        assert(size_t(slice.node) < free_.size());
        if (masked_ && !schedulable_[size_t(slice.node)])
            continue;
        const int n = int(slice.gpu_indices.size());
        if (n == 0)
            continue;
        const int f = free_[slice.node];
        assert(f >= n);
        free_[slice.node] = f - n;
        total_free_ -= n;
        move_bucket(slice.node, f, f - n);
    }
}

void
FreeView::give(const cluster::Placement &placement)
{
    for (const auto &slice : placement.slices) {
        assert(size_t(slice.node) < free_.size());
        if (masked_ && !schedulable_[size_t(slice.node)])
            continue;
        const int n = int(slice.gpu_indices.size());
        if (n == 0)
            continue;
        const int f = free_[slice.node];
        assert(f + n <= capacity_[slice.node]);
        free_[slice.node] = f + n;
        total_free_ += n;
        move_bucket(slice.node, f, f + n);
    }
}

bool
FreeView::fits(const cluster::Placement &placement) const
{
    for (const auto &slice : placement.slices) {
        assert(size_t(slice.node) < free_.size());
        if (free_[slice.node] < int(slice.gpu_indices.size()))
            return false;
    }
    return true;
}

cluster::NodeId
FreeView::tightest_single_node(int gpus, int per_node_limit,
                               const std::vector<uint8_t> *eligible) const
{
    if (gpus > per_node_limit)
        return cluster::kInvalidNode;
    if (eligible) {
        // Eligibility masks (explicit GPU-model requirements) are rare;
        // the straightforward scan keeps the mask handling obvious.
        cluster::NodeId best = cluster::kInvalidNode;
        int best_free = INT32_MAX;
        for (cluster::NodeId n = 0; n < cluster::NodeId(free_.size());
             ++n) {
            if (!(*eligible)[n])
                continue;
            const int f = free_[n];
            if (f >= gpus && f < best_free) {
                best = n;
                best_free = f;
            }
        }
        return best;
    }
    for (int f = std::max(gpus, 0); f <= max_capacity_; ++f) {
        if (bucket_count_[size_t(f)] == 0)
            continue;
        const uint64_t *words = &bits_[size_t(f) * bucket_words_];
        for (size_t w = 0; w < bucket_words_; ++w) {
            if (words[w]) {
                return cluster::NodeId(w * 64 +
                                       size_t(std::countr_zero(words[w])));
            }
        }
    }
    return cluster::kInvalidNode;
}

void
FreeView::nodes_fullest_first(std::vector<cluster::NodeId> &out) const
{
    out.clear();
    if (max_capacity_ >= 1)
        out.reserve(size_t(count_ge_[1]));
    for (int f = max_capacity_; f >= 1; --f) {
        if (bucket_count_[size_t(f)] == 0)
            continue;
        const uint64_t *words = &bits_[size_t(f) * bucket_words_];
        for (size_t w = 0; w < bucket_words_; ++w) {
            uint64_t word = words[w];
            while (word) {
                out.push_back(cluster::NodeId(
                    w * 64 + size_t(std::countr_zero(word))));
                word &= word - 1;
            }
        }
    }
}

} // namespace tacc::sched
