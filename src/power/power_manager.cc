#include "power/power_manager.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace tacc::power {

namespace {

constexpr double kUncapped = std::numeric_limits<double>::infinity();

/** Accumulates (key, watts) pairs without heap churn for small gangs. */
void
add_to(std::vector<std::pair<int, double>> &scoped, int key, double watts)
{
    for (auto &[k, w] : scoped) {
        if (k == key) {
            w += watts;
            return;
        }
    }
    scoped.emplace_back(key, watts);
}

} // namespace

PowerManager::PowerManager(const cluster::Cluster &cluster,
                           PowerConfig config)
    : cluster_(cluster),
      config_(std::move(config)),
      model_(cluster, config_)
{
    rack_delta_w_.assign(size_t(model_.rack_count()), 0.0);
    last_ = TimePoint::origin();
    peak_draw_w_ = model_.baseline_w();
}

double
PowerManager::rack_draw_w(int rack) const
{
    if (rack < 0 || size_t(rack) >= rack_delta_w_.size())
        return 0.0;
    return model_.rack_baseline_w(rack) + rack_delta_w_[size_t(rack)];
}

int
PowerManager::pdu_count() const
{
    const int per = std::max(1, config_.racks_per_pdu);
    return (model_.rack_count() + per - 1) / per;
}

double
PowerManager::pdu_draw_w(int pdu) const
{
    const int per = std::max(1, config_.racks_per_pdu);
    double draw = 0;
    for (int rack = pdu * per;
         rack < std::min((pdu + 1) * per, model_.rack_count()); ++rack) {
        draw += rack_draw_w(rack);
    }
    return draw;
}

double
PowerManager::cluster_headroom_w() const
{
    return config_.cluster_cap_w > 0 ? config_.cluster_cap_w - draw_w()
                                     : kUncapped;
}

double
PowerManager::rack_headroom_w(int rack) const
{
    return config_.rack_cap_w > 0 ? config_.rack_cap_w - rack_draw_w(rack)
                                  : kUncapped;
}

double
PowerManager::pdu_headroom_w(int pdu) const
{
    return config_.pdu_cap_w > 0 ? config_.pdu_cap_w - pdu_draw_w(pdu)
                                 : kUncapped;
}

double
PowerManager::commit_fraction() const
{
    if (!dvfs())
        return 1.0;
    return std::pow(std::clamp(config_.min_clock, 0.0, 1.0),
                    config_.dvfs_exponent);
}

StartDecision
PowerManager::plan_start(const cluster::Placement &placement,
                         double activity) const
{
    StartDecision out;
    // Full-speed delta the gang would add, per scope it touches.
    double total_w = 0;
    std::vector<std::pair<int, double>> rack_w;
    for (const auto &slice : placement.slices) {
        const auto &node = cluster_.node(slice.node);
        const double w = model_.gpu_delta_w(node.spec().gpu.model) *
                         activity * double(slice.gpu_indices.size());
        total_w += w;
        add_to(rack_w, node.rack(), w);
    }
    if (total_w <= 0)
        return out;

    // Tightest scope decides: ratio < 1 means full speed does not fit.
    double ratio = kUncapped;
    if (config_.cluster_cap_w > 0)
        ratio = std::min(ratio, cluster_headroom_w() / total_w);
    if (config_.rack_cap_w > 0) {
        for (const auto &[rack, w] : rack_w)
            ratio = std::min(ratio, rack_headroom_w(rack) / w);
    }
    if (config_.pdu_cap_w > 0) {
        const int per = std::max(1, config_.racks_per_pdu);
        std::vector<std::pair<int, double>> pdu_w;
        for (const auto &[rack, w] : rack_w)
            add_to(pdu_w, rack / per, w);
        for (const auto &[pdu, w] : pdu_w)
            ratio = std::min(ratio, pdu_headroom_w(pdu) / w);
    }
    if (ratio >= 1.0)
        return out; // fits at full speed under every budget

    if (!dvfs()) {
        out.admit = false;
        return out;
    }
    if (ratio <= 0.0) {
        out.admit = false;
        out.clock = 0.0;
        return out;
    }
    // delta scales with clock^alpha, so the clock that exactly fills
    // the tightest headroom is ratio^(1/alpha).
    const double clock = std::pow(ratio, 1.0 / config_.dvfs_exponent);
    if (clock < config_.min_clock) {
        out.admit = false;
        out.clock = clock;
        return out;
    }
    out.clock = clock;
    return out;
}

void
PowerManager::on_segment_start(cluster::JobId job,
                               const std::string &group,
                               const cluster::Placement &placement,
                               double activity, double clock,
                               TimePoint now)
{
    advance(now);
    Segment seg;
    seg.group = group;
    seg.clock = clock;
    // Guarded so a full-speed start never rounds through pow().
    const double clock_factor =
        clock < 1.0 ? std::pow(clock, config_.dvfs_exponent) : 1.0;
    for (const auto &slice : placement.slices) {
        const auto &node = cluster_.node(slice.node);
        const double w = model_.gpu_delta_w(node.spec().gpu.model) *
                         activity * clock_factor *
                         double(slice.gpu_indices.size());
        seg.delta_w += w;
        add_to(seg.rack_delta_w, node.rack(), w);
        seg.nodes.push_back(slice.node);
    }
    active_[job] = std::move(seg);
    recompute();
    peak_draw_w_ = std::max(peak_draw_w_, draw_w());
    if (clock < 1.0)
        ++dvfs_starts_;
}

void
PowerManager::on_segment_stop(cluster::JobId job, TimePoint now)
{
    auto it = active_.find(job);
    if (it == active_.end())
        return; // never started under power tracking (or double stop)
    advance(now);
    active_.erase(it);
    recompute();
}

void
PowerManager::recompute()
{
    total_delta_w_ = 0;
    std::fill(rack_delta_w_.begin(), rack_delta_w_.end(), 0.0);
    node_clock_.clear();
    for (const auto &[id, seg] : active_) {
        total_delta_w_ += seg.delta_w;
        for (const auto &[rack, w] : seg.rack_delta_w) {
            if (rack >= 0 && size_t(rack) < rack_delta_w_.size())
                rack_delta_w_[size_t(rack)] += w;
        }
        if (seg.clock < 1.0) {
            for (cluster::NodeId node : seg.nodes) {
                auto it = node_clock_.find(node);
                if (it == node_clock_.end() || seg.clock < it->second)
                    node_clock_[node] = seg.clock;
            }
        }
    }
}

double
PowerManager::node_clock_of(cluster::NodeId node) const
{
    auto it = node_clock_.find(node);
    return it == node_clock_.end() ? 1.0 : it->second;
}

void
PowerManager::advance(TimePoint now)
{
    const double dt = (now - last_).to_seconds();
    if (dt > 0) {
        energy_j_ += draw_w() * dt;
        baseline_energy_j_ += model_.baseline_w() * dt;
        for (auto &[id, seg] : active_) {
            if (!seg.job_j) {
                seg.group_j = &group_energy_j_[seg.group];
                seg.job_j = &job_energy_j_[id];
            }
            const double e = seg.delta_w * dt;
            *seg.group_j += e;
            *seg.job_j += e;
        }
        last_ = now;
    } else if (now > last_) {
        last_ = now;
    }
}

std::map<std::string, double>
PowerManager::group_energy_kwh() const
{
    std::map<std::string, double> out;
    for (const auto &[group, joules] : group_energy_j_)
        out[group] = joules / 3.6e6;
    return out;
}

double
PowerManager::job_energy_kwh(cluster::JobId job) const
{
    auto it = job_energy_j_.find(job);
    return it == job_energy_j_.end() ? 0.0 : it->second / 3.6e6;
}

double
PowerManager::take_job_energy_kwh(cluster::JobId job)
{
    // An active segment holds a pointer to the entry erased below.
    assert(!active_.contains(job));
    auto it = job_energy_j_.find(job);
    if (it == job_energy_j_.end())
        return 0.0;
    const double kwh = it->second / 3.6e6;
    job_energy_j_.erase(it);
    return kwh;
}

} // namespace tacc::power
