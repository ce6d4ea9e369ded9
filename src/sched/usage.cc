#include "sched/usage.h"

#include <cassert>
#include <cmath>

namespace tacc::sched {

UsageTracker::UsageTracker(Duration half_life) : half_life_(half_life)
{
    assert(!half_life_.is_zero() && !half_life_.is_negative());
}

double
UsageTracker::decayed(const Entry &e, TimePoint now) const
{
    const double dt = (now - e.updated).to_seconds();
    if (dt <= 0)
        return e.value;
    return e.value * std::exp2(-dt / half_life_.to_seconds());
}

void
UsageTracker::charge(const std::string &key, double gpu_seconds,
                     TimePoint now)
{
    assert(gpu_seconds >= 0);
    auto [it, inserted] = entries_.try_emplace(key);
    Entry &entry = it->second;
    if (inserted) {
        entry.slot = uint32_t(keys_.size());
        keys_.push_back(&it->first);
    }
    entry.value = decayed(entry, now) + gpu_seconds;
    entry.updated = now;
    total_cache_valid_ = false;
}

double
UsageTracker::usage(const std::string &key, TimePoint now) const
{
    auto it = entries_.find(key);
    return it == entries_.end() ? 0.0 : decayed(it->second, now);
}

double
UsageTracker::total_usage(TimePoint now) const
{
    if (total_cache_valid_ && total_cached_at_ == now)
        return total_cached_;
    total_cached_ = for_each_usage(now, [](size_t, double) {});
    total_cached_at_ = now;
    total_cache_valid_ = true;
    return total_cached_;
}

double
UsageTracker::usage_share(const std::string &key, TimePoint now) const
{
    const double total = total_usage(now);
    if (total <= 0)
        return 0.0;
    return usage(key, now) / total;
}

void
QuotaManager::set_group_quota(const std::string &group, int max_gpus)
{
    quotas_[group] = max_gpus;
}

int
QuotaManager::quota_of(const std::string &group) const
{
    auto it = quotas_.find(group);
    return it == quotas_.end() ? default_quota_ : it->second;
}

bool
QuotaManager::would_exceed(const std::string &group, int gpus_held,
                           int request) const
{
    const int quota = quota_of(group);
    if (quota < 0)
        return false;
    return gpus_held + request > quota;
}

} // namespace tacc::sched
