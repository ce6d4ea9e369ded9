/**
 * @file
 * Fair-share usage accounting and group quota enforcement.
 *
 * UsageTracker keeps exponentially-decayed GPU-seconds per accounting key
 * (user or group) — the Slurm fair-share "effective usage" with a
 * configurable half-life. QuotaManager caps the GPUs a group may hold at
 * once (the paper's "user quota management").
 */
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.h"

namespace tacc::sched {

/** Exponentially-decayed service accumulator per accounting key. */
class UsageTracker
{
  public:
    explicit UsageTracker(Duration half_life = Duration::hours(24));

    /** Adds gpu_seconds of service for key, observed at time now. */
    void charge(const std::string &key, double gpu_seconds, TimePoint now);

    /** Decayed usage of key as of time now (0 for unknown keys). */
    double usage(const std::string &key, TimePoint now) const;

    /**
     * Sum of decayed usage over all keys as of now. The sum for a given
     * instant is cached until the next charge, so fair-share ranking
     * (which asks for every key's share at one decision timestamp) and
     * the ops collectors stay O(keys) per timestamp instead of
     * O(keys^2); cached and uncached results are bit-identical.
     */
    double total_usage(TimePoint now) const;

    /**
     * Key's share of total decayed usage, in [0, 1]; returns 0 when no
     * usage has been recorded anywhere.
     */
    double usage_share(const std::string &key, TimePoint now) const;

    Duration half_life() const { return half_life_; }

    size_t key_count() const { return entries_.size(); }

    /**
     * Walks every key's decayed usage as of now, calling fn(slot, usage),
     * and returns their sum: the walk total_usage makes, so the sum is
     * bit-identical to it. A key's slot is its index in first-charge
     * order, stable for the tracker's lifetime (see key_at); the walk's
     * own order is the hash table's and is not.
     */
    template <typename Fn>
    double
    for_each_usage(TimePoint now, Fn &&fn) const
    {
        double total = 0;
        for (const auto &[key, entry] : entries_) {
            const double used = decayed(entry, now);
            total += used;
            fn(size_t(entry.slot), used);
        }
        return total;
    }

    /** Key of a slot (< key_count()). */
    const std::string &key_at(size_t slot) const { return *keys_[slot]; }

  private:
    struct Entry {
        double value = 0;
        TimePoint updated;
        uint32_t slot = 0;
    };

    double decayed(const Entry &e, TimePoint now) const;

    Duration half_life_;
    std::unordered_map<std::string, Entry> entries_;
    /** Keys by slot; the map's nodes never move, so neither do these. */
    std::vector<const std::string *> keys_;
    /** Memoized total_usage(now); invalidated by charge(). */
    mutable TimePoint total_cached_at_;
    mutable double total_cached_ = 0;
    mutable bool total_cache_valid_ = false;
};

/** Per-group concurrent GPU caps. */
class QuotaManager
{
  public:
    QuotaManager() = default;

    /** Sets the cap for one group (replaces any previous value). */
    void set_group_quota(const std::string &group, int max_gpus);

    /** Cap applied to groups without an explicit entry (<0 = unlimited). */
    void set_default_quota(int max_gpus) { default_quota_ = max_gpus; }

    int quota_of(const std::string &group) const;

    /** True if granting `request` more GPUs would push the group over. */
    bool would_exceed(const std::string &group, int gpus_held,
                      int request) const;

  private:
    std::unordered_map<std::string, int> quotas_;
    int default_quota_ = -1;
};

} // namespace tacc::sched
