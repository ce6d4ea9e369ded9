#include "core/metrics.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "core/digest.h"
#include "workload/trace.h"

namespace tacc::core {

MetricsCollector::MetricsCollector() : used_gpus_(0.0), queue_depth_(0.0) {}

void
MetricsCollector::enable_streaming(const StreamingMetricsConfig &config)
{
    assert(records_.empty() && completed_count_ == 0 &&
           "enable_streaming must precede the first signal");
    streaming_ = true;
    digest_state_ = config.digest_prefix;
    bounded_used_ = BoundedTimeWeighted(0.0, config.series_bucket);
    bounded_queue_ = BoundedTimeWeighted(0.0, config.series_bucket);
}

void
MetricsCollector::reserve_records(size_t n)
{
    if (!streaming_)
        records_.reserve(n);
}

void
MetricsCollector::on_gpus_in_use(TimePoint t, int used)
{
    if (streaming_)
        bounded_used_.set(t, double(used));
    else
        used_gpus_.set(t, double(used));
}

void
MetricsCollector::on_queue_depth(TimePoint t, int pending)
{
    if (streaming_)
        bounded_queue_.set(t, double(pending));
    else
        queue_depth_.set(t, double(pending));
}

void
MetricsCollector::on_arrival(TimePoint t)
{
    if (streaming_) {
        bounded_used_.mark(t);
        bounded_queue_.mark(t);
    }
}

uint64_t
MetricsCollector::fold_placement(uint64_t digest,
                                 const cluster::Placement &p)
{
    Fnv1a h(digest);
    h.u64(uint64_t(p.slices.size()));
    for (const auto &slice : p.slices) {
        h.u32(slice.node);
        h.u64(uint64_t(slice.gpu_indices.size()));
        for (int gpu : slice.gpu_indices)
            h.i32(gpu);
    }
    return h.value();
}

JobRecord
MetricsCollector::make_record(const workload::Job &job,
                              uint64_t placement_digest)
{
    JobRecord r;
    r.id = job.id();
    r.user = job.spec().user;
    r.group = job.spec().group;
    r.qos = job.spec().qos;
    r.final_state = job.state();
    r.submitted = job.submit_time();
    r.finished = job.terminal() ? job.finish_time() : job.submit_time();
    r.gpus = job.spec().gpus;
    r.started = job.has_started();
    r.wait_s = job.has_started() ? job.queueing_delay().to_seconds() : 0.0;
    r.jct_s = job.terminal() ? job.jct().to_seconds() : 0.0;
    r.provision_s = job.provision_latency().to_seconds();
    r.ideal_s = double(job.spec().iterations) *
                workload::estimated_iteration_s(job.model(),
                                                job.spec().gpus);
    r.gpu_seconds = job.gpu_seconds();
    r.preemptions = job.preemption_count();
    r.segments = job.segment_count();
    r.has_deadline = job.spec().has_deadline();
    r.missed_deadline = job.missed_deadline();
    // Every start folds its placement first, so a started job has one.
    r.placement_digest = job.has_started() ? placement_digest : 0;
    return r;
}

void
MetricsCollector::drain_fold()
{
    while (!reorder_.empty() && reorder_.begin()->first == next_fold_id_) {
        digest_state_ =
            fold_job_record(digest_state_, reorder_.begin()->second);
        ++folded_records_;
        reorder_.erase(reorder_.begin());
        ++next_fold_id_;
    }
}

const JobRecord &
MetricsCollector::record_job(const workload::Job &job,
                             uint64_t placement_digest)
{
    JobRecord r = make_record(job, placement_digest);
    const bool completed =
        r.final_state == workload::JobState::kCompleted;
    completed_count_ += completed;
    failed_count_ += r.final_state == workload::JobState::kFailed;
    deadline_missed_ += r.missed_deadline;
    with_deadline_ += r.has_deadline;
    total_gpu_seconds_ += r.gpu_seconds;
    total_ideal_gpu_seconds_ += r.ideal_s * double(r.gpus);
    group_gpu_seconds_[r.group] += r.gpu_seconds;
    if (completed && r.ideal_s > 0) {
        group_slowdown_sum_[r.group] += r.jct_s / r.ideal_s;
        ++group_slowdown_count_[r.group];
    }
    if (job.terminal())
        makespan_ = std::max(makespan_, job.finish_time());
    if (!streaming_) {
        records_.push_back(std::move(r));
        return records_.back();
    }

    // Streaming retention: aggregates + incremental fold, no vector.
    if (completed)
        jct_sketch_.add(r.jct_s);
    if (r.started) {
        wait_sketch_.add(r.wait_s);
        if (r.qos == workload::QosClass::kInteractive)
            interactive_wait_sketch_.add(r.wait_s);
    }
    if (completed && r.ideal_s > 0)
        slowdown_sketch_.add(r.jct_s / r.ideal_s);
    scratch_record_ = r;
    // Terminal events run ahead of the contiguous id prefix only by the
    // set of still-live smaller ids, so this buffer stays O(live jobs).
    reorder_.emplace(r.id, std::move(r));
    drain_fold();
    return scratch_record_;
}

double
MetricsCollector::arrival_window_utilization(int total_gpus) const
{
    assert(streaming_);
    if (total_gpus <= 0)
        return 0.0;
    return bounded_used_.average_to_mark() / double(total_gpus);
}

TimePoint
MetricsCollector::arrival_window_end() const
{
    assert(streaming_);
    return bounded_used_.mark_time();
}

uint64_t
MetricsCollector::finish_streaming_digest(const RunDigestCounts &counts)
{
    assert(streaming_);
    // Jobs that never reached a terminal state leave id gaps; the
    // remaining buffered records fold in id order past them.
    for (const auto &[id, record] : reorder_) {
        digest_state_ = fold_job_record(digest_state_, record);
        ++folded_records_;
    }
    reorder_.clear();
    return finish_run_digest(digest_state_, folded_records_, counts);
}

std::vector<JobRecord>
MetricsCollector::records_of(workload::QosClass qos) const
{
    std::vector<JobRecord> out;
    for (const auto &r : records_) {
        if (r.qos == qos)
            out.push_back(r);
    }
    return out;
}

Samples
MetricsCollector::jct_samples() const
{
    Samples s;
    for (const auto &r : records_) {
        if (r.final_state == workload::JobState::kCompleted)
            s.add(r.jct_s);
    }
    return s;
}

Samples
MetricsCollector::jct_samples_of(workload::QosClass qos) const
{
    Samples s;
    for (const auto &r : records_) {
        if (r.qos == qos && r.final_state == workload::JobState::kCompleted)
            s.add(r.jct_s);
    }
    return s;
}

Samples
MetricsCollector::wait_samples() const
{
    Samples s;
    for (const auto &r : records_) {
        if (r.started)
            s.add(r.wait_s);
    }
    return s;
}

Samples
MetricsCollector::wait_samples_of(workload::QosClass qos) const
{
    Samples s;
    for (const auto &r : records_) {
        if (r.qos == qos && r.started)
            s.add(r.wait_s);
    }
    return s;
}

double
MetricsCollector::mean_utilization(TimePoint t0, TimePoint t1,
                                   int total_gpus) const
{
    if (total_gpus <= 0)
        return 0.0;
    if (streaming_) {
        assert(t0 == TimePoint::origin() &&
               "streaming mode integrates from the origin only");
        return bounded_used_.average_to(t1) / double(total_gpus);
    }
    return used_gpus_.average(t0, t1) / double(total_gpus);
}

std::vector<double>
MetricsCollector::utilization_series(TimePoint t0, TimePoint t1,
                                     Duration bucket, int total_gpus) const
{
    std::vector<double> series;
    if (streaming_) {
        assert(t0 == TimePoint::origin());
        (void)bucket; // fixed at enable_streaming time
        series = bounded_used_.bucket_averages(t1);
    } else {
        series = used_gpus_.bucket_averages(t0, t1, bucket);
    }
    for (auto &v : series)
        v /= double(std::max(1, total_gpus));
    return series;
}

double
MetricsCollector::mean_queue_depth(TimePoint t0, TimePoint t1) const
{
    if (streaming_) {
        assert(t0 == TimePoint::origin());
        return bounded_queue_.average_to(t1);
    }
    return queue_depth_.average(t0, t1);
}

std::vector<double>
MetricsCollector::queue_depth_series(TimePoint t0, TimePoint t1,
                                     Duration bucket) const
{
    if (streaming_) {
        assert(t0 == TimePoint::origin());
        (void)bucket;
        return bounded_queue_.bucket_averages(t1);
    }
    return queue_depth_.bucket_averages(t0, t1, bucket);
}

Samples
MetricsCollector::slowdown_samples() const
{
    Samples s;
    for (const auto &r : records_) {
        if (r.final_state == workload::JobState::kCompleted &&
            r.ideal_s > 0) {
            s.add(r.jct_s / r.ideal_s);
        }
    }
    return s;
}

std::map<std::string, double>
MetricsCollector::gpu_seconds_by_group() const
{
    return group_gpu_seconds_;
}

std::map<std::string, double>
MetricsCollector::mean_slowdown_by_group() const
{
    std::map<std::string, double> out;
    for (const auto &[group, sum] : group_slowdown_sum_)
        out[group] = sum / double(group_slowdown_count_.at(group));
    return out;
}

double
MetricsCollector::group_fairness() const
{
    std::vector<double> xs;
    for (const auto &[group, slowdown] : mean_slowdown_by_group())
        xs.push_back(slowdown);
    return jain_fairness(xs);
}

double
MetricsCollector::deadline_miss_rate() const
{
    return with_deadline_
               ? double(deadline_missed_) / double(with_deadline_)
               : 0.0;
}

} // namespace tacc::core
