#include "sim/simulator.h"

#include <algorithm>
#include <cassert>

namespace tacc::sim {

bool
Simulator::is_live(EventId id) const
{
    const uint32_t slot = slot_of(id);
    return slot < slots_.size() &&
           slots_[slot].generation == generation_of(id);
}

uint32_t
Simulator::acquire_slot()
{
    if (!free_.empty()) {
        const uint32_t slot = free_.back();
        free_.pop_back();
        return slot;
    }
    slots_.emplace_back();
    return uint32_t(slots_.size() - 1);
}

void
Simulator::release_slot(uint32_t slot)
{
    Slot &s = slots_[slot];
    ++s.generation; // invalidates every outstanding id for this slot
    s.fn = nullptr;
    s.label = nullptr;
    free_.push_back(slot);
}

void
Simulator::heap_sift_up(size_t i) const
{
    const QueueEntry entry = heap_[i];
    while (i > 0) {
        const size_t parent = (i - 1) >> 2;
        if (!fires_before(entry, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = entry;
}

void
Simulator::heap_sift_down(size_t i) const
{
    const size_t n = heap_.size();
    const QueueEntry entry = heap_[i];
    for (;;) {
        const size_t first_child = (i << 2) + 1;
        if (first_child >= n)
            break;
        size_t best = first_child;
        const size_t end = std::min(first_child + 4, n);
        for (size_t c = first_child + 1; c < end; ++c) {
            if (fires_before(heap_[c], heap_[best]))
                best = c;
        }
        if (!fires_before(heap_[best], entry))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = entry;
}

void
Simulator::heap_push(QueueEntry entry) const
{
    heap_.push_back(entry);
    heap_sift_up(heap_.size() - 1);
}

void
Simulator::heap_pop() const
{
    assert(!heap_.empty());
    const QueueEntry last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0)
        return;
    // The next minimum is one of the old root's children (heap property),
    // so start their slot lines now: by the time the next fire checks the
    // generation and moves the callback out, the line is already here.
    for (size_t c = 1; c <= 4 && c < n; ++c)
        __builtin_prefetch(&slots_[slot_of(heap_[c].id)]);
    // Bottom-up deletion: walk the min-child path to the bottom first
    // (no comparisons against `last`), then sift `last` up from there.
    // `last` is a leaf value, so the up-pass almost always stops at once.
    size_t i = 0;
    for (;;) {
        const size_t first_child = (i << 2) + 1;
        if (first_child >= n)
            break;
        // Pull the whole grandchild range while comparing this level (the
        // four children's child groups are 16 contiguous entries); the
        // walk is memory-bound once the heap outgrows the cache.
        const size_t grandchild = (first_child << 2) + 1;
        if (grandchild < n) {
            const char *base =
                reinterpret_cast<const char *>(&heap_[grandchild]);
            for (size_t off = 0; off < 16 * sizeof(QueueEntry); off += 64)
                __builtin_prefetch(base + off);
        }
        size_t best = first_child;
        const size_t end = std::min(first_child + 4, n);
        for (size_t c = first_child + 1; c < end; ++c) {
            if (fires_before(heap_[c], heap_[best]))
                best = c;
        }
        heap_[i] = heap_[best];
        i = best;
    }
    while (i > 0) {
        const size_t parent = (i - 1) >> 2;
        if (!fires_before(last, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = last;
}

EventId
Simulator::schedule_at(TimePoint t, const char *label, EventFn fn)
{
    assert(t >= now_ && "cannot schedule in the past");
    const uint32_t slot = acquire_slot();
    Slot &s = slots_[slot];
    s.fn = std::move(fn);
    s.label = label;
    const EventId id = make_id(s.generation, slot);
    heap_push(QueueEntry{t.to_micros(), next_seq_++, id});
    ++live_count_;
    return id;
}

EventId
Simulator::schedule_after(Duration d, const char *label, EventFn fn)
{
    assert(!d.is_negative());
    return schedule_at(now_ + d, label, std::move(fn));
}

void
Simulator::schedule_batch(std::vector<BatchEvent> &batch)
{
    const size_t k = batch.size();
    if (k == 0)
        return;
    const size_t old_size = heap_.size();
    heap_.reserve(old_size + k);
    for (BatchEvent &ev : batch) {
        assert(ev.t >= now_ && "cannot schedule in the past");
        const uint32_t slot = acquire_slot();
        Slot &s = slots_[slot];
        s.fn = std::move(ev.fn);
        s.label = ev.label;
        heap_.push_back(QueueEntry{ev.t.to_micros(), next_seq_++,
                                   make_id(s.generation, slot)});
    }
    live_count_ += k;
    // Restore the heap once for the whole burst. Sifting each appended
    // entry up costs O(k log n); Floyd's rebuild costs O(n) regardless
    // of k. Cross over when the burst is a sizable fraction of the heap.
    if (k <= old_size / 4 + 1) {
        for (size_t i = old_size; i < heap_.size(); ++i)
            heap_sift_up(i);
    } else if (heap_.size() > 1) {
        for (size_t i = (heap_.size() - 2) >> 2; i != size_t(-1); --i)
            heap_sift_down(i);
    }
}

bool
Simulator::cancel(EventId id)
{
    if (!is_live(id))
        return false;
    release_slot(slot_of(id));
    --live_count_;
    return true;
}

void
Simulator::drain_cancelled() const
{
    while (!heap_.empty() && !is_live(heap_.front().id))
        heap_pop();
}

TimePoint
Simulator::next_event_time() const
{
    drain_cancelled();
    return heap_.empty() ? TimePoint::max()
                         : TimePoint::from_micros(heap_.front().t_us);
}

void
Simulator::set_watch(Duration period, WatchFn fn)
{
    assert(!period.is_zero() && !period.is_negative() && fn);
    // Armed like PeriodicTask::start(): one period out, ordered after
    // every event scheduled so far.
    watch_ = QueueEntry{(now_ + period).to_micros(), next_seq_, 0};
    watch_period_us_ = period.to_micros();
    watch_fn_ = std::move(fn);
}

void
Simulator::clear_watch()
{
    watch_ = kNoWatch;
    watch_fn_ = nullptr;
}

size_t
Simulator::quiet_instants(TimePoint bound) const
{
    assert(watch_fn_ && now_.to_micros() == watch_.t_us);
    drain_cancelled();
    const int64_t last = std::min(
        heap_.empty() ? INT64_MAX : heap_.front().t_us - 1, bound.to_micros());
    if (last <= watch_.t_us)
        return 1;
    return 1 + size_t((last - watch_.t_us) / watch_period_us_);
}

void
Simulator::run_watch()
{
    now_ = TimePoint::from_micros(watch_.t_us);
    [[maybe_unused]] const uint64_t seq = next_seq_;
    [[maybe_unused]] const size_t live = live_count_;
    watch_fn_(now_);
    assert(next_seq_ == seq && live_count_ == live &&
           "the watch must not schedule or cancel events");
    // Re-armed as PeriodicTask re-arms after its callback: ordered
    // after every event scheduled so far.
    watch_.t_us += watch_period_us_;
    watch_.seq = next_seq_;
}

bool
Simulator::step()
{
    drain_cancelled();
    if (heap_.empty())
        return false;
    const QueueEntry entry = heap_.front();
    if (!fires_before(entry, watch_)) {
        run_watch();
        return true;
    }
    heap_pop();
    Slot &slot = slots_[slot_of(entry.id)];
    assert(slot.generation == generation_of(entry.id));
    // Move the callback out before releasing so the event can reschedule
    // or cancel others (including itself, harmlessly) while running.
    EventFn fn = std::move(slot.fn);
    release_slot(slot_of(entry.id));
    --live_count_;
    assert(entry.t_us >= now_.to_micros());
    now_ = TimePoint::from_micros(entry.t_us);
    ++processed_;
    fn();
    return true;
}

void
Simulator::run()
{
    while (step()) {
    }
}

void
Simulator::reset()
{
    // Destroy pending callbacks and invalidate every outstanding id —
    // semantically a cancel() of each pending event, done slab-wide.
    for (Slot &s : slots_) {
        ++s.generation;
        s.fn = nullptr;
        s.label = nullptr;
    }
    free_.clear();
    free_.reserve(slots_.size());
    // Descending, so the next acquire_slot() hands out slot 0 first and
    // a fresh run allocates slots in the same order as a fresh engine.
    for (size_t i = slots_.size(); i > 0; --i)
        free_.push_back(uint32_t(i - 1));
    heap_.clear();
    now_ = TimePoint::origin();
    next_seq_ = 0;
    processed_ = 0;
    live_count_ = 0;
    clear_watch();
}

void
Simulator::adopt_storage(Storage &&storage)
{
    assert(slots_.empty() && heap_.empty() && next_seq_ == 0 &&
           "adopt_storage requires a pristine engine");
    heap_ = std::move(storage.heap);
    slots_ = std::move(storage.slots);
    free_ = std::move(storage.free_slots);
    heap_.clear();
    // The donor left the slab with all fns destroyed and generations
    // advanced; rebuild the free list so allocation order matches a
    // fresh engine (slot 0 first).
    free_.clear();
    free_.reserve(slots_.size());
    for (size_t i = slots_.size(); i > 0; --i)
        free_.push_back(uint32_t(i - 1));
}

Simulator::Storage
Simulator::release_storage()
{
    reset();
    Storage storage;
    storage.heap = std::move(heap_);
    storage.slots = std::move(slots_);
    storage.free_slots = std::move(free_);
    heap_ = {};
    slots_ = {};
    free_ = {};
    return storage;
}

void
Simulator::run_until(TimePoint t)
{
    assert(t >= now_);
    while (true) {
        drain_cancelled();
        if (heap_.empty() || heap_.front().t_us > t.to_micros())
            break;
        step();
    }
    while (watch_fn_ && watch_.t_us <= t.to_micros())
        run_watch();
    now_ = t;
}

PeriodicTask::PeriodicTask(Simulator &sim, Duration period, std::string label,
                           EventFn fn)
    : sim_(sim), period_(period), label_(std::move(label)), fn_(std::move(fn))
{
    assert(!period_.is_zero() && !period_.is_negative());
}

PeriodicTask::~PeriodicTask()
{
    stop();
}

void
PeriodicTask::start()
{
    if (running_)
        return;
    running_ = true;
    arm();
}

void
PeriodicTask::stop()
{
    if (!running_)
        return;
    running_ = false;
    if (pending_) {
        sim_.cancel(pending_);
        pending_ = 0;
    }
}

void
PeriodicTask::arm()
{
    pending_ = sim_.schedule_after(period_, label_.c_str(), [this] {
        pending_ = 0;
        if (!running_)
            return;
        fn_();
        // fn_ may have called stop().
        if (running_)
            arm();
    });
}

} // namespace tacc::sim
