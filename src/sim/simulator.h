/**
 * @file
 * Discrete-event simulation engine.
 *
 * The Simulator owns virtual time and an event queue. Events scheduled for
 * the same instant fire in schedule order (a monotonically increasing
 * sequence number breaks ties), which makes every run deterministic.
 *
 * All higher layers (cluster, scheduler, execution) are written against
 * this engine: they react to events and schedule future ones; nothing in
 * the library uses wall-clock time.
 *
 * ## Event storage and the lazy-cancellation contract
 *
 * Event callbacks live in a slab of pooled slots recycled through a free
 * list; scheduling and cancelling never touch a hash map or allocate
 * per-event metadata. An EventId packs {generation, slot}: cancel() and
 * firing bump the slot's generation, so a stale id (already fired,
 * already cancelled, or referring to a recycled slot) is detected in O(1)
 * by a generation mismatch and safely ignored.
 *
 * Cancellation is *lazy* with respect to the time-ordered heap: cancel()
 * releases the callback and the slot immediately (O(1)), but the heap
 * entry stays behind and is discarded when it surfaces at the top. Heap
 * maintenance is therefore deferred work that const observers such as
 * next_event_time() may perform; the heap is declared mutable for exactly
 * this reason. Observable state (now(), pending(), processed(), event
 * ordering) is never affected by when the stale entries are drained.
 *
 * ## The pre-fire watch
 *
 * A periodic observer (the ops sampler) needs no queue entry:
 * set_watch() installs one callback owed at now()+period, now()+2·period,
 * ... that the engine runs before the first event ordered after the due
 * instant, exactly where a PeriodicTask started at the same moment would
 * have fired. The watch keeps the due instant and the sequence number
 * the task's event would have been armed with, so same-instant ties
 * resolve as before: an event at the due instant runs first iff it was
 * scheduled before the watch was (re-)armed. Checking costs one compare
 * per step. A due instant is a step of its own, so a caller that looks
 * at the clock between steps still passes through every instant, but it
 * is not an event: processed(), pending() and next_event_time() ignore
 * the watch, and once the queue empties step() stops instead of
 * spinning on samples.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time.h"

namespace tacc::sim {

/**
 * Handle for a scheduled event; usable to cancel it before it fires.
 * Value 0 is never issued (callers may use it as "no event"). Ids are
 * generation-checked: using an id after its event fired or was cancelled
 * is safe and has no effect, even if the underlying slot was recycled.
 */
using EventId = uint64_t;

/** Callback invoked when an event fires. */
using EventFn = std::function<void()>;

/** Pre-fire watch callback; receives the due instant (== now()). */
using WatchFn = std::function<void(TimePoint)>;

/**
 * One future event of a bulk schedule (see Simulator::schedule_batch).
 * Same label-lifetime contract as schedule_at.
 */
struct BatchEvent {
    TimePoint t;
    const char *label = nullptr;
    EventFn fn;
};

/** Deterministic discrete-event simulator. */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current virtual time. */
    TimePoint now() const { return now_; }

    /**
     * Schedules fn to run at absolute time t (must be >= now()).
     * The label is kept for diagnostics and tracing; it is *not* copied,
     * so it must outlive the event (pass a string literal or other
     * statically allocated string).
     * @return an id usable with cancel().
     */
    EventId schedule_at(TimePoint t, const char *label, EventFn fn);

    /** Schedules fn to run after delay d (>= 0) from now. */
    EventId schedule_after(Duration d, const char *label, EventFn fn);

    /**
     * Schedules a burst of events in one pass — the batched event-heap
     * path behind streaming arrival-window refills. Equivalent to
     * calling schedule_at for each entry in order (sequence numbers are
     * assigned in batch order, so same-instant ties fire in batch
     * order and the pop order is identical to serial pushes), but the
     * heap is restored once: small bursts sift only the appended range,
     * large bursts trigger a single Floyd rebuild instead of k
     * leaf-to-root walks. Entries' callbacks are moved from; the batch
     * vector itself is left with empty functions for caller reuse.
     */
    void schedule_batch(std::vector<BatchEvent> &batch);

    /**
     * Cancels a pending event in O(1).
     * @return true if the event existed and had not yet fired.
     */
    bool cancel(EventId id);

    /** Runs until the event queue is empty. */
    void run();

    /**
     * Runs all events with time <= t, then advances the clock to t.
     * Events scheduled during processing are honoured if they fall
     * within the horizon.
     */
    void run_until(TimePoint t);

    /**
     * Fires the single earliest pending event, or, when a watch instant
     * is ordered before it, runs that instant instead (the event waits
     * for a later step).
     * @return false if the queue was empty (no watch instant runs then).
     */
    bool step();

    /**
     * Installs the pre-fire watch (see the file header), replacing any
     * previous one: fn runs at now()+period, now()+2·period, ... with the
     * clock moved to each instant. run_until(t) runs every instant <= t.
     * fn must only observe: it may neither schedule nor cancel events.
     */
    void set_watch(Duration period, WatchFn fn);

    /** Removes the watch; no instant runs from now on. */
    void clear_watch();

    /**
     * Called from inside the watch: the number of due instants, the
     * running one first, that come before the next pending event in
     * the watch's (t, seq) order and at or before `bound`. A later
     * instant is re-armed after every event scheduled so far, so an
     * event at that instant fires first: it must lie strictly after
     * the instant. No event can fire in between (the watch schedules
     * none), so these instants run back to back, one per step, against
     * the same state. At least 1.
     */
    size_t quiet_instants(TimePoint bound) const;

    /** Number of events still pending. */
    size_t pending() const { return live_count_; }

    /** Total events fired so far. */
    uint64_t processed() const { return processed_; }

    /** Time of the earliest pending event, or TimePoint::max() if none. */
    TimePoint next_event_time() const;

    /**
     * Returns the engine to its just-constructed logical state — clock
     * at origin, empty queue, zero counters — while keeping the event
     * slab, free list, and heap capacity. Outstanding EventIds are
     * invalidated (generations advance, exactly as if every pending
     * event had been cancelled), so a stale id held across reset() is
     * detected and ignored like any other dead id. This is the
     * arena-reuse path: sweep workers run thousands of scenarios
     * without re-paying slab growth each time.
     */
    void reset();

  private:
    /** Pooled event storage; recycled through free_. Cache-line sized
     *  and aligned so firing an event touches exactly one slot line. */
    struct alignas(64) Slot {
        EventFn fn;
        /** Diagnostic label (static string; never read on the fire path). */
        const char *label = nullptr;
        /** Matches the id's generation only while the event is pending. */
        uint32_t generation = 0;
    };

    /** Heap entry; ordering is (time, schedule sequence). */
    struct QueueEntry {
        int64_t t_us;
        uint64_t seq;
        EventId id;
    };

    static bool
    fires_before(const QueueEntry &a, const QueueEntry &b)
    {
        if (a.t_us != b.t_us)
            return a.t_us < b.t_us;
        return a.seq < b.seq;
    }

    /** Packs {generation, slot}; slot is biased by 1 so ids are nonzero. */
    static EventId
    make_id(uint32_t generation, uint32_t slot)
    {
        return (uint64_t(generation) << 32) | uint64_t(slot + 1);
    }
    static uint32_t slot_of(EventId id) { return uint32_t(id) - 1; }
    static uint32_t generation_of(EventId id) { return uint32_t(id >> 32); }

    /** Runs the watch's due instant and re-arms it. */
    void run_watch();

    bool is_live(EventId id) const;
    uint32_t acquire_slot();
    void release_slot(uint32_t slot);

    /** @name Implicit 4-ary min-heap over heap_ (cache-friendlier than a
     *  binary heap at campus-trace queue depths). Const because lazy
     *  cancellation lets const observers discard stale top entries. */
    ///@{
    void heap_push(QueueEntry entry) const;
    void heap_pop() const;
    void heap_sift_up(size_t i) const;
    void heap_sift_down(size_t i) const;
    void drain_cancelled() const;
    ///@}

  public:
    /**
     * The engine's recyclable allocations: the event slab, free list,
     * and heap buffer. Opaque to callers — it exists only to move
     * capacity between Simulator instances (core::StackArena), so sweep
     * workers reconstructing a stack per scenario reuse the previous
     * run's slab instead of growing a fresh one.
     */
    struct Storage {
        std::vector<QueueEntry> heap;
        std::vector<Slot> slots;
        std::vector<uint32_t> free_slots;
    };

    /**
     * Donates previously released storage to this engine. Must be
     * called before any event is scheduled. Slot generations carry
     * over, so ids issued by the storage's previous owner stay dead.
     */
    void adopt_storage(Storage &&storage);

    /**
     * Hands the engine's allocations back for reuse and leaves it
     * logically empty. Pending callbacks are destroyed (their captures
     * are released), exactly as if each had been cancelled.
     */
    Storage release_storage();

  private:

    TimePoint now_ = TimePoint::origin();
    uint64_t next_seq_ = 0;
    uint64_t processed_ = 0;
    size_t live_count_ = 0;
    /** Mutable: stale (cancelled) entries are drained from const paths;
     *  see the lazy-cancellation contract in the file header. */
    mutable std::vector<QueueEntry> heap_;
    std::vector<Slot> slots_;
    std::vector<uint32_t> free_;
    /** The watch's next instant and arm sequence, ordered like an event;
     *  kNoWatch (after every event) when none is installed. */
    static constexpr QueueEntry kNoWatch = {INT64_MAX, UINT64_MAX, 0};
    QueueEntry watch_ = kNoWatch;
    int64_t watch_period_us_ = 0;
    WatchFn watch_fn_;
};

/**
 * Re-arming periodic event helper (e.g. scheduler ticks, monitors).
 *
 * The task does not fire at start(); the first invocation is one period
 * after start. stop() is idempotent and safe from inside the callback.
 */
class PeriodicTask
{
  public:
    /**
     * @param sim engine the task runs on (must outlive this object)
     * @param period fixed interval between invocations (> 0)
     * @param label diagnostic label
     * @param fn callback; invoked once per period until stop()
     */
    PeriodicTask(Simulator &sim, Duration period, std::string label,
                 EventFn fn);
    ~PeriodicTask();

    PeriodicTask(const PeriodicTask &) = delete;
    PeriodicTask &operator=(const PeriodicTask &) = delete;

    void start();
    void stop();
    bool running() const { return running_; }

  private:
    void arm();

    Simulator &sim_;
    Duration period_;
    /** Owned here; events reference it by pointer (no copy per firing). */
    std::string label_;
    EventFn fn_;
    bool running_ = false;
    EventId pending_ = 0;
};

} // namespace tacc::sim
