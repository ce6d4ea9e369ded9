/**
 * @file
 * Fixed-worker thread pool behind the sweep and tune drivers, whose
 * grids of ~20 ms simulations need one blocking fan-out. Workers start
 * in the constructor, sleep on one condition variable between calls and
 * claim indices from one atomic counter; reusing them keeps each one's
 * thread_local core::StackArena warm. See DESIGN.md "Execution backbone".
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace tacc {

class ThreadPool
{
  public:
    /** `threads` <= 0 uses hardware_threads(). If a worker fails to
     *  start, the started ones are joined and the error is rethrown. */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool() { stop_and_join(); }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int size() const { return int(threads_.size()); }

    /** hardware_concurrency clamped to the CPUs this process may run on
     *  (sched_getaffinity), with a floor of 1. */
    static int hardware_threads();

    /**
     * Runs fn(0) .. fn(n-1) on the workers (never the caller) in any order
     * and returns once all ran; the first exception any index threw is
     * then rethrown. Concurrent callers take turns. Not for workers.
     */
    template <class F>
    void
    parallel_for(size_t n, F fn)
    {
        run(n, [](void *f, size_t i) { (*static_cast<F *>(f))(i); }, &fn);
    }

  private:
    using IndexFn = void (*)(void *fn, size_t index);

    void run(size_t n, IndexFn call, void *fn);
    void worker_loop();
    void stop_and_join();

    std::vector<std::thread> threads_;
    std::mutex call_mu_; ///< held by a parallel_for caller throughout
    /** Guards the fields below but next_. call_, fn_ and n_ change only
     *  while every worker sleeps, so workers read them unlocked. */
    std::mutex mu_;
    std::condition_variable wake_cv_;
    std::condition_variable done_cv_;
    uint64_t generation_ = 0;
    bool stopping_ = false;
    IndexFn call_ = nullptr;
    void *fn_ = nullptr;
    size_t n_ = 0;
    int active_ = 0; ///< workers not yet done with this generation
    std::exception_ptr error_;
    std::atomic<size_t> next_{0};
};

} // namespace tacc
