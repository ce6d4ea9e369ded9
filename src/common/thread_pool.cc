#include "common/thread_pool.h"

#include <cassert>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

namespace tacc {

static thread_local const ThreadPool *tls_pool = nullptr; // worker's pool

ThreadPool::ThreadPool(int threads)
{
    const int n = threads > 0 ? threads : hardware_threads();
    threads_.reserve(size_t(n));
    try {
        for (int i = 0; i < n; ++i)
            threads_.emplace_back([this] { worker_loop(); });
    } catch (...) {
        stop_and_join(); // a joinable std::thread would terminate
        throw;
    }
}

void
ThreadPool::stop_and_join()
{
    std::unique_lock lock(mu_);
    stopping_ = true;
    lock.unlock();
    wake_cv_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

int
ThreadPool::hardware_threads()
{
    int n = int(std::thread::hardware_concurrency());
#if defined(__linux__)
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        const int usable = CPU_COUNT(&allowed);
        if (usable > 0 && (n <= 0 || usable < n))
            n = usable;
    }
#endif
    return n <= 0 ? 1 : n;
}

void
ThreadPool::run(size_t n, IndexFn call, void *fn)
{
    assert(tls_pool != this && "parallel_for called from its own worker");
    if (n == 0)
        return;
    std::lock_guard turn(call_mu_);
    std::unique_lock lock(mu_);
    call_ = call;
    fn_ = fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    active_ = size();
    ++generation_;
    wake_cv_.notify_all();
    // Wait for every worker, even one that found no index left: none
    // may still hold fn once this frame, which owns it, returns.
    done_cv_.wait(lock, [this] { return active_ == 0; });
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
ThreadPool::worker_loop()
{
    tls_pool = this;
    uint64_t seen = 0;
    std::unique_lock lock(mu_);
    for (;;) {
        wake_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
        if (stopping_)
            return;
        seen = generation_;
        lock.unlock();
        for (;;) {
            const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= n_)
                break;
            try {
                call_(fn_, i);
            } catch (...) {
                std::lock_guard error_lock(mu_);
                if (!error_)
                    error_ = std::current_exception();
            }
        }
        lock.lock();
        if (--active_ == 0)
            done_cv_.notify_one();
    }
}

} // namespace tacc
