/**
 * @file
 * ThreadPool contract tests:
 *
 *  - ThreadPool.* — parallel_for runs every index exactly once, on pool
 *                   workers only; the first exception is rethrown after
 *                   all indices ran and the pool stays usable; workers
 *                   persist across calls; affinity-aware sizing;
 *  - PoolStress.* — the races the ThreadSanitizer `pool-stress` CI job
 *                   exists for: oversubscription, concurrent callers,
 *                   construct/run/destroy churn.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/thread_pool.h"

namespace tacc {
namespace {

/** Runs parallel_for(n) and checks each index ran exactly once. */
void
expect_each_index_once(ThreadPool &pool, size_t n)
{
    std::vector<std::atomic<int>> counts(n);
    pool.parallel_for(n, [&](size_t i) { counts[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(counts[i].load(), 1) << "index " << i << " of " << n;
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardware_threads(), 1);
    ThreadPool pool(0); // 0 = hardware concurrency
    EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
    ThreadPool negative(-3);
    EXPECT_EQ(negative.size(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, HardwareThreadsRespectsAffinityMask)
{
    const int reported = ThreadPool::hardware_threads();
    EXPECT_GE(reported, 1);
#if defined(__linux__)
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
    const int usable = CPU_COUNT(&allowed);
    ASSERT_GT(usable, 0);
    // Never report more parallelism than the scheduler will actually
    // grant this process.
    EXPECT_LE(reported, usable);
#endif
    const int advertised = int(std::thread::hardware_concurrency());
    if (advertised > 0) {
        EXPECT_LE(reported, advertised);
    }
}

TEST(ThreadPool, BulkRunsEveryIndexExactlyOnce)
{
    ThreadPool pool(6);
    EXPECT_EQ(pool.size(), 6);
    expect_each_index_once(pool, 10'000);
}

TEST(ThreadPool, BulkEdgeSizes)
{
    ThreadPool pool(4);
    // Empty range: returns at once without calling fn.
    pool.parallel_for(0, [](size_t) { FAIL(); });
    // One index; fewer indices than workers.
    expect_each_index_once(pool, 1);
    expect_each_index_once(pool, 2);
    expect_each_index_once(pool, 10'000);
    // A single worker runs the whole range.
    ThreadPool single(1);
    expect_each_index_once(single, 10'000);
}

TEST(ThreadPool, BulkRethrowsFirstExceptionAfterAllIndicesRan)
{
    constexpr size_t kIndices = 500;
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    try {
        pool.parallel_for(kIndices, [&](size_t i) {
            ran.fetch_add(1);
            if (i % 100 == 37)
                throw std::invalid_argument("index " + std::to_string(i));
        });
        FAIL() << "parallel_for swallowed the exception";
    } catch (const std::invalid_argument &e) {
        // A throwing index never cancels the others, and the rethrow
        // waits for all of them.
        EXPECT_EQ(ran.load(), int(kIndices));
        EXPECT_EQ(std::string(e.what()).rfind("index ", 0), 0u);
    }

    // The pool is usable afterwards, and a stale error never leaks into
    // the next call.
    expect_each_index_once(pool, 1000);
    EXPECT_THROW(pool.parallel_for(3,
                                   [](size_t) {
                                       throw std::runtime_error("all");
                                   }),
                 std::runtime_error);
    expect_each_index_once(pool, 8);
}

TEST(ThreadPool, SuccessiveCallsReuseTheSameWorkers)
{
    // The drivers' thread_local arenas rely on the workers persisting:
    // two calls together run on at most size() distinct threads, none
    // of them the caller's.
    ThreadPool pool(3);
    std::mutex mu;
    std::set<std::thread::id> ids;
    const auto record = [&](size_t) {
        std::this_thread::yield();
        std::lock_guard lock(mu);
        ids.insert(std::this_thread::get_id());
    };
    pool.parallel_for(200, record);
    pool.parallel_for(200, record);
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), size_t(pool.size()));
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

TEST(ThreadPool, NoWorkLostUnderChurn)
{
    // Many back-to-back calls of varying size on one pool: every call
    // must see exactly its own indices.
    ThreadPool pool(4);
    for (size_t n = 0; n < 300; ++n) {
        std::atomic<int64_t> sum{0};
        pool.parallel_for(n, [&](size_t i) { sum += int64_t(i) + 1; });
        ASSERT_EQ(sum.load(), int64_t(n) * int64_t(n + 1) / 2)
            << "call with n = " << n;
    }
}

TEST(PoolStress, OversubscribedBulkFlood)
{
    // More workers than any CI container has cores: the digests gate
    // runs --jobs 32 on purpose, so the pool must stay correct (and
    // make progress) when heavily oversubscribed.
    ThreadPool pool(32);
    EXPECT_EQ(pool.size(), 32);
    expect_each_index_once(pool, 20'000);
    expect_each_index_once(pool, 5);
}

TEST(PoolStress, ConcurrentExternalSubmittersAndBulkGroups)
{
    // Several external threads calling parallel_for on one pool at once
    // take turns; every call keeps its exact total.
    ThreadPool pool(4);
    constexpr int kCallers = 4;
    constexpr int kCallsEach = 50;
    constexpr size_t kIndices = 200;
    std::atomic<int64_t> total{0};
    std::atomic<int> wrong{0};
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&] {
            for (int k = 0; k < kCallsEach; ++k) {
                std::atomic<size_t> mine{0};
                pool.parallel_for(kIndices, [&](size_t) {
                    mine.fetch_add(1);
                    total.fetch_add(1);
                });
                if (mine.load() != kIndices)
                    wrong.fetch_add(1);
            }
        });
    }
    for (auto &caller : callers)
        caller.join();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(total.load(), int64_t(kCallers) * kCallsEach * kIndices);
}

TEST(PoolStress, ShutdownChurn)
{
    // Rapid construct/run/destroy cycles, including a pool destroyed
    // before its workers ever ran and one destroyed right after a call.
    for (int round = 0; round < 60; ++round) {
        const int workers = 1 + round % 8;
        ThreadPool idle(workers);
        ThreadPool pool(workers);
        std::atomic<int> ran{0};
        pool.parallel_for(size_t(round), [&](size_t) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), round) << "round " << round;
    }
}

} // namespace
} // namespace tacc
