/** @file Unit tests for the evaluation thread pool: task completion,
 *  exception propagation, reuse across submissions, shard arithmetic, the
 *  nested-inline rule that keeps nested parallelism deadlock free, and a
 *  race-free first use of the process-wide pool. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

using swordfish::ThreadPool;

TEST(ThreadPool, CompletesSubmittedTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> hits{0};
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 32; ++i)
        futs.push_back(pool.submit([&hits, i] {
            ++hits;
            return i * i;
        }));
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
    EXPECT_EQ(hits.load(), 32);
}

TEST(ThreadPool, ZeroWorkersRunInline)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 0u);
    int value = 0;
    pool.submit([&value] { value = 42; }).get();
    EXPECT_EQ(value, 42);
    EXPECT_EQ(pool.shardCount(100), 1u);
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto fut = pool.submit([]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, RunTasksPropagatesFirstExceptionAfterDraining)
{
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i)
        tasks.push_back([&completed, i] {
            if (i == 3)
                throw std::runtime_error("task 3 failed");
            ++completed;
        });
    EXPECT_THROW(pool.runTasks(std::move(tasks)), std::runtime_error);
    // The batch drained: every non-throwing task still ran.
    EXPECT_EQ(completed.load(), 7);
}

TEST(ThreadPool, ReusableAcrossSubmissionBatches)
{
    ThreadPool pool(3);
    for (int batch = 0; batch < 5; ++batch) {
        std::atomic<long> sum{0};
        pool.parallelFor(100, [&sum](std::size_t i) {
            sum += static_cast<long>(i);
        });
        EXPECT_EQ(sum.load(), 4950);
    }
    // Still usable after a batch that threw.
    std::vector<std::function<void()>> bad;
    bad.push_back([] { throw std::logic_error("x"); });
    EXPECT_THROW(pool.runTasks(std::move(bad)), std::logic_error);
    std::atomic<int> after{0};
    pool.parallelFor(10, [&after](std::size_t) { ++after; });
    EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<int> hits(257, 0);
    pool.parallelFor(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedConstructsRunInlineOnWorkers)
{
    ThreadPool pool(2);
    auto fut = pool.submit([&pool] {
        EXPECT_TRUE(ThreadPool::inWorker());
        EXPECT_EQ(pool.shardCount(64), 1u); // nested => inline
        std::size_t covered = 0;
        pool.parallelFor(16, [&covered](std::size_t) { ++covered; });
        return covered;
    });
    EXPECT_EQ(fut.get(), 16u);
    EXPECT_FALSE(ThreadPool::inWorker());
}

TEST(ThreadPool, ShardRangePartitionsExactly)
{
    const std::size_t ns[] = {0, 1, 5, 7, 64, 101};
    const std::size_t shard_counts[] = {1, 2, 3, 4, 7};
    for (std::size_t n : ns) {
        for (std::size_t shards : shard_counts) {
            std::size_t total = 0;
            std::size_t prev_end = 0;
            for (std::size_t s = 0; s < shards; ++s) {
                const auto [begin, end] =
                    ThreadPool::shardRange(n, shards, s);
                EXPECT_EQ(begin, prev_end);
                EXPECT_LE(begin, end);
                total += end - begin;
                prev_end = end;
            }
            EXPECT_EQ(total, n);
            EXPECT_EQ(prev_end, n);
        }
    }
}

namespace {

/**
 * 8 threads, released together, make the process's first globalPool()
 * calls and run a parallelFor on it; exits 0 only if every thread got the
 * same pool and every index ran.
 */
[[noreturn]] void
raceFirstGlobalPoolUse()
{
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kItems = 64;
    std::latch start(1);
    std::atomic<std::size_t> covered{0};
    std::vector<ThreadPool*> seen(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&start, &covered, &seen, t] {
            start.wait();
            ThreadPool& pool = swordfish::globalPool();
            seen[t] = &pool;
            pool.parallelFor(kItems, [&covered](std::size_t) { ++covered; });
        });
    start.count_down();
    for (std::thread& th : threads)
        th.join();
    const bool one_pool = std::all_of(
        seen.begin(), seen.end(),
        [&seen](const ThreadPool* p) { return p == seen[0]; });
    std::exit(one_pool && covered == kThreads * kItems ? 0 : 1);
}

} // namespace

TEST(GlobalPool, ConcurrentFirstUseCreatesOnePool)
{
    // Two daemon workers that start their first jobs together both make
    // the first globalPool() call. The check needs an empty slot, so it
    // runs in a re-executed child process.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(raceFirstGlobalPoolUse(), ::testing::ExitedWithCode(0), "");
}

TEST(GlobalPool, FatalInForkedChildExitsPromptly)
{
    // A death test of a fatal() path in gtest's default (fork) style, once
    // the global pool runs workers: the child leaves through exit(), whose
    // static destructors destroy the pool, and must not wait for workers
    // that exist only in the parent (ctest's TIMEOUT fails a hang).
    if (swordfish::globalPool().threadCount() == 0)
        swordfish::setGlobalPoolThreads(2);
    swordfish::globalPool().parallelFor(8, [](std::size_t) {});
    ::testing::GTEST_FLAG(death_test_style) = "fast";
    EXPECT_EXIT(swordfish::fatal("no such spec"),
                ::testing::ExitedWithCode(1), "no such spec");
}
