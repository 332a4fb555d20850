#include "thread_pool.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <new>

#include <unistd.h>

#include "util/env.h"

namespace swordfish {

namespace {

/** Set while a thread is executing inside ThreadPool::workerLoop(). */
thread_local bool tls_in_worker = false;

} // namespace

bool
ThreadPool::inWorker()
{
    return tls_in_worker;
}

ThreadPool::ThreadPool(std::size_t threads) : ownerPid_(::getpid())
{
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    if (::getpid() != ownerPid_) {
        // A fork()ed child (a gtest death test, say, leaving through
        // exit()) holds copies of the worker handles but not the threads:
        // a join would wait forever. So would destroying cv_, which waits
        // for the waiters the workers registered before the fork. Let the
        // handles go and end cv_'s lifetime by starting a fresh one in its
        // storage, so the member destructors return at once.
        for (std::thread& t : workers_)
            t.detach();
        new (&cv_) std::condition_variable;
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_)
        t.join();
}

void
ThreadPool::workerLoop()
{
    tls_in_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    if (workers_.empty()) {
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::runTasks(std::vector<std::function<void()>> tasks)
{
    if (workers_.empty() || inWorker() || tasks.size() <= 1) {
        for (auto& task : tasks)
            task();
        return;
    }

    std::vector<std::future<void>> futures;
    futures.reserve(tasks.size());
    for (auto& task : tasks)
        futures.push_back(submit(std::move(task)));

    // Wait for the whole batch, then surface the first failure.
    std::exception_ptr first;
    for (auto& fut : futures) {
        try {
            fut.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

std::size_t
ThreadPool::shardCount(std::size_t n) const
{
    if (n <= 1 || workers_.size() <= 1 || inWorker())
        return 1;
    return std::min(workers_.size(), n);
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)>& body)
{
    const std::size_t shards = shardCount(n);
    if (shards <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        tasks.push_back([&body, n, shards, s] {
            const auto [begin, end] = shardRange(n, shards, s);
            for (std::size_t i = begin; i < end; ++i)
                body(i);
        });
    }
    runTasks(std::move(tasks));
}

namespace {

std::size_t
defaultPoolThreads()
{
    return runtimeConfig().poolThreads();
}

std::unique_ptr<ThreadPool>&
globalPoolSlot()
{
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

} // namespace

ThreadPool&
globalPool()
{
    // Created once even when first users race (two daemon workers starting
    // their first jobs together): a second construction would replace, and
    // so destroy, the pool the first caller is already running on.
    static std::once_flag created;
    auto& slot = globalPoolSlot();
    std::call_once(created, [&slot] {
        if (!slot)
            slot = std::make_unique<ThreadPool>(defaultPoolThreads());
    });
    return *slot;
}

void
setGlobalPoolThreads(std::size_t threads)
{
    auto& slot = globalPoolSlot();
    slot.reset(); // join old workers before spawning the new pool
    slot = std::make_unique<ThreadPool>(threads);
}

} // namespace swordfish
