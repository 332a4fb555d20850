/**
 * @file
 * Reusable work-queue thread pool for the evaluation stack.
 *
 * Design goals (in order):
 *  1. Determinism support: the pool never decides *what* is computed, only
 *     *where*. Callers produce per-index results into preallocated slots and
 *     reduce them in index order, so outputs are bitwise identical for any
 *     worker count (see core/evaluator.cpp and basecall/basecaller.cpp).
 *  2. Safe nesting: a parallel construct invoked from inside a pool worker
 *     runs inline on that worker instead of enqueueing. This makes nested
 *     parallelism (Monte-Carlo runs -> reads -> tile programming) deadlock
 *     free: tasks never wait on tasks that could be starved behind them.
 *  3. Exceptions propagate: the first exception thrown by any task of a
 *     parallelFor/runTasks batch is rethrown on the calling thread after
 *     the whole batch has drained.
 *
 * The process-wide pool is sized by the SWORDFISH_THREADS environment
 * variable (default: hardware concurrency) and can be resized at runtime by
 * tests and benches via setGlobalPoolThreads().
 */

#ifndef SWORDFISH_UTIL_THREAD_POOL_H
#define SWORDFISH_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <sys/types.h>
#include <thread>
#include <type_traits>
#include <vector>

namespace swordfish {

/** Fixed-size worker pool executing submitted tasks FIFO. */
class ThreadPool
{
  public:
    /** Spawn `threads` workers (0 = no workers; everything runs inline). */
    explicit ThreadPool(std::size_t threads);

    /**
     * Drains nothing: joins after finishing already-queued tasks. In a
     * process other than the one that started the workers (a fork()ed
     * child), returns at once without a join.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads owned by this pool. */
    std::size_t threadCount() const { return workers_.size(); }

    /**
     * Submit one task; the future reports completion or the task's
     * exception. With zero workers the task runs inline before returning.
     */
    template <typename F>
    std::future<std::invoke_result_t<F>>
    submit(F&& fn)
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        enqueue([task] { (*task)(); });
        return fut;
    }

    /**
     * Run a batch of tasks to completion, rethrowing the first exception.
     * Runs inline (serially, in order) when the pool has no workers or the
     * caller is itself a pool worker (nesting rule above).
     */
    void runTasks(std::vector<std::function<void()>> tasks);

    /**
     * Execute body(0..n-1), fanning indices out across workers in
     * contiguous chunks. Same inline rules and exception behaviour as
     * runTasks(). Chunking is by index only — callers that need
     * shard-local state should use shardRange()/runTasks() directly.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)>& body);

    /**
     * Number of contiguous shards parallelFor-style helpers should split
     * `n` items into: min(workers, n), at least 1, and exactly 1 when
     * called from a worker thread (nested constructs run inline).
     */
    std::size_t shardCount(std::size_t n) const;

    /** [begin, end) of shard `s` when n items are split into `shards`. */
    static std::pair<std::size_t, std::size_t>
    shardRange(std::size_t n, std::size_t shards, std::size_t s)
    {
        const std::size_t base = n / shards, rem = n % shards;
        const std::size_t begin = s * base + std::min(s, rem);
        return {begin, begin + base + (s < rem ? 1 : 0)};
    }

    /**
     * True when the calling thread is a worker of any ThreadPool. The GEMM
     * row loops read it too: a worker never forks an OpenMP team
     * (kernels::gemmForks), so the pool alone owns evaluation parallelism.
     */
    static bool inWorker();

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
    pid_t ownerPid_; ///< process that started the workers (getpid())
};

/**
 * The process-wide evaluation pool. First use sizes it from
 * SWORDFISH_THREADS (default: hardware concurrency; values < 1 mean
 * "no workers", i.e. fully serial execution). Concurrent first calls are
 * safe and all get the same pool.
 */
ThreadPool& globalPool();

/**
 * Resize the global pool (joins the old workers first). Intended for tests
 * and benches that compare serial vs. pooled execution; not thread-safe
 * against concurrent globalPool() users.
 */
void setGlobalPoolThreads(std::size_t threads);

} // namespace swordfish

#endif // SWORDFISH_UTIL_THREAD_POOL_H
