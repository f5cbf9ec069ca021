/**
 * @file
 * A persistent worker pool parked on a condition variable, replacing
 * the per-call std::thread spawn on the interactive streaming path.
 *
 * Thread creation costs tens of microseconds — it dominated warm
 * time-to-first-event for askStream, and a serving front-end that
 * spawned a thread per request would pay it on every question. The
 * pool starts threads lazily (an engine used only for blocking ask()
 * never creates one), parks idle workers on a condvar, and grows up
 * to its cap only when a job arrives and every started worker is
 * busy. Submitted jobs always run: destruction drains the queue
 * before joining, so a completion latch armed by a job can never be
 * abandoned.
 */

#ifndef CACHEMIND_CORE_WORKER_POOL_HH
#define CACHEMIND_CORE_WORKER_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cachemind::core {

class WorkerPool
{
  public:
    /**
     * A pool that will run at most `threads` jobs concurrently
     * (0 = one per hardware core). No thread is started until the
     * first submit().
     */
    explicit WorkerPool(std::size_t threads);

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Drains every pending job, then joins all workers. */
    ~WorkerPool();

    /**
     * Enqueue one job. A parked worker picks it up immediately; if
     * none is idle and the pool is below its thread cap, a new worker
     * is started for it. Jobs may not throw — a streaming pipeline
     * converts its failures into channel state before returning.
     */
    void submit(std::function<void()> job);

    /** Maximum concurrent jobs. */
    std::size_t threadCap() const { return cap_; }

    /** Workers started so far (grows lazily toward the cap). */
    std::size_t threadsStarted() const;

    /** Workers parked waiting for a job right now. */
    std::size_t idleWorkers() const;

  private:
    void workerLoop();

    const std::size_t cap_;
    mutable std::mutex mu_;
    std::condition_variable work_ready_;
    std::deque<std::function<void()>> jobs_;
    std::vector<std::thread> workers_;
    std::size_t idle_ = 0;
    bool stopping_ = false;
};

} // namespace cachemind::core

#endif // CACHEMIND_CORE_WORKER_POOL_HH
