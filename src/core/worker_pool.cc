#include "core/worker_pool.hh"

#include <algorithm>
#include <utility>

namespace cachemind::core {

WorkerPool::WorkerPool(std::size_t threads)
    : cap_(threads == 0
               ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
               : threads)
{
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
WorkerPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        jobs_.push_back(std::move(job));
        // Grow only when every started worker is busy: an engine that
        // never runs two streams at once keeps exactly one thread.
        if (idle_ == 0 && workers_.size() < cap_)
            workers_.emplace_back([this] { workerLoop(); });
    }
    work_ready_.notify_one();
}

std::size_t
WorkerPool::threadsStarted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return workers_.size();
}

std::size_t
WorkerPool::idleWorkers() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return idle_;
}

void
WorkerPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        while (jobs_.empty() && !stopping_) {
            ++idle_;
            work_ready_.wait(lock);
            --idle_;
        }
        if (jobs_.empty())
            return; // stopping, queue drained
        std::function<void()> job = std::move(jobs_.front());
        jobs_.pop_front();
        lock.unlock();
        job();
        lock.lock();
    }
}

} // namespace cachemind::core
