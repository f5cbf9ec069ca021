/**
 * @file
 * Minimal index-space parallelism shared by the parallel database
 * build, the index warm-up, the engine's component construction and
 * askBatch's per-worker claim loops. One primitive only:
 * a blocking parallelFor over [0, n) with atomic work handout, so
 * tasks of uneven cost (Parrot training vs a plain LRU replay)
 * balance automatically without a scheduler.
 */

#ifndef CACHEMIND_BASE_PARALLEL_HH
#define CACHEMIND_BASE_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cachemind {

/**
 * Run fn(i) for every i in [0, n) on up to `threads` threads (the
 * calling thread counts as one and participates). Returns once every
 * index has been processed. fn must be safe to call concurrently for
 * distinct indices; threads <= 1 degrades to a plain inline loop, so
 * callers need no separate sequential code path.
 *
 * If fn throws, remaining work is abandoned, every worker is joined,
 * and the first exception is rethrown on the calling thread — the
 * same contract as running the loop inline (indices already handed
 * out may still complete; none are retried).
 */
template <typename Fn>
void
parallelFor(std::size_t n, std::size_t threads, Fn &&fn)
{
    if (n == 0)
        return;
    const std::size_t workers =
        std::min(std::max<std::size_t>(threads, 1), n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mu;
    auto drain = [&] {
        while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                break;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!error)
                    error = std::current_exception();
                next.store(n); // abandon the remaining work
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 0; w + 1 < workers; ++w)
        pool.emplace_back(drain);
    drain();
    for (auto &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace cachemind

#endif // CACHEMIND_BASE_PARALLEL_HH
