/**
 * @file
 * Steady-clock request deadlines.
 *
 * A Deadline is a point on the monotonic clock after which a request
 * should stop doing new work. Default-constructed deadlines are
 * infinite (never expire), so code can carry one unconditionally and
 * only pay a clock read when a budget was actually set.
 *
 * Deadlines are value types: cheap to copy, immutable once built, and
 * safe to read from any thread.
 */

#ifndef CACHEMIND_BASE_DEADLINE_HH
#define CACHEMIND_BASE_DEADLINE_HH

#include <chrono>
#include <limits>

namespace cachemind {

class Deadline
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Infinite deadline: never expires. */
    constexpr Deadline() = default;

    /**
     * Deadline `ms` milliseconds from now. A budget that is not above 0
     * (NaN included), or that the clock cannot represent (past about
     * 292 years of nanoseconds), means infinite.
     */
    static Deadline
    afterMs(double ms)
    {
        const std::chrono::duration<double, std::milli> budget(ms);
        if (!(ms > 0.0) || budget >= Clock::duration::max())
            return Deadline();
        const auto now = Clock::now();
        const auto step =
            std::chrono::duration_cast<Clock::duration>(budget);
        if (step >= Clock::time_point::max() - now)
            return Deadline();
        Deadline d;
        d.finite_ = true;
        d.at_ = now + step;
        return d;
    }

    /** Explicitly infinite deadline (same as default construction). */
    static constexpr Deadline never() { return Deadline(); }

    /** True when a finite budget was set. */
    constexpr bool finite() const { return finite_; }

    /** True when the budget was set and has run out. */
    bool expired() const { return finite_ && Clock::now() >= at_; }

    /** Milliseconds left; +infinity when no budget was set. */
    double
    remainingMs() const
    {
        if (!finite_)
            return std::numeric_limits<double>::infinity();
        return std::chrono::duration<double, std::milli>(at_ - Clock::now())
            .count();
    }

    /** Absolute expiry instant; only meaningful when finite(). */
    Clock::time_point timePoint() const { return at_; }

  private:
    bool finite_ = false;
    Clock::time_point at_{};
};

} // namespace cachemind

#endif // CACHEMIND_BASE_DEADLINE_HH
