/**
 * @file
 * Shared pieces of the end-to-end benchmark binary: command-line
 * arguments, the result record printed as the final JSON line,
 * statistics helpers, host probes (CPU time, RSS, /proc/stat steal),
 * and the in-memory span log of the traced run.
 */

#ifndef E2EBENCH_BENCH_HH
#define E2EBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include <time.h>
#include <vector>

namespace e2ebench {

/** Parsed command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of one measured window. */
    double seconds = 5.0;
    /** 0 = end-to-end metrics; 1 = traced ladder + per-layer metrics. */
    bool trace = false;
    /** Print the generated inputs' digest and properties, then exit. */
    bool dump_inputs = false;
    /** Where the traced run writes its spans ("" = do not write). */
    std::string span_dir;
};

/** One named diagnostic value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one invocation reports. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Self-check failures; any entry makes the run incorrect. */
    std::vector<std::string> problems;
    /**
     * Metric values by name; units live in the metric catalogue
     * (main.cc), which mirrors BENCHMARK.json.
     */
    std::map<std::string, double> values;
    /** Ungated diagnostics printed before the result line. */
    std::vector<Metric> diagnostics;
    /** Per-window host disturbance (steal share of /proc/stat). */
    std::vector<std::pair<std::string, double>> steal;
    /** Sample counts behind the reported figures. */
    std::map<std::string, std::uint64_t> samples;

    void set(const std::string &name, double value) { values[name] = value; }

    void
    diag(const std::string &name, double value, const std::string &unit)
    {
        diagnostics.push_back(Metric{name, value, unit});
    }

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            problems.push_back(what);
    }

    bool correct() const { return problems.empty() && failed == 0; }
};

// ------------------------------------------------------------ clocks

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Peak resident set size of the process in MB. */
double peakRssMb();

/** CPU model string from /proc/cpuinfo ("" when unavailable). */
std::string cpuModel();

// ----------------------------------------------------- window monitor

/**
 * Lets the load run kWarmupSeconds before the measured window starts;
 * what completes then is not measured. It splits the window into fixed
 * sub-windows and samples, at each boundary, the host's steal jiffies
 * and the CPU time of the process minus that of the load generator's
 * own threads. A sub-window whose steal share exceeds kStealLimit was
 * disturbed by the host: the window is extended by one sub-window, to
 * at most kMaxStretch times its length. Metrics are then taken over the planned number of sub-windows with
 * the least steal, so a disturbance the extension absorbed leaves no
 * trace in them.
 */
class WindowMonitor
{
  public:
    static constexpr double kWarmupSeconds = 2.0;
    static constexpr double kSubWindowSeconds = 0.25;
    static constexpr double kStealLimit = 0.03;
    static constexpr double kMaxStretch = 1.5;

    struct Sub
    {
        double steal = 0.0;
        /** Process CPU minus the load generator's, seconds. */
        double program_cpu_s = 0.0;
        /** The load generator's (and this monitor's) CPU, seconds. */
        double load_cpu_s = 0.0;
    };

    /** A window of `seconds`, starting kWarmupSeconds after construction. */
    explicit WindowMonitor(double seconds);

    WindowMonitor(const WindowMonitor &) = delete;
    WindowMonitor &operator=(const WindowMonitor &) = delete;

    Clock::time_point start() const { return start_; }

    /**
     * Load threads keep sending while this holds: until run() has
     * sampled its last boundary, so every sub-window, extra ones
     * included, runs under the full load.
     */
    bool
    running() const
    {
        return !finished_.load(std::memory_order_acquire);
    }

    /** Count `t`'s CPU time as load-generator time (before run()). */
    void addLoadThread(std::thread &t);

    /** Sample every boundary on the calling thread until the end. */
    void run();

    std::size_t subWindows() const { return subs_.size(); }
    const Sub &sub(std::size_t i) const { return subs_[i]; }
    /** Sub-window index of `t`; subWindows() when outside. */
    std::size_t indexOf(Clock::time_point t) const;
    /** One of the planned number of sub-windows with the least steal. */
    bool usable(std::size_t i) const { return usable_[i]; }
    /** Sub-windows added because others were disturbed. */
    std::size_t repeated() const { return repeated_; }
    std::size_t disturbed() const { return disturbed_; }
    /** Steal share over the whole window. */
    double steal() const { return steal_; }
    double width() const { return kSubWindowSeconds; }

  private:
    double loadCpuSeconds() const;

    Clock::time_point start_;
    std::size_t planned_ = 0;
    std::size_t target_ = 0;
    std::size_t limit_ = 0;
    std::atomic<bool> finished_{false};
    std::vector<clockid_t> load_clocks_;
    std::vector<Sub> subs_;
    std::vector<bool> usable_;
    std::size_t repeated_ = 0;
    std::size_t disturbed_ = 0;
    double steal_ = 0.0;
};

// -------------------------------------------------------- statistics

/** Linear-interpolated percentile (p in [0, 100]); 0 for no data. */
double percentile(std::vector<double> values, double p);

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

/** num / den, or 0 when there is nothing to divide by. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The highest percentile q (from 50, 90, 99, 99.9) that leaves at
 * least ten samples above it, with the count of samples above it.
 */
std::pair<double, std::size_t> supportedTailPercentile(std::size_t n);

// ------------------------------------------------------------- spans

/**
 * In-memory span log of the traced run. Spans of one question share
 * its id; a span's parent is 0 for a root. Thread-safe appends;
 * written out once, at exit.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string question_id;
        std::uint32_t id = 0;
        std::uint32_t parent = 0;
        double start_us = 0.0;
        double end_us = 0.0;
    };

    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Record one finished span; returns its id. */
    std::uint32_t add(const std::string &name,
                      const std::string &question_id,
                      std::uint32_t parent, Clock::time_point start,
                      Clock::time_point end);

    /** Open a span whose children are recorded before it ends. */
    std::uint32_t
    begin(const std::string &name, const std::string &question_id,
          std::uint32_t parent, Clock::time_point start)
    {
        return add(name, question_id, parent, start, start);
    }

    /** Close a span opened with begin(). */
    void end(std::uint32_t id, Clock::time_point end);

    std::size_t size() const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChromeJson(const std::string &path) const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::uint32_t next_id_ = 1;
};

} // namespace e2ebench

#endif // E2EBENCH_BENCH_HH
