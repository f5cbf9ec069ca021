#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

namespace e2ebench {

namespace {

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
processCpuSeconds()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuSeconds()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

/** Aggregate jiffies of the "cpu" line of /proc/stat. */
struct CpuJiffies
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
};

CpuJiffies
readCpuJiffies()
{
    CpuJiffies out;
    std::ifstream in("/proc/stat");
    std::string label;
    if (!(in >> label) || label != "cpu")
        return out;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    for (int field = 0; field < 8; ++field) {
        std::uint64_t v = 0;
        if (!(in >> v))
            break;
        out.total += v;
        if (field == 7)
            out.steal = v;
    }
    return out;
}

/** Steal share of the jiffies elapsed between two readings. */
double
stealShare(const CpuJiffies &a, const CpuJiffies &b)
{
    if (b.total <= a.total)
        return 0.0;
    return static_cast<double>(b.steal - a.steal) /
           static_cast<double>(b.total - a.total);
}

} // namespace

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return std::string();
}

WindowMonitor::WindowMonitor(double seconds)
    : start_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(kWarmupSeconds)))
{
    planned_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(seconds / kSubWindowSeconds)));
    target_ = planned_;
    limit_ = static_cast<std::size_t>(static_cast<double>(planned_) *
                                      kMaxStretch);
}

void
WindowMonitor::addLoadThread(std::thread &t)
{
    clockid_t id{};
    if (pthread_getcpuclockid(t.native_handle(), &id) == 0)
        load_clocks_.push_back(id);
}

double
WindowMonitor::loadCpuSeconds() const
{
    double total = threadCpuSeconds(); // the monitor itself
    for (const clockid_t id : load_clocks_)
        total += clockSeconds(id);
    return total;
}

void
WindowMonitor::run()
{
    const auto width = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kSubWindowSeconds));
    std::this_thread::sleep_until(start_);
    const CpuJiffies first = readCpuJiffies();
    CpuJiffies prev = first;
    double prev_proc = processCpuSeconds();
    double prev_load = loadCpuSeconds();
    for (std::size_t k = 0; k < target_; ++k) {
        std::this_thread::sleep_until(start_ + width * static_cast<int>(k + 1));
        const CpuJiffies now = readCpuJiffies();
        const double proc = processCpuSeconds();
        const double load = loadCpuSeconds();
        Sub sub;
        sub.steal = stealShare(prev, now);
        sub.load_cpu_s = load - prev_load;
        sub.program_cpu_s = (proc - prev_proc) - sub.load_cpu_s;
        subs_.push_back(sub);
        prev = now;
        prev_proc = proc;
        prev_load = load;
        if (sub.steal > kStealLimit) {
            ++disturbed_;
            if (target_ < limit_) {
                ++target_;
                ++repeated_;
            }
        }
    }
    finished_.store(true, std::memory_order_release);
    steal_ = stealShare(first, prev);

    std::vector<std::size_t> order(subs_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return subs_[a].steal < subs_[b].steal;
                     });
    usable_.assign(subs_.size(), false);
    for (std::size_t i = 0; i < planned_ && i < order.size(); ++i)
        usable_[order[i]] = true;
}

std::size_t
WindowMonitor::indexOf(Clock::time_point t) const
{
    if (t < start_)
        return subs_.size();
    const auto i = static_cast<std::size_t>(
        std::chrono::duration<double>(t - start_).count() / kSubWindowSeconds);
    return std::min(i, subs_.size());
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 *
        static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::pair<double, std::size_t>
supportedTailPercentile(std::size_t n)
{
    double best = 50.0;
    for (const double q : {50.0, 90.0, 99.0, 99.9}) {
        const double beyond = static_cast<double>(n) * (100.0 - q) / 100.0;
        if (beyond >= 10.0)
            best = q;
    }
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(n) * (100.0 - best) / 100.0));
    return {best, beyond};
}

std::uint32_t
SpanLog::add(const std::string &name, const std::string &question_id,
             std::uint32_t parent, Clock::time_point start,
             Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.name = name;
    span.question_id = question_id;
    span.id = next_id_++;
    span.parent = parent;
    span.start_us = microsBetween(origin_, start);
    span.end_us = microsBetween(origin_, end);
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
SpanLog::end(std::uint32_t id, Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mu_);
    // Ids are handed out in append order, starting at 1.
    if (id >= 1 && id <= spans_.size())
        spans_[id - 1].end_us = microsBetween(origin_, end);
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
SpanLog::writeChromeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const auto &s : spans_) {
        if (!first)
            out << ",";
        first = false;
        // Complete events ("X"); the question id groups a question's
        // spans on one track.
        std::ostringstream ev;
        ev.setf(std::ios::fixed);
        ev.precision(3);
        ev << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
           << "\"tid\":\"" << s.question_id << "\",\"ts\":" << s.start_us
           << ",\"dur\":" << (s.end_us - s.start_us)
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << "}}";
        out << ev.str();
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

} // namespace e2ebench
