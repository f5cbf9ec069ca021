#include "base/stats_util.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace cachemind::stats {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
variance(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs)
        acc += (x - m) * (x - m);
    return acc / static_cast<double>(xs.size());
}

double
stdev(const std::vector<double> &xs)
{
    return std::sqrt(variance(xs));
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    if (n % 2)
        return xs[n / 2];
    return 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
percentile(std::vector<double> xs, double p)
{
    std::sort(xs.begin(), xs.end());
    return percentileSorted(xs, p);
}

double
percentileSorted(const std::vector<double> &xs, double p)
{
    if (xs.empty())
        return 0.0;
    if (p <= 0.0)
        return xs.front();
    if (p >= 100.0)
        return xs.back();
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= xs.size())
        return xs.back();
    return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

double
pearson(const std::vector<double> &xs, const std::vector<double> &ys)
{
    CM_ASSERT(xs.size() == ys.size(), "pearson requires equal sizes");
    const std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

Summary
summarize(const std::vector<double> &xs)
{
    Summary s;
    RunningStats rs;
    for (double x : xs)
        rs.push(x);
    s.count = rs.count();
    s.min = rs.min();
    s.max = rs.max();
    s.mean = rs.mean();
    s.stdev = rs.stdev();
    return s;
}

void
RunningStats::push(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
RunningStats::stdev() const
{
    return std::sqrt(variance());
}

namespace {

/** Samples from here up count in the histogram's top bucket. */
constexpr std::uint64_t kTopUs = std::uint64_t{1} << 32;

/** Bucket of a sample of `us` whole microseconds. */
std::size_t
bucketOf(std::uint64_t us)
{
    if (us < 16)
        return static_cast<std::size_t>(us);
    if (us >= kTopUs)
        return Histogram::kBuckets - 1;
    // us lies in [2^e, 2^(e+1)); its top five bits pick the bucket.
    const int e = 63 - __builtin_clzll(us);
    return static_cast<std::size_t>(e - 3) * 16 +
           static_cast<std::size_t>((us >> (e - 4)) & 15);
}

/** Midpoint, in microseconds, of the whole values bucket `b` holds. */
double
bucketMidUs(std::size_t b)
{
    const std::size_t octave = b / 16;
    if (octave == 0)
        return static_cast<double>(b);
    const std::uint64_t width = std::uint64_t{1} << (octave - 1);
    const std::uint64_t lo = (16 + b % 16) * width;
    return static_cast<double>(lo) +
           static_cast<double>(width - 1) / 2.0;
}

} // namespace

void
Histogram::record(double ms)
{
    if (!(ms >= 0.0))
        ms = 0.0; // negative or NaN
    const double us =
        std::min(ms * 1000.0 + 0.5, static_cast<double>(kTopUs));
    ++counts_[bucketOf(static_cast<std::uint64_t>(us))];
    if (count_ == 0 || ms < min_ms_)
        min_ms_ = ms;
    if (count_ == 0 || ms > max_ms_)
        max_ms_ = ms;
    ++count_;
    sum_ms_ += ms;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    for (std::size_t b = 0; b < kBuckets; ++b)
        counts_[b] += other.counts_[b];
    min_ms_ = count_ ? std::min(min_ms_, other.min_ms_) : other.min_ms_;
    max_ms_ = count_ ? std::max(max_ms_, other.max_ms_) : other.max_ms_;
    count_ += other.count_;
    sum_ms_ += other.sum_ms_;
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    // Nearest rank: the ceil(p% of n)-th smallest sample, at least the
    // first.
    const double n = static_cast<double>(count_);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(std::clamp(p, 0.0, 100.0) * n / 100.0)));
    std::size_t b = 0;
    for (std::uint64_t seen = counts_[0]; seen < rank;)
        seen += counts_[++b];
    return std::clamp(bucketMidUs(b) / 1000.0, min_ms_, max_ms_);
}

} // namespace cachemind::stats
