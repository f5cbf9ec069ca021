/**
 * @file
 * Descriptive-statistics helpers shared by the statistics expert, the
 * insight analyzers, and the benchmark graders.
 */

#ifndef CACHEMIND_BASE_STATS_UTIL_HH
#define CACHEMIND_BASE_STATS_UTIL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cachemind::stats {

/** Arithmetic mean; 0 for an empty input. */
double mean(const std::vector<double> &xs);

/** Population variance; 0 for inputs of size < 2. */
double variance(const std::vector<double> &xs);

/** Population standard deviation. */
double stdev(const std::vector<double> &xs);

/** Median (average of middle two for even sizes); 0 if empty. */
double median(std::vector<double> xs);

/** Linear-interpolated percentile, p in [0, 100]. */
double percentile(std::vector<double> xs, double p);

/** Percentile over data the caller has already sorted ascending. */
double percentileSorted(const std::vector<double> &xs, double p);

/** Pearson correlation; 0 if undefined (constant input or size < 2). */
double pearson(const std::vector<double> &xs,
               const std::vector<double> &ys);

/** Min/max/mean/stdev bundle for one pass over the data. */
struct Summary
{
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double stdev = 0.0;
};

/** Single-pass summary of a vector. */
Summary summarize(const std::vector<double> &xs);

/**
 * Streaming mean/variance accumulator (Welford). Useful where storing
 * per-sample vectors would be wasteful (per-PC reuse statistics).
 */
class RunningStats
{
  public:
    void push(double x);
    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stdev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Mergeable latency histogram over milliseconds. Samples are bucketed
 * as whole microseconds on HdrHistogram's log-linear layout: exact
 * below 16 us, then 16 buckets per power of two, so a bucket is never
 * wider than 1/16 of the values it holds, up to 2^32 us (about 71
 * minutes); larger samples count in the top bucket. The buckets are a
 * fixed array, so record() and merge() never allocate, and merging
 * adds bucket counts: a merged percentile is as exact as one taken
 * over a histogram that recorded every sample itself.
 */
class Histogram
{
  public:
    /** Exact buckets [0, 16) us, then 16 per octave below 2^32 us. */
    static constexpr std::size_t kBuckets = (32 - 3) * 16;

    void record(double ms);
    /** Add `other`'s samples (bucket counts, sum, min and max). */
    void merge(const Histogram &other);

    std::uint64_t count() const { return count_; }
    /** Exact mean of the recorded samples; 0 when empty. */
    double
    mean() const
    {
        return count_ ? sum_ms_ / static_cast<double>(count_) : 0.0;
    }
    /**
     * Nearest-rank percentile, p in [0, 100]: the midpoint of the
     * bucket holding the rank-p sample, clamped to the observed min
     * and max; 0 when empty.
     */
    double percentile(double p) const;

  private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t count_ = 0;
    double sum_ms_ = 0.0;
    double min_ms_ = 0.0;
    double max_ms_ = 0.0;
};

} // namespace cachemind::stats

#endif // CACHEMIND_BASE_STATS_UTIL_HH
