/**
 * @file
 * The "Cache Statistical Expert" (§3.2.3): per-PC, per-set, and
 * whole-trace aggregate statistics computed from a TraceTable. Both
 * retrievers use it to assemble context, and the benchmark generator
 * uses it as the single source of ground truth.
 */

#ifndef CACHEMIND_DB_STATS_EXPERT_HH
#define CACHEMIND_DB_STATS_EXPERT_HH

#include <map>
#include <optional>
#include <vector>

#include "db/table.hh"

namespace cachemind::db {

/** Per-PC aggregates. */
struct PcStats
{
    std::uint64_t pc = 0;
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Accesses that caused an eviction. */
    std::uint64_t evictions_caused = 0;
    std::uint64_t wrong_evictions = 0;
    /** Accesses whose line is never used again. */
    std::uint64_t never_reused = 0;

    /** Mean forward reuse distance over finite samples. */
    double mean_reuse_distance = 0.0;
    double reuse_distance_stdev = 0.0;
    /** Mean forward reuse distance of lines this PC evicted. */
    double mean_evicted_reuse_distance = 0.0;
    /** Mean backward recency over finite samples. */
    double mean_recency = 0.0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
    double hitRate() const { return accesses ? 1.0 - missRate() : 0.0; }
    double
    wrongEvictionPct() const
    {
        return evictions_caused
                   ? 100.0 * static_cast<double>(wrong_evictions) /
                         static_cast<double>(evictions_caused)
                   : 0.0;
    }
};

/** Per-set aggregates (the set-hotness use case). */
struct SetStats
{
    std::uint32_t set = 0;
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;

    double
    hitRate() const
    {
        return accesses ? static_cast<double>(hits) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/** Whole-trace aggregates (the metadata summary string). */
struct TraceSummary
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t wrong_evictions = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;
    std::uint64_t unique_pcs = 0;
    /** Pearson correlation of recency vs miss outcome. */
    double recency_miss_correlation = 0.0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
    double
    wrongEvictionPct() const
    {
        return evictions ? 100.0 * static_cast<double>(wrong_evictions) /
                               static_cast<double>(evictions)
                         : 0.0;
    }
};

/**
 * Aggregator over one TraceTable. All statistics are computed once at
 * construction (single pass where possible) and served from maps; the
 * expert keeps no reference to the table, so it is a plain value.
 */
class StatsExpert
{
  public:
    explicit StatsExpert(const TraceTable &table);

    /** Stats for one PC; nullopt if the PC never appears. */
    std::optional<PcStats> pcStats(std::uint64_t pc) const;

    /** All per-PC stats, ascending by PC. */
    std::vector<PcStats> allPcStats() const;

    /** Stats for one set; nullopt if never touched. */
    std::optional<SetStats> setStats(std::uint32_t set) const;

    /** All touched sets, ascending. */
    std::vector<SetStats> allSetStats() const;

    /** Whole-trace summary. */
    const TraceSummary &summary() const { return summary_; }

    /** Hottest/coldest `n` sets by hit rate (ties by set id). */
    std::vector<SetStats> hottestSets(std::size_t n) const;
    std::vector<SetStats> coldestSets(std::size_t n) const;

    /** PCs ordered by a descending metric. */
    enum class PcOrder { MissCount, MissRate, Accesses,
                         MeanReuseDistance, ReuseStdev };
    std::vector<PcStats> topPcs(std::size_t n, PcOrder order) const;

  private:
    std::map<std::uint64_t, PcStats> pc_stats_;
    std::map<std::uint32_t, SetStats> set_stats_;
    TraceSummary summary_;
};

} // namespace cachemind::db

#endif // CACHEMIND_DB_STATS_EXPERT_HH
