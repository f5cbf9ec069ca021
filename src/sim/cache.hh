/**
 * @file
 * Set-associative cache with a pluggable replacement policy.
 *
 * The cache is trace-driven (no data storage, tags only) in the
 * ChampSim style. It supports:
 *  - pluggable replacement via policy::ReplacementPolicy,
 *  - policy-initiated bypass (Belady/PARROT/Mockingjay) and an
 *    external per-PC bypass filter (the §6.3 bypass use case),
 *  - dirty-line writeback signalling to the next level, and
 *  - full introspection of resident lines and per-line policy scores
 *    (consumed by the database builder's snapshot columns).
 */

#ifndef CACHEMIND_SIM_CACHE_HH
#define CACHEMIND_SIM_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "policy/replacement.hh"

namespace cachemind::sim {

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint32_t sets = 2048;
    std::uint32_t ways = 16;
    std::uint32_t line_bytes = 64;
    /** Hit latency in cycles. */
    std::uint32_t latency = 26;
    /** Miss-status holding registers (bookkeeping only). */
    std::uint32_t mshrs = 64;

    std::uint64_t capacityBytes() const
    {
        return static_cast<std::uint64_t>(sets) * ways * line_bytes;
    }
};

/** Outcome of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** Line skipped insertion (policy or external bypass). */
    bool bypassed = false;
    std::uint32_t set = 0;
    /** Way hit or filled (0 when bypassed). */
    std::uint32_t way = 0;
    /** A valid line was evicted to make room. */
    bool evicted = false;
    std::uint64_t evicted_line = 0;
    std::uint64_t evicted_pc = 0;
    /** Evicted line's last-touch stream index. */
    std::uint64_t evicted_last_index = 0;
    /** Evicted line was dirty (writeback required). */
    bool evicted_dirty = false;
};

/** Aggregate counters for one cache level. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t writebacks = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }

    double hitRate() const { return accesses ? 1.0 - missRate() : 0.0; }
};

/** Tag-only set-associative cache. */
class Cache
{
  public:
    Cache(CacheConfig cfg,
          std::unique_ptr<policy::ReplacementPolicy> policy);

    /**
     * Perform one access. `info.line` must already hold the cache
     * line number (the hierarchy derives it from the address).
     */
    CacheAccessResult access(const policy::AccessInfo &info);

    /** Is `line` currently resident (no state change)? */
    bool probe(std::uint64_t line) const;

    /** Mark a resident line dirty (writeback arrival); no-op if absent. */
    void markDirty(std::uint64_t line);

    /** Invalidate a line if resident; returns true if it was. */
    bool invalidate(std::uint64_t line);

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }
    policy::ReplacementPolicy &policy() { return *policy_; }
    const policy::ReplacementPolicy &policy() const { return *policy_; }

    /** Set index for a line number. */
    std::uint32_t
    setOf(std::uint64_t line) const
    {
        return static_cast<std::uint32_t>(line % cfg_.sets);
    }

    /** Resident line metadata of one set (ways entries). */
    const std::vector<policy::LineMeta> &linesOf(std::uint32_t set) const;

    /**
     * Policy score of each way in a set (database snapshot column),
     * written into `scores`, which keeps its capacity across calls.
     */
    void setScores(std::uint32_t set,
                   std::vector<std::uint64_t> &scores) const;

    /**
     * External per-PC bypass filter; when it returns true the missing
     * line is not inserted. Models the conditional-bypass hardware fix
     * of §6.3 without touching the policy.
     */
    void
    setBypassFilter(std::function<bool(std::uint64_t pc)> filter)
    {
        bypass_filter_ = std::move(filter);
    }

  private:
    CacheConfig cfg_;
    std::unique_ptr<policy::ReplacementPolicy> policy_;
    CacheStats stats_;
    std::function<bool(std::uint64_t)> bypass_filter_;
    /** sets_ vectors of exactly `ways` LineMeta. */
    std::vector<std::vector<policy::LineMeta>> sets_;
};

} // namespace cachemind::sim

#endif // CACHEMIND_SIM_CACHE_HH
