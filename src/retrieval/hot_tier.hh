/**
 * @file
 * The hot tier of the retrieval cache: an exact-budget LRU of decoded
 * bundles behind one mutex.
 *
 * A hit moves the entry to the front of the recency list; an insert
 * evicts from the back until the new entry fits and hands the victims
 * to the caller, which demotes them into the compressed secondary
 * tier. Each operation holds the mutex for a few hash-map and list
 * steps. A lookup is part of a request that spends 100-300 µs of CPU
 * elsewhere, so the lock stays idle nearly all the time even when
 * every serving thread shares the tier.
 */

#ifndef CACHEMIND_RETRIEVAL_HOT_TIER_HH
#define CACHEMIND_RETRIEVAL_HOT_TIER_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "retrieval/cache_tier.hh"

namespace cachemind::retrieval {

/** Exact-capacity LRU over immutable context bundles. */
class HotTier
{
  public:
    /**
     * @param capacity Maximum resident bundles, exact: entries() never
     *        exceeds it. 0 disables the tier: every lookup misses and
     *        every insert hands its entry straight back.
     */
    explicit HotTier(std::size_t capacity);

    /** The bundle for `key`, now the most recent entry; nullptr on miss. */
    BundlePtr lookup(const std::string &key);

    /**
     * Admit `value` under `key` as the most recent entry, first copy
     * wins: when the key is already resident the offered value is
     * dropped and nothing is displaced. Otherwise the least recently
     * used entries are evicted until the new one fits and returned,
     * oldest first, for demotion.
     */
    std::vector<Displaced> insert(const std::string &key, BundlePtr value);

    /** Resident entries. */
    std::size_t entries() const;
    std::size_t capacity() const { return capacity_; }

    /** Lifetime counters + occupancy snapshot. */
    TierStats stats() const;

  private:
    struct Entry
    {
        BundlePtr value;
        std::list<std::string>::iterator order_it;
    };

    const std::size_t capacity_;

    mutable std::mutex mu_;
    /** Resident keys, most recently used first. */
    std::list<std::string> order_;
    std::unordered_map<std::string, Entry> map_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t insertions_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace cachemind::retrieval

#endif // CACHEMIND_RETRIEVAL_HOT_TIER_HH
