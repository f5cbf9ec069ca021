/**
 * @file
 * The compressed secondary tier of the retrieval cache.
 *
 * Bundles demoted out of the LRU hot tier land here in the binary
 * codec form (bundle_codec.hh) instead of being destroyed: a
 * long-tail question distribution mostly re-hits memory, and decoding
 * a stored bundle is orders of magnitude cheaper than re-running
 * retrieval. The tier budgets *bytes* (encoded size), not entries.
 *
 * The tier is exclusive: a hit removes the entry and returns the
 * decoded bundle for the orchestrator to re-promote into the hot
 * tier, so each resident key lives in exactly one tier. All
 * operations take one short mutex — this tier is only touched on the
 * hot tier's miss path, never on a hot hit.
 */

#ifndef CACHEMIND_RETRIEVAL_SECONDARY_TIER_HH
#define CACHEMIND_RETRIEVAL_SECONDARY_TIER_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "retrieval/cache_tier.hh"

namespace cachemind::retrieval {

/** Byte-budgeted store of codec-encoded demoted bundles. */
class SecondaryTier
{
  public:
    /** @param capacity_bytes Encoded-payload budget (exact). */
    explicit SecondaryTier(std::size_t capacity_bytes);

    /** Decode + remove on hit (caller re-promotes the bundle). */
    BundlePtr lookup(const std::string &key);

    /**
     * Admit the encoded form of `value`, first copy wins. Returns the
     * oldest entries evicted to make room (null values: only their
     * encoded form existed), or the offered entry itself when it
     * alone exceeds the byte budget.
     */
    std::vector<Displaced> insert(const std::string &key,
                                  BundlePtr value);

    std::size_t entries() const;
    std::size_t bytes() const;
    std::size_t capacityBytes() const { return capacity_bytes_; }

    TierStats stats() const;

  private:
    struct Entry
    {
        std::string encoded;
        std::list<std::string>::iterator order_it;
    };

    /** Charged footprint of one entry. Caller holds mu_. */
    static std::size_t chargeOf(const std::string &key,
                                const std::string &encoded)
    {
        return key.size() + encoded.size();
    }

    const std::size_t capacity_bytes_;

    mutable std::mutex mu_;
    std::size_t bytes_ = 0;
    /** Eviction order, oldest admission first. */
    std::list<std::string> order_;
    std::unordered_map<std::string, Entry> map_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t insertions_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t decode_failures_ = 0;
    std::uint64_t encoded_bytes_total_ = 0;
    std::uint64_t decoded_bytes_total_ = 0;
};

} // namespace cachemind::retrieval

#endif // CACHEMIND_RETRIEVAL_SECONDARY_TIER_HH
