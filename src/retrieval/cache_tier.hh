/**
 * @file
 * The types the retrieval cache's two tiers share: the LRU hot tier
 * (hot_tier.hh) and the compressed secondary tier (secondary_tier.hh).
 *
 * A tier is a bounded key -> bundle store with its own admission and
 * eviction policy. Tiers do not know about each other: demotion is
 * the RetrievalCache's job, driven by the entries the hot tier
 * displaces on insert.
 */

#ifndef CACHEMIND_RETRIEVAL_CACHE_TIER_HH
#define CACHEMIND_RETRIEVAL_CACHE_TIER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "retrieval/context.hh"

namespace cachemind::retrieval {

/** Lifetime counters and occupancy for one cache tier. */
struct TierStats
{
    /** Lookups served / not served by this tier. */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Entries admitted into the tier. */
    std::uint64_t insertions = 0;
    /** Entries displaced out of the tier by capacity pressure. */
    std::uint64_t evictions = 0;
    /** Offered entries the tier refused to admit (e.g. oversized). */
    std::uint64_t rejected = 0;
    /**
     * Stored entries whose payload failed to decode on lookup. Each
     * counts as a miss, the entry is dropped (the next request
     * recomputes and re-admits cleanly), and the broken bytes are
     * never surfaced. Zero for tiers that store decoded values.
     */
    std::uint64_t decode_failures = 0;

    /** Resident entries right now. */
    std::size_t entries = 0;
    /** Entry budget (0 when the tier budgets bytes, not entries). */
    std::size_t capacity = 0;

    /** Resident payload bytes (encoded form; byte-budgeted tiers). */
    std::size_t bytes = 0;
    /** Byte budget (0 when the tier budgets entries, not bytes). */
    std::size_t capacity_bytes = 0;

    /**
     * Cumulative encoded / decoded payload bytes over every admitted
     * entry; their ratio is the tier's compression ratio (< 1 means
     * the encoded form is smaller). Zero for uncompressed tiers.
     */
    std::uint64_t encoded_bytes_total = 0;
    std::uint64_t decoded_bytes_total = 0;

    double
    compressionRatio() const
    {
        return decoded_bytes_total == 0
                   ? 0.0
                   : static_cast<double>(encoded_bytes_total) /
                         static_cast<double>(decoded_bytes_total);
    }
};

/** A context bundle as the tiers hold it: immutable and shared. */
using BundlePtr = std::shared_ptr<const ContextBundle>;

/**
 * An entry displaced out of a tier by its insert(). A non-null value
 * may be re-admitted into a lower tier (demotion); a null value
 * records an entry that is gone for good (the tier only held an
 * encoded form and dropped it, or refused the offered entry).
 */
struct Displaced
{
    std::string key;
    BundlePtr value;
};

} // namespace cachemind::retrieval

#endif // CACHEMIND_RETRIEVAL_CACHE_TIER_HH
