/**
 * @file
 * Per-shard postings index over one TraceTable — the sublinear
 * execution substrate behind filter/DSL retrieval.
 *
 * The paper's trace-grounding contract (§4.3) turns every answer into
 * a query over a per-(workload, policy) dataframe; in a CacheMindBench
 * sweep nearly every question is *cold* (unique slots), so the
 * cross-question bundle cache never amortises the scan. The index
 * amortises it at the shard level instead: one build per shard yields
 * row-ordered postings keyed by PC dictionary id and by cache set,
 * precomputed per-key hit/miss/eviction counters, the sorted
 * unique-PC/set listings, and the table's rows sorted by (address,
 * row) — after which a PC or set filter is a postings lookup (or a
 * kernel intersection of the two), an address filter is a binary
 * search for that address's run of rows, and a counting aggregate
 * over one PC or set is an O(1) counter read.
 *
 * Addresses get no postings: nearly every access touches a new
 * address (a table's addresses number ~90% of its rows), so per-key
 * lists and counters would cost more than the rows they index. The
 * address-sorted array costs 12 B per row, is built by a stable LSD
 * radix sort, and yields an address's rows ascending.
 *
 * Postings are stored as roaring-style chunked containers
 * (db/postings_ops.hh): per 64K-row chunk either a sorted uint16 array
 * or a bitmap, intersected through the adaptive kernel selector
 * (galloping / SIMD merge / bitmap AND). Containers and address runs
 * preserve row order, so every consumer remains byte-identical to the
 * reference scan (enforced by randomized index-vs-scan equivalence
 * tests). The index is immutable after construction except for
 * relaxed instrumentation counters (lookups / rows skipped /
 * per-kernel dispatch counts) surfaced through EngineStats.
 */

#ifndef CACHEMIND_DB_INDEX_HH
#define CACHEMIND_DB_INDEX_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "db/postings_ops.hh"

namespace cachemind::db {

class TraceTable;

/** Precomputed aggregates for one postings key (pc or set). */
struct IndexKeyCounts
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    /** Accesses under this key that evicted a victim. */
    std::uint64_t evictions = 0;

    std::uint64_t hits() const { return accesses - misses; }
};

/**
 * Aggregate index instrumentation across a shard set (EngineStats):
 * how many shards have paid the one-time build, what it cost, how much
 * scan work the postings have avoided since, which intersection
 * kernels the adaptive selector picked, and the container mix.
 */
struct IndexTotals
{
    /** Shards whose lazy index has been built. */
    std::uint64_t shards_indexed = 0;
    /** Total one-time build cost across those shards. */
    double build_ms_total = 0.0;
    /** Indexed lookups served (filters + DSL aggregates). */
    std::uint64_t lookups = 0;
    /** Scan-equivalent rows the postings avoided walking. */
    std::uint64_t rows_skipped = 0;

    // ---- adaptive-selector dispatch counts (chunk pairs) ----
    std::uint64_t kernel_galloping = 0;
    std::uint64_t kernel_merge_simd = 0;
    std::uint64_t kernel_merge_scalar = 0;
    std::uint64_t kernel_bitmap = 0;
    std::uint64_t kernel_bitmap_probe = 0;
    /** Vector blocks processed by SIMD kernels. */
    std::uint64_t simd_ops = 0;
    /** Elements processed by scalar kernels. */
    std::uint64_t scalar_ops = 0;

    // ---- container mix across built shards (PC and set postings;
    // the address-sorted rows are not chunked) ----
    std::uint64_t array_chunks = 0;
    std::uint64_t bitmap_chunks = 0;
    /** PC and set postings payload bytes across built shards. */
    std::uint64_t postings_bytes = 0;
};

/** Borrowed ascending run of row ids: one address's rows. */
struct RowSpan
{
    const std::uint32_t *first = nullptr;
    const std::uint32_t *last = nullptr;

    const std::uint32_t *begin() const { return first; }
    const std::uint32_t *end() const { return last; }
    std::size_t size() const
    {
        return static_cast<std::size_t>(last - first);
    }
    bool empty() const { return first == last; }
};

/** The per-shard postings index. Build once, read from any thread. */
class TraceIndex
{
  public:
    /** One full build pass over the table (timed; see buildMs). */
    explicit TraceIndex(const TraceTable &table);

    std::size_t rows() const { return rows_; }
    /** Wall-clock cost of the constructor's build pass. */
    double buildMs() const { return build_ms_; }

    /** Whole-table counters (unfiltered aggregates). */
    const IndexKeyCounts &totals() const { return totals_; }

    // ---- postings by dictionary id / set value (row-ordered) ----
    PostingsList pcPostings(std::uint32_t pc_id) const;
    /** Postings for a set *value*; empty when the set is untouched. */
    PostingsList setPostings(std::uint32_t set) const;

    /**
     * The rows holding `address`, ascending; empty when the address
     * never appears. One binary search over the address-sorted rows.
     */
    RowSpan addressRows(std::uint64_t address) const;

    // ---- per-key counters (nullptr when the key is absent) ----
    const IndexKeyCounts *pcCounts(std::uint32_t pc_id) const;
    const IndexKeyCounts *setCounts(std::uint32_t set) const;

    /** Sorted unique PC values, cached at build time. */
    const std::vector<std::uint64_t> &uniquePcs() const
    {
        return unique_pcs_;
    }
    /** Sorted unique set values, cached at build time. */
    const std::vector<std::uint32_t> &uniqueSets() const
    {
        return unique_sets_;
    }

    /**
     * Adaptive kernel intersection of two chunked lists into `out`
     * (ascending row ids; stops once `limit` matches are found, 0 =
     * unbounded), feeding this index's kernel counters. Byte-identical
     * to the reference scan by the postings_ops invariant.
     */
    void intersect(const PostingsList &a, const PostingsList &b,
                   std::size_t limit,
                   std::vector<std::uint32_t> &out) const
    {
        intersectLists(a, b, limit, out, &kernel_counters_);
    }

    /**
     * Record one indexed operation that touched `rows_visited` rows
     * where a scan would have walked the whole table. Relaxed
     * counters: instrumentation only, never part of any answer.
     */
    void
    noteLookup(std::size_t rows_visited) const
    {
        lookups_.fetch_add(1, std::memory_order_relaxed);
        if (rows_visited < rows_) {
            rows_skipped_.fetch_add(rows_ - rows_visited,
                                    std::memory_order_relaxed);
        }
    }

    std::uint64_t
    lookups() const
    {
        return lookups_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    rowsSkipped() const
    {
        return rows_skipped_.load(std::memory_order_relaxed);
    }

    /** Kernel dispatch counters (the DSL's PC and set intersections). */
    const PostingsOpsCounters &kernelCounters() const
    {
        return kernel_counters_;
    }

    std::uint64_t
    arrayChunks() const
    {
        return pc_store_.arrayChunks() + set_store_.arrayChunks();
    }
    std::uint64_t
    bitmapChunks() const
    {
        return pc_store_.bitmapChunks() + set_store_.bitmapChunks();
    }
    std::size_t
    postingsBytes() const
    {
        return pc_store_.payloadBytes() + set_store_.payloadBytes();
    }

  private:
    std::size_t rows_ = 0;
    double build_ms_ = 0.0;
    IndexKeyCounts totals_;

    PostingsStore pc_store_;
    /** Set postings are keyed by set value (dense, small range). */
    PostingsStore set_store_;

    std::vector<IndexKeyCounts> pc_counts_;
    std::vector<IndexKeyCounts> set_counts_;

    /**
     * Every row sorted by (address, row): sorted_addrs_[k] is the
     * address of row sorted_rows_[k].
     */
    std::vector<std::uint64_t> sorted_addrs_;
    std::vector<std::uint32_t> sorted_rows_;

    std::vector<std::uint64_t> unique_pcs_;
    std::vector<std::uint32_t> unique_sets_;

    mutable std::atomic<std::uint64_t> lookups_{0};
    mutable std::atomic<std::uint64_t> rows_skipped_{0};
    mutable PostingsOpsCounters kernel_counters_;
};

} // namespace cachemind::db

#endif // CACHEMIND_DB_INDEX_HH
