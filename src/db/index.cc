#include "db/index.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "base/stopwatch.hh"
#include "db/table.hh"

namespace cachemind::db {

namespace {

/** Transient flat CSR used during the build pass. */
struct FlatCsr
{
    std::vector<std::uint32_t> off;
    std::vector<std::uint32_t> rows;
};

/** CSR fill: prefix-sum offsets, then place rows in order. */
void
buildCsr(FlatCsr &csr, const std::vector<IndexKeyCounts> &counts,
         std::size_t n)
{
    csr.off.assign(counts.size() + 1, 0);
    for (std::size_t k = 0; k < counts.size(); ++k) {
        csr.off[k + 1] =
            csr.off[k] + static_cast<std::uint32_t>(counts[k].accesses);
    }
    csr.rows.resize(n);
}

/** Convert the flat CSR into chunked containers, key by key. */
void
chunkify(const FlatCsr &csr, PostingsStore &store)
{
    const std::size_t keys = csr.off.size() - 1;
    store.reserve(csr.rows.size(), keys);
    for (std::size_t k = 0; k < keys; ++k) {
        store.appendKey(csr.rows.data() + csr.off[k],
                        csr.off[k + 1] - csr.off[k]);
    }
    store.shrink();
}

/**
 * Sort the table's rows by (address, row) into `keys` (addresses) and
 * `rows`: a stable LSD radix sort over 11-bit digits. Rows start
 * ascending and every pass is stable, so one address's rows stay
 * ascending. A digit in which no address differs from the first is
 * skipped, so a table whose addresses span 2^k bytes pays ~k/11
 * passes.
 */
void
sortRowsByAddress(const std::vector<std::uint64_t> &addr,
                  std::vector<std::uint64_t> &keys,
                  std::vector<std::uint32_t> &rows)
{
    constexpr unsigned kDigitBits = 11;
    constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
    const std::size_t n = addr.size();
    keys = addr;
    rows.resize(n);
    std::iota(rows.begin(), rows.end(), 0u);

    std::uint64_t varying = 0;
    for (const std::uint64_t a : addr)
        varying |= a ^ keys[0];
    std::vector<std::uint64_t> keys_tmp;
    std::vector<std::uint32_t> rows_tmp;
    std::vector<std::uint32_t> offset(kBuckets);
    for (unsigned shift = 0; shift < 64; shift += kDigitBits) {
        if (((varying >> shift) & (kBuckets - 1)) == 0)
            continue;
        keys_tmp.resize(n);
        rows_tmp.resize(n);
        std::fill(offset.begin(), offset.end(), 0u);
        for (const std::uint64_t k : keys)
            ++offset[(k >> shift) & (kBuckets - 1)];
        std::uint32_t sum = 0;
        for (auto &o : offset)
            sum += std::exchange(o, sum);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t to =
                offset[(keys[i] >> shift) & (kBuckets - 1)]++;
            keys_tmp[to] = keys[i];
            rows_tmp[to] = rows[i];
        }
        keys.swap(keys_tmp);
        rows.swap(rows_tmp);
    }
}

} // namespace

TraceIndex::TraceIndex(const TraceTable &t)
{
    Stopwatch timer;
    rows_ = t.size();
    const std::size_t n = rows_;

    const std::size_t num_pcs = t.pcs_.size();
    std::uint32_t max_set = 0;
    for (const auto s : t.set_)
        max_set = std::max(max_set, s);
    const std::size_t num_sets = n == 0 ? 0 : max_set + 1u;

    pc_counts_.assign(num_pcs, IndexKeyCounts{});
    set_counts_.assign(num_sets, IndexKeyCounts{});

    // Pass 1: per-key and whole-table counters.
    for (std::size_t i = 0; i < n; ++i) {
        const bool miss = (t.flags_[i] & TraceTable::kMissBit) != 0;
        const bool evict = (t.flags_[i] & TraceTable::kVictimBit) != 0;
        for (IndexKeyCounts *c :
             {&pc_counts_[t.pc_id_[i]], &set_counts_[t.set_[i]]}) {
            ++c->accesses;
            c->misses += miss;
            c->evictions += evict;
        }
        ++totals_.accesses;
        totals_.misses += miss;
        totals_.evictions += evict;
    }

    // Pass 2: row-ordered postings per key space — first a transient
    // flat CSR (prefix-sum + scatter, exactly the old layout), then
    // converted key-by-key into chunked array/bitmap containers.
    // Filling in row order keeps every postings list ascending, which
    // is what makes indexed results byte-identical to the reference
    // scan.
    FlatCsr pc_csr;
    FlatCsr set_csr;
    buildCsr(pc_csr, pc_counts_, n);
    buildCsr(set_csr, set_counts_, n);
    std::vector<std::uint32_t> pc_fill(
        pc_csr.off.begin(), pc_csr.off.begin() + num_pcs);
    std::vector<std::uint32_t> set_fill(
        set_csr.off.begin(), set_csr.off.begin() + num_sets);
    for (std::size_t i = 0; i < n; ++i) {
        const auto row = static_cast<std::uint32_t>(i);
        pc_csr.rows[pc_fill[t.pc_id_[i]]++] = row;
        set_csr.rows[set_fill[t.set_[i]]++] = row;
    }
    chunkify(pc_csr, pc_store_);
    chunkify(set_csr, set_store_);

    // Pass 3: the rows by (address, row), for address lookups.
    sortRowsByAddress(t.addr_, sorted_addrs_, sorted_rows_);

    // Build-time unique listings (previously re-sorted per call).
    unique_pcs_.assign(t.pcs_.begin(), t.pcs_.end());
    std::sort(unique_pcs_.begin(), unique_pcs_.end());
    unique_sets_.reserve(64);
    for (std::uint32_t s = 0; s < num_sets; ++s) {
        if (set_counts_[s].accesses > 0)
            unique_sets_.push_back(s);
    }

    build_ms_ = timer.milliseconds();
}

PostingsList
TraceIndex::pcPostings(std::uint32_t pc_id) const
{
    return pc_store_.list(pc_id);
}

PostingsList
TraceIndex::setPostings(std::uint32_t set) const
{
    return set_store_.list(set);
}

RowSpan
TraceIndex::addressRows(std::uint64_t address) const
{
    const auto [lo, hi] = std::equal_range(
        sorted_addrs_.begin(), sorted_addrs_.end(), address);
    const std::uint32_t *rows = sorted_rows_.data();
    return RowSpan{rows + (lo - sorted_addrs_.begin()),
                   rows + (hi - sorted_addrs_.begin())};
}

const IndexKeyCounts *
TraceIndex::pcCounts(std::uint32_t pc_id) const
{
    return pc_id < pc_counts_.size() ? &pc_counts_[pc_id] : nullptr;
}

const IndexKeyCounts *
TraceIndex::setCounts(std::uint32_t set) const
{
    if (set >= set_counts_.size() || set_counts_[set].accesses == 0)
        return nullptr;
    return &set_counts_[set];
}

} // namespace cachemind::db
