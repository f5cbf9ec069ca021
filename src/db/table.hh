/**
 * @file
 * The per-trace "dataframe" of the external database (§4.3).
 *
 * Storage is columnar. PCs are interned (a table holds a handful),
 * while each row's address is a plain 64-bit column: nearly every
 * access touches a new address, so a dictionary would compress
 * nothing, and the lazy index answers address filters from one
 * address-sorted row array instead. Every replayed access is one row,
 * and the cache stamps each resident line with the (pc, stream index)
 * of its last touch, so a victim is stored as the index of that
 * earlier row, and a row's access history is the rows just before it.
 *
 * A row's snapshot (the lines resident in its set) is not stored at
 * all: it is rebuilt from the set's earlier rows. Each row keeps the
 * way it hit or filled, the number of valid ways before it, and a
 * link to the previous non-bypassed row of its set. The LLC fills the
 * lowest invalid way and never invalidates, so the valid ways are
 * always ways 0..n-1, and way w holds the line of the latest
 * non-bypassed row of the set that touched w. row() follows the links
 * back until it has that row for each of the n ways (18.6 links on
 * average over the default database), then lists them in way order.
 *
 * A row's policy scores are derived from the same rows when the
 * policy promises a policy::ScoreRule: each row keeps one touch
 * value, the score its way reads at the next row, and a valid way's
 * score is its last toucher's value, plus the rows since that touch
 * when scores age by one per access. A never-touched way reads one
 * per-table value (plus the row's index when scores age). append()
 * learns each value from the set's next row and checks every score
 * of every later row against it. A policy with no rule stores all
 * `ways` scores of every row, with no offsets. The three distance
 * columns are 32-bit (a distance is bounded by the table's length).
 * The default 12-table database (1,723,348 rows, all four policies
 * with a rule) stores 44 bytes per row (columnBytes()) and builds
 * into ~114 MB of resident memory. Rows (AccessRow) carry no source
 * context: a PC's function name, source and disassembly come from
 * symbols(), which renders a PC to the same bytes every time —
 * required for exact-match grading in CacheMindBench.
 */

#ifndef CACHEMIND_DB_TABLE_HH
#define CACHEMIND_DB_TABLE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "policy/replacement.hh"
#include "sim/llc_replay.hh"
#include "trace/symbols.hh"

namespace cachemind::db {

class TraceIndex;

/** Numeric sentinel for "no value" (-1 in the paper's dataframes). */
constexpr std::int64_t kNoValue = -1;

/** One (pc, address) pair in snapshot/history columns. */
struct PcAddr
{
    std::uint64_t pc = 0;
    std::uint64_t address = 0;

    bool
    operator==(const PcAddr &other) const
    {
        return pc == other.pc && address == other.address;
    }
};

/** A materialised row (per-PC source context: TraceTable::symbols()). */
struct AccessRow
{
    std::uint64_t index = 0;
    std::uint64_t program_counter = 0;
    std::uint64_t memory_address = 0;
    std::uint32_t cache_set_id = 0;
    /** true = Cache Miss (the paper's `evict` column semantics). */
    bool is_miss = false;
    bool bypassed = false;
    sim::MissType miss_type = sim::MissType::None;

    bool has_victim = false;
    /** Base byte address of the evicted line (0 when none). */
    std::uint64_t evicted_address = 0;

    std::int64_t accessed_reuse_distance = kNoValue;
    std::int64_t accessed_recency = kNoValue;
    std::int64_t evicted_reuse_distance = kNoValue;
    bool wrong_eviction = false;

    /** Textual recency descriptor (schema's accessed_address_recency). */
    std::string recency_text;

    std::vector<PcAddr> current_cache_lines;
    std::vector<std::uint64_t> cache_line_eviction_scores;
    std::vector<PcAddr> recent_access_history;
};

/** Columnar per-trace table. */
class TraceTable
{
  public:
    TraceTable();
    ~TraceTable();
    // Move-only: the lazy postings index holds a once_flag. Moves are
    // build-phase only (single-threaded), like all table mutation.
    TraceTable(TraceTable &&) noexcept;
    TraceTable &operator=(TraceTable &&) noexcept;
    TraceTable(const TraceTable &) = delete;
    TraceTable &operator=(const TraceTable &) = delete;

    /** The workload's per-PC source context (non-owning). */
    void setSymbols(const trace::SymbolTable *symbols)
    {
        symbols_ = symbols;
    }
    const trace::SymbolTable *symbols() const { return symbols_; }

    /** Line size used to render line base addresses; set before append. */
    void setLineBytes(std::uint32_t bytes) { line_bytes_ = bytes; }

    /** Rows rendered as each row's recent_access_history. */
    void setHistoryLen(std::uint32_t n) { history_len_ = n; }

    /**
     * Associativity of the replayed cache (at most 255): every event
     * carries exactly this many scores and at most this many resident
     * lines. 0 (the default) means events carry neither. Set before
     * append.
     */
    void setWays(std::uint32_t ways);

    /**
     * The rule the replayed policy's scores follow
     * (ReplacementPolicy::scoreRule()): None (the default) stores
     * every score, the other two derive them. Set before append.
     */
    void setScoreRule(policy::ScoreRule rule);

    /**
     * Reserve every column for `rows` rows: one touch value each under
     * a score rule, setWays() scores each without one.
     */
    void reserve(std::size_t rows);

    /**
     * Append one replay event as row `ev.index`, which must equal
     * size(). The victim is stored as its last-touch row, and the
     * snapshot as the link to the set's latest earlier row, so those
     * rows must already be in the table. Asserts what row() relies
     * on to rebuild the snapshot and the scores: entry k was last
     * touched in way k, the set's valid ways grow only by fills,
     * every event carries exactly setWays() scores, and under a
     * score rule every score is the one the rule derives.
     */
    void append(const sim::ReplayEvent &ev);

    std::size_t size() const { return pc_id_.size(); }
    bool empty() const { return pc_id_.empty(); }

    // ----- Fast columnar accessors (no string work) -----
    std::uint64_t pcAt(std::size_t i) const { return pcs_[pc_id_[i]]; }
    /**
     * Dictionary id of row `i`'s PC: dense from 0, in order of each
     * PC's first appearance.
     */
    std::uint32_t pcIdAt(std::size_t i) const { return pc_id_[i]; }
    std::uint64_t addressAt(std::size_t i) const { return addr_[i]; }
    std::uint32_t setAt(std::size_t i) const { return set_[i]; }
    bool isMissAt(std::size_t i) const { return flagAt(i, kMissBit); }
    bool bypassedAt(std::size_t i) const
    {
        return flagAt(i, kBypassBit);
    }
    bool hasVictimAt(std::size_t i) const
    {
        return flagAt(i, kVictimBit);
    }
    bool wrongEvictionAt(std::size_t i) const
    {
        return flagAt(i, kWrongBit);
    }
    sim::MissType missTypeAt(std::size_t i) const
    {
        return static_cast<sim::MissType>(miss_type_[i]);
    }
    /** Forward reuse distance in LLC accesses (kNoValue if none). */
    std::int64_t reuseDistanceAt(std::size_t i) const
    {
        return reuse_[i];
    }
    /** Backward recency in LLC accesses (kNoValue on first touch). */
    std::int64_t recencyAt(std::size_t i) const { return recency_[i]; }
    std::int64_t evictedReuseDistanceAt(std::size_t i) const
    {
        return evicted_reuse_[i];
    }
    /** Base byte address of the victim line (0 when none). */
    std::uint64_t evictedAddressAt(std::size_t i) const
    {
        return hasVictimAt(i) ? lineAddressAt(evicted_row_[i]) : 0;
    }
    std::uint64_t evictedPcAt(std::size_t i) const
    {
        return hasVictimAt(i) ? pcAt(evicted_row_[i]) : 0;
    }

    /** Textual recency descriptor used in the string column. */
    std::string recencyTextAt(std::size_t i) const;

    /**
     * Unique PCs appearing in the table, ascending — served from the
     * postings index's build-time cache (no per-call sort).
     */
    const std::vector<std::uint64_t> &uniquePcs() const;
    /** Unique sets touched, ascending (index-cached, no re-sort). */
    const std::vector<std::uint32_t> &uniqueSets() const;

    /** Reference O(n) unique-PC listing (equivalence tests). */
    std::vector<std::uint64_t> uniquePcsScan() const;
    /** Reference O(n) unique-set listing (equivalence tests). */
    std::vector<std::uint32_t> uniqueSetsScan() const;

    /** Does this exact (pc) appear anywhere? O(1). */
    bool containsPc(std::uint64_t pc) const;

    /** Dictionary id for a PC value; nullopt when absent. */
    std::optional<std::uint32_t> pcIdOf(std::uint64_t pc) const;

    /**
     * Row indices matching optional pc/address filters, ascending.
     * Served from the index: a PC alone decodes its postings; an
     * address walks its rows in the index's address-sorted array and
     * checks the PC column. Byte-identical to filterScan, sublinear
     * in the table size. Row ids are uint32 to match the postings
     * width.
     */
    std::vector<std::uint32_t>
    filter(const std::uint64_t *pc, const std::uint64_t *address,
           std::size_t limit = 0) const;

    /**
     * Reference O(n) row walk with identical semantics to filter():
     * the pre-index scan path, kept for equivalence tests and
     * scan-mode retrievers (never touches the index).
     */
    std::vector<std::uint32_t>
    filterScan(const std::uint64_t *pc, const std::uint64_t *address,
               std::size_t limit = 0) const;

    /**
     * The table's postings index, built lazily exactly once under a
     * once_flag — safe to hit from any number of concurrent readers.
     * Asserts that the build succeeded; callers that can degrade
     * should use indexOrFallback() instead.
     */
    const TraceIndex &index() const;
    /**
     * The postings index, or nullptr when its one-time build failed
     * (fault injection, resource exhaustion). Failure is sticky: the
     * build is never retried, so every reader of this table degrades
     * to the reference scan path consistently instead of flapping
     * between indexed and scanned answers.
     */
    const TraceIndex *indexOrFallback() const;
    /** Did the one-time index build fail for good? */
    bool indexBuildFailed() const;
    /** The index if some reader already built it; nullptr otherwise. */
    const TraceIndex *indexIfBuilt() const;

    /**
     * Materialise row `i`'s columns (no per-PC source context). The
     * snapshot is rebuilt by walking the set's earlier rows, and
     * under a score rule the scores are derived from the same rows.
     */
    AccessRow row(std::size_t i) const;

    /**
     * Bytes reserved by the columns: capacity times element size,
     * summed over every column (the PC dictionary's hash map and the
     * lazy index are not counted).
     */
    std::size_t columnBytes() const;

  private:
    friend class TraceIndex;
    static constexpr std::uint8_t kMissBit = 1 << 0;
    static constexpr std::uint8_t kBypassBit = 1 << 1;
    static constexpr std::uint8_t kVictimBit = 1 << 2;
    static constexpr std::uint8_t kWrongBit = 1 << 3;
    /** touch_ holds the row's value: a later row of its set listed it. */
    static constexpr std::uint8_t kTouchBit = 1 << 4;
    /**
     * link_ of a row with no earlier non-bypassed row in its set, and
     * the toucher of a way no row touched.
     */
    static constexpr std::uint32_t kNoRow = 0xffffffffu;

    bool
    flagAt(std::size_t i, std::uint8_t bit) const
    {
        return (flags_[i] & bit) != 0;
    }

    /** Base byte address of the line row `j` accessed. */
    std::uint64_t
    lineAddressAt(std::size_t j) const
    {
        return addressAt(j) / line_bytes_ * line_bytes_;
    }

    /**
     * Row `i`'s score of a way last touched by row `j` (kNoRow: never
     * touched) under a score rule: the toucher's value, plus the rows
     * since the touch when scores age. A never-touched way ages from
     * row -1, which kNoRow is modulo 2^32.
     */
    std::uint32_t
    derivedScore(std::size_t i, std::uint32_t j) const
    {
        const std::uint32_t value = j == kNoRow ? untouched_ : touch_[j];
        if (score_rule_ != policy::ScoreRule::AgesPerAccess)
            return value;
        return value + static_cast<std::uint32_t>(i - j - 1);
    }

    std::uint32_t internPc(std::uint64_t pc);

    const trace::SymbolTable *symbols_ = nullptr;
    std::uint32_t line_bytes_ = 64;
    std::uint32_t history_len_ = 0;
    std::uint32_t ways_ = 0;
    policy::ScoreRule score_rule_ = policy::ScoreRule::None;
    /** Score of a way no row touched, less the row index if aging. */
    std::uint32_t untouched_ = 0;

    // PC dictionary.
    std::vector<std::uint64_t> pcs_;
    std::unordered_map<std::uint64_t, std::uint32_t> pc_lookup_;

    // Core columns.
    std::vector<std::uint32_t> pc_id_;
    std::vector<std::uint64_t> addr_;
    std::vector<std::uint32_t> set_;
    std::vector<std::uint8_t> flags_;
    std::vector<std::uint8_t> miss_type_;
    // Distances; -1 is kNoValue.
    std::vector<std::int32_t> reuse_;
    std::vector<std::int32_t> recency_;
    std::vector<std::int32_t> evicted_reuse_;
    /** Victim's last-touch row (0 when none). */
    std::vector<std::uint32_t> evicted_row_;

    // Snapshot columns: row() rebuilds row i's resident lines from
    // them (see the file comment).
    /** Way the row hit or filled (0 when bypassed). */
    std::vector<std::uint8_t> way_;
    /** Valid ways of the set before the row: its snapshot's size. */
    std::vector<std::uint8_t> valid_;
    /** Previous non-bypassed row of the same set (kNoRow if none). */
    std::vector<std::uint32_t> link_;
    /**
     * Under a score rule: the score the way row i touched reads at
     * the set's next row, less the rows between if aging; 0 until
     * that row is appended, and for ever in a bypassed row.
     */
    std::vector<std::uint32_t> touch_;
    /** Without one: row i's scores, [i * ways_, (i + 1) * ways_). */
    std::vector<std::uint32_t> scores_;

    /**
     * Lazily built postings index. Heap-allocated so the table stays
     * movable during the single-threaded build phase; the once_flag
     * makes the build race-free once concurrent readers arrive.
     */
    struct LazyIndex
    {
        std::once_flag once;
        std::atomic<bool> built{false};
        /** Build threw; sticky — readers use the scan path forever. */
        std::atomic<bool> failed{false};
        std::unique_ptr<TraceIndex> index;
        /**
         * Scan-computed unique listings, built once on the first
         * uniquePcs()/uniqueSets() call after a failed index build so
         * the by-reference listing accessors keep working (and stay
         * byte-identical to the index's build-time cache).
         */
        std::once_flag fallback_once;
        std::vector<std::uint64_t> fallback_pcs;
        std::vector<std::uint32_t> fallback_sets;
    };
    mutable std::unique_ptr<LazyIndex> lazy_;

    /** Populate the fallback listings exactly once. */
    void ensureFallbackListings() const;
};

} // namespace cachemind::db

#endif // CACHEMIND_DB_TABLE_HH
