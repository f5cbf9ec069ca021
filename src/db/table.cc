#include "db/table.hh"

#include <algorithm>
#include <array>

#include "base/failpoint.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "db/index.hh"

namespace cachemind::db {

// Out of line: LazyIndex holds a unique_ptr<TraceIndex>, so these
// need TraceIndex complete (db/index.hh is a .cc-only include).
TraceTable::TraceTable() : lazy_(std::make_unique<LazyIndex>()) {}
TraceTable::~TraceTable() = default;
TraceTable::TraceTable(TraceTable &&) noexcept = default;
TraceTable &TraceTable::operator=(TraceTable &&) noexcept = default;

const TraceIndex &
TraceTable::index() const
{
    const TraceIndex *idx = indexOrFallback();
    CM_ASSERT(idx != nullptr, "postings index build failed");
    return *idx;
}

const TraceIndex *
TraceTable::indexOrFallback() const
{
    std::call_once(lazy_->once, [this] {
        try {
            fail::maybeThrow("db.index_build");
            lazy_->index = std::make_unique<TraceIndex>(*this);
            lazy_->built.store(true, std::memory_order_release);
        } catch (...) {
            // The once_flag is flipped (the lambda returned), so the
            // failure is permanent for this table: concurrent and
            // future readers all take the scan path.
            lazy_->failed.store(true, std::memory_order_release);
        }
    });
    return lazy_->built.load(std::memory_order_acquire)
               ? lazy_->index.get()
               : nullptr;
}

bool
TraceTable::indexBuildFailed() const
{
    return lazy_->failed.load(std::memory_order_acquire);
}

const TraceIndex *
TraceTable::indexIfBuilt() const
{
    return lazy_->built.load(std::memory_order_acquire)
               ? lazy_->index.get()
               : nullptr;
}

void
TraceTable::setWays(std::uint32_t ways)
{
    CM_ASSERT(empty(), "ways set after rows were appended");
    // valid_ holds up to `ways`, and way_ up to ways - 1, in a byte.
    CM_ASSERT(ways <= 0xff, ways, " ways do not fit the way columns");
    ways_ = ways;
}

void
TraceTable::setScoreRule(policy::ScoreRule rule)
{
    CM_ASSERT(empty(), "score rule set after rows were appended");
    score_rule_ = rule;
}

void
TraceTable::reserve(std::size_t rows)
{
    pc_id_.reserve(rows);
    addr_.reserve(rows);
    set_.reserve(rows);
    flags_.reserve(rows);
    miss_type_.reserve(rows);
    reuse_.reserve(rows);
    recency_.reserve(rows);
    evicted_reuse_.reserve(rows);
    evicted_row_.reserve(rows);
    way_.reserve(rows);
    valid_.reserve(rows);
    link_.reserve(rows);
    if (score_rule_ == policy::ScoreRule::None)
        scores_.reserve(rows * ways_);
    else
        touch_.reserve(rows);
}

std::uint32_t
TraceTable::internPc(std::uint64_t pc)
{
    auto [it, inserted] = pc_lookup_.try_emplace(
        pc, static_cast<std::uint32_t>(pcs_.size()));
    if (inserted)
        pcs_.push_back(pc);
    return it->second;
}

namespace {

/** Rows a table may hold: every distance must fit an int32 column. */
constexpr std::size_t kMaxRows = std::size_t{1} << 31;

/** A score as its column value, saturated to 32 bits. */
std::uint32_t
toScore(std::uint64_t score)
{
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(score, 0xffffffffULL));
}

/** A distance as its column value: -1 (kNoValue) for the sentinel. */
std::int32_t
toColumn(std::uint64_t v)
{
    if (v == policy::kNoNextUse)
        return static_cast<std::int32_t>(kNoValue);
    CM_ASSERT(v < kMaxRows, "distance ", v, " does not fit an int32");
    return static_cast<std::int32_t>(v);
}

} // namespace

void
TraceTable::append(const sim::ReplayEvent &ev)
{
    const std::size_t next_row = size();
    CM_ASSERT(ev.index == next_row, "event ", ev.index,
              " appended as row ", next_row);
    CM_ASSERT(next_row + 1 < kMaxRows, "table full at ", next_row,
              " rows");
    CM_ASSERT(ev.line == ev.address / line_bytes_,
              "event line is not its address's line");
    CM_ASSERT(ev.scores.size() == ways_, "event carries ",
              ev.scores.size(), " scores for ", ways_, " ways");
    CM_ASSERT(ev.snapshot.size() <= ways_, "event snapshot holds ",
              ev.snapshot.size(), " lines for ", ways_, " ways");

    // The snapshot is stored as a link to the set's latest earlier
    // non-bypassed row, which touched one of the valid ways, so it is
    // the latest of the snapshot's last touches. Check what row()
    // walks on: entry k is way k (valid ways are a prefix), and the
    // link row left exactly `valid` ways valid.
    const auto valid = static_cast<std::uint32_t>(ev.snapshot.size());
    std::uint32_t link = 0;
    for (std::uint32_t k = 0; k < valid; ++k) {
        const sim::SnapshotEntry &entry = ev.snapshot[k];
        CM_ASSERT(entry.last_index < next_row,
                  "snapshot entry references a later row");
        const auto j = static_cast<std::uint32_t>(entry.last_index);
        CM_ASSERT(way_[j] == k, "row ", next_row, ": snapshot way ", k,
                  " was last touched by row ", j, " in way ",
                  static_cast<unsigned>(way_[j]));
        link = std::max(link, j);
    }
    CM_ASSERT(valid == 0 ||
                  valid == std::max<std::uint32_t>(valid_[link],
                                                   way_[link] + 1u),
              "row ", next_row, ": ", valid, " valid ways after row ",
              link);
    // A hit finds a valid way; a fill takes the first invalid one,
    // unless the set is full and it evicts. A table without ways
    // stores no snapshots, so its way column is not read.
    CM_ASSERT(ways_ == 0 || ev.bypassed ||
                  (ev.hit || ev.has_victim ? ev.way < valid
                                           : ev.way == valid),
              "row ", next_row, " touched way ", ev.way, " with ",
              valid, " valid ways");

    if (score_rule_ == policy::ScoreRule::None) {
        for (const auto score : ev.scores)
            scores_.push_back(toScore(score));
    } else {
        // Row 0 sees its set empty, so its way 0 gives the untouched
        // value. The set's first row after a toucher lists it, and
        // gives the toucher's value. Every score, those included, is
        // then checked against the rule.
        if (next_row == 0 && ways_ > 0)
            untouched_ = toScore(ev.scores[0]);
        for (std::uint32_t k = 0; k < ways_; ++k) {
            const std::uint32_t j =
                k < valid ? static_cast<std::uint32_t>(
                                ev.snapshot[k].last_index)
                          : kNoRow;
            const std::uint32_t score = toScore(ev.scores[k]);
            if (j != kNoRow && !flagAt(j, kTouchBit)) {
                // touch_[j] is still 0: the rule adds only the aging.
                touch_[j] = score - derivedScore(next_row, j);
                flags_[j] |= kTouchBit;
            }
            CM_ASSERT(derivedScore(next_row, j) == score, "row ",
                      next_row, ": way ", k, " scores ", score,
                      " where its policy's score rule gives ",
                      derivedScore(next_row, j));
        }
        touch_.push_back(0);
    }

    pc_id_.push_back(internPc(ev.pc));
    addr_.push_back(ev.address);
    set_.push_back(ev.set);

    std::uint8_t flags = 0;
    if (!ev.hit)
        flags |= kMissBit;
    if (ev.bypassed)
        flags |= kBypassBit;
    if (ev.has_victim)
        flags |= kVictimBit;
    if (ev.wrong_eviction)
        flags |= kWrongBit;
    flags_.push_back(flags);
    miss_type_.push_back(static_cast<std::uint8_t>(ev.miss_type));

    reuse_.push_back(toColumn(ev.reuse_distance));
    recency_.push_back(toColumn(ev.recency));
    evicted_reuse_.push_back(toColumn(ev.evicted_reuse_distance));
    CM_ASSERT(!ev.has_victim || ev.evicted_last_index < next_row,
              "victim references a later row");
    evicted_row_.push_back(
        ev.has_victim ? static_cast<std::uint32_t>(ev.evicted_last_index)
                      : 0);

    way_.push_back(static_cast<std::uint8_t>(ev.way));
    valid_.push_back(static_cast<std::uint8_t>(valid));
    link_.push_back(valid > 0 ? link : kNoRow);
}

std::string
TraceTable::recencyTextAt(std::size_t i) const
{
    const std::int64_t r = recency_[i];
    if (r == kNoValue)
        return "first access";
    if (r <= 64)
        return "very recent";
    if (r <= 1024)
        return "recent";
    if (r <= 16384)
        return "distant";
    return "very distant";
}

const std::vector<std::uint64_t> &
TraceTable::uniquePcs() const
{
    if (const TraceIndex *idx = indexOrFallback())
        return idx->uniquePcs();
    ensureFallbackListings();
    return lazy_->fallback_pcs;
}

const std::vector<std::uint32_t> &
TraceTable::uniqueSets() const
{
    if (const TraceIndex *idx = indexOrFallback())
        return idx->uniqueSets();
    ensureFallbackListings();
    return lazy_->fallback_sets;
}

void
TraceTable::ensureFallbackListings() const
{
    std::call_once(lazy_->fallback_once, [this] {
        lazy_->fallback_pcs = uniquePcsScan();
        lazy_->fallback_sets = uniqueSetsScan();
    });
}

std::vector<std::uint64_t>
TraceTable::uniquePcsScan() const
{
    std::vector<std::uint64_t> pcs(pcs_.begin(), pcs_.end());
    std::sort(pcs.begin(), pcs.end());
    return pcs;
}

std::vector<std::uint32_t>
TraceTable::uniqueSetsScan() const
{
    // Size the seen-bitmap once (it used to grow incrementally,
    // reallocating on every new high-water set id).
    std::uint32_t max_set = 0;
    for (const auto s : set_)
        max_set = std::max(max_set, s);
    std::vector<bool> seen(set_.empty() ? 0 : max_set + 1u, false);
    std::vector<std::uint32_t> out;
    for (const auto s : set_) {
        if (!seen[s]) {
            seen[s] = true;
            out.push_back(s);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
TraceTable::containsPc(std::uint64_t pc) const
{
    return pc_lookup_.count(pc) > 0;
}

std::optional<std::uint32_t>
TraceTable::pcIdOf(std::uint64_t pc) const
{
    const auto it = pc_lookup_.find(pc);
    if (it == pc_lookup_.end())
        return std::nullopt;
    return it->second;
}

std::vector<std::uint32_t>
TraceTable::filter(const std::uint64_t *pc, const std::uint64_t *address,
                   std::size_t limit) const
{
    if (!pc && !address)
        return filterScan(pc, address, limit);

    const auto pc_id = pc ? pcIdOf(*pc) : std::nullopt;
    if (pc && !pc_id)
        return {};

    const TraceIndex *idx_ptr = indexOrFallback();
    if (!idx_ptr)
        return filterScan(pc, address, limit);
    const TraceIndex &idx = *idx_ptr;
    std::vector<std::uint32_t> out;
    if (address) {
        // An address holds a few rows at most, so its ascending span
        // is always the shorter list: walk it and check the PC column.
        const RowSpan span = idx.addressRows(*address);
        for (const std::uint32_t i : span) {
            if (pc && pc_id_[i] != *pc_id)
                continue;
            out.push_back(i);
            if (limit && out.size() >= limit)
                break;
        }
        idx.noteLookup(span.size());
        return out;
    }

    const PostingsList post = idx.pcPostings(*pc_id);
    const std::size_t take =
        limit ? std::min(limit, post.size()) : post.size();
    decodeList(post, out, take);
    idx.noteLookup(take);
    return out;
}

std::vector<std::uint32_t>
TraceTable::filterScan(const std::uint64_t *pc,
                       const std::uint64_t *address,
                       std::size_t limit) const
{
    std::vector<std::uint32_t> out;
    std::uint32_t pc_id = 0;
    if (pc) {
        const auto it = pc_lookup_.find(*pc);
        if (it == pc_lookup_.end())
            return out;
        pc_id = it->second;
    }
    for (std::size_t i = 0; i < size(); ++i) {
        if (pc && pc_id_[i] != pc_id)
            continue;
        if (address && addr_[i] != *address)
            continue;
        out.push_back(static_cast<std::uint32_t>(i));
        if (limit && out.size() >= limit)
            break;
    }
    return out;
}

AccessRow
TraceTable::row(std::size_t i) const
{
    CM_ASSERT(i < size(), "row index out of range");
    AccessRow r;
    r.index = i;
    r.program_counter = pcAt(i);
    r.memory_address = addressAt(i);
    r.cache_set_id = set_[i];
    r.is_miss = isMissAt(i);
    r.bypassed = bypassedAt(i);
    r.miss_type = missTypeAt(i);
    r.has_victim = hasVictimAt(i);
    r.evicted_address = evictedAddressAt(i);
    r.accessed_reuse_distance = reuse_[i];
    r.accessed_recency = recency_[i];
    r.evicted_reuse_distance = evicted_reuse_[i];
    r.wrong_eviction = wrongEvictionAt(i);
    r.recency_text = recencyTextAt(i);

    // Way w holds the line of the latest earlier non-bypassed row of
    // the set that touched w: walk the set's rows back from i until
    // each valid way has its row, then list them in way order.
    const std::uint32_t valid = valid_[i];
    // toucher[w] is way w's row + 1; 0 until the walk finds it.
    std::array<std::uint32_t, 0xff> toucher{};
    if (valid > 0) {
        std::uint32_t found = 0;
        for (std::uint32_t j = link_[i]; found < valid; j = link_[j]) {
            CM_ASSERT(j != kNoRow, "row ", i, ": the set's history ",
                      "ends before ", valid, " ways are found");
            std::uint32_t &slot = toucher[way_[j]];
            if (slot == 0) {
                slot = j + 1;
                ++found;
            }
        }
        r.current_cache_lines.reserve(valid);
        for (std::uint32_t w = 0; w < valid; ++w) {
            const std::uint32_t j = toucher[w] - 1;
            r.current_cache_lines.push_back(
                PcAddr{pcAt(j), lineAddressAt(j)});
        }
    }
    if (score_rule_ == policy::ScoreRule::None) {
        const std::size_t first_score = i * ways_;
        r.cache_line_eviction_scores.assign(
            scores_.begin() + first_score,
            scores_.begin() + first_score + ways_);
    } else {
        // Ways past the valid ones were never touched: toucher[w] - 1
        // is kNoRow for them.
        r.cache_line_eviction_scores.reserve(ways_);
        for (std::uint32_t w = 0; w < ways_; ++w)
            r.cache_line_eviction_scores.push_back(
                derivedScore(i, toucher[w] - 1));
    }

    // The access history is the rows just before this one.
    for (std::size_t j = i - std::min<std::size_t>(i, history_len_);
         j < i; ++j)
        r.recent_access_history.push_back(PcAddr{pcAt(j), addressAt(j)});
    return r;
}

std::size_t
TraceTable::columnBytes() const
{
    const auto bytes = [](const auto &column) {
        return column.capacity() * sizeof(column[0]);
    };
    return bytes(pcs_) + bytes(pc_id_) + bytes(addr_) + bytes(set_) +
           bytes(flags_) + bytes(miss_type_) + bytes(reuse_) +
           bytes(recency_) + bytes(evicted_reuse_) +
           bytes(evicted_row_) + bytes(way_) + bytes(valid_) +
           bytes(link_) + bytes(touch_) + bytes(scores_);
}

} // namespace cachemind::db
