#include "db/table.hh"

#include <algorithm>

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
TraceTable::reserve(std::size_t rows, std::uint32_t ways)
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
    snap_off_.reserve(rows + 1);
    score_off_.reserve(rows + 1);
    snap_row_.reserve(rows * ways);
    scores_.reserve(rows * ways);
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

std::int64_t
toSigned(std::uint64_t v)
{
    return v == policy::kNoNextUse ? kNoValue
                                   : static_cast<std::int64_t>(v);
}

} // namespace

void
TraceTable::append(const sim::ReplayEvent &ev)
{
    const std::size_t next_row = size();
    CM_ASSERT(ev.index == next_row, "event ", ev.index,
              " appended as row ", next_row);
    CM_ASSERT(ev.line == ev.address / line_bytes_,
              "event line is not its address's line");
    if (snap_off_.empty()) {
        snap_off_.push_back(0);
        score_off_.push_back(0);
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

    reuse_.push_back(toSigned(ev.reuse_distance));
    recency_.push_back(toSigned(ev.recency));
    evicted_reuse_.push_back(toSigned(ev.evicted_reuse_distance));
    CM_ASSERT(!ev.has_victim || ev.evicted_last_index < next_row,
              "victim references a later row");
    evicted_row_.push_back(
        ev.has_victim ? static_cast<std::uint32_t>(ev.evicted_last_index)
                      : 0);

    for (const auto &entry : ev.snapshot) {
        CM_ASSERT(entry.last_index < next_row,
                  "snapshot entry references a later row");
        snap_row_.push_back(static_cast<std::uint32_t>(entry.last_index));
    }
    snap_off_.push_back(static_cast<std::uint32_t>(snap_row_.size()));

    for (const auto score : ev.scores) {
        scores_.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(score, 0xffffffffULL)));
    }
    score_off_.push_back(static_cast<std::uint32_t>(scores_.size()));
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

    for (std::uint32_t k = snap_off_[i]; k < snap_off_[i + 1]; ++k) {
        const std::uint32_t j = snap_row_[k];
        r.current_cache_lines.push_back(
            PcAddr{pcAt(j), lineAddressAt(j)});
    }
    for (std::uint32_t k = score_off_[i]; k < score_off_[i + 1]; ++k)
        r.cache_line_eviction_scores.push_back(scores_[k]);

    // The access history is the rows just before this one.
    for (std::size_t j = i - std::min<std::size_t>(i, history_len_);
         j < i; ++j)
        r.recent_access_history.push_back(PcAddr{pcAt(j), addressAt(j)});
    return r;
}

} // namespace cachemind::db
