#include "sim/cache.hh"

#include "base/logging.hh"

namespace cachemind::sim {

Cache::Cache(CacheConfig cfg,
             std::unique_ptr<policy::ReplacementPolicy> policy)
    : cfg_(std::move(cfg)), policy_(std::move(policy))
{
    CM_ASSERT(cfg_.sets > 0 && cfg_.ways > 0, "cache geometry");
    CM_ASSERT(policy_ != nullptr, "cache requires a policy");
    policy_->configure(cfg_.sets, cfg_.ways);
    sets_.assign(cfg_.sets,
                 std::vector<policy::LineMeta>(cfg_.ways));
}

CacheAccessResult
Cache::access(const policy::AccessInfo &info)
{
    CacheAccessResult res;
    const std::uint32_t set = setOf(info.line);
    res.set = set;
    auto &lines = sets_[set];
    ++stats_.accesses;

    // Hit path.
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (lines[w].valid && lines[w].line == info.line) {
            res.hit = true;
            res.way = w;
            lines[w].last_pc = info.pc;
            lines[w].last_access_index = info.access_index;
            lines[w].last_next_use = info.next_use;
            if (info.type == trace::AccessType::Store ||
                info.type == trace::AccessType::Writeback) {
                lines[w].dirty = true;
            }
            ++stats_.hits;
            policy_->onHit(set, w, info);
            return res;
        }
    }

    ++stats_.misses;

    // External (use-case) bypass filter first, then policy bypass.
    if (bypass_filter_ && bypass_filter_(info.pc)) {
        res.bypassed = true;
        ++stats_.bypasses;
        return res;
    }
    if (policy_->shouldBypass(set, info, lines)) {
        res.bypassed = true;
        ++stats_.bypasses;
        return res;
    }

    // Fill an invalid way if one exists.
    std::uint32_t way = cfg_.ways;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (!lines[w].valid) {
            way = w;
            break;
        }
    }

    if (way == cfg_.ways) {
        way = policy_->chooseVictim(set, info, lines);
        CM_ASSERT(way < cfg_.ways, "victim way out of range from ",
                  policy_->name());
        policy::LineMeta &victim = lines[way];
        res.evicted = true;
        res.evicted_line = victim.line;
        res.evicted_pc = victim.last_pc;
        res.evicted_last_index = victim.last_access_index;
        res.evicted_dirty = victim.dirty;
        ++stats_.evictions;
        if (victim.dirty)
            ++stats_.writebacks;
        policy_->onEvict(set, way, info);
    }

    policy::LineMeta &slot = lines[way];
    slot.valid = true;
    slot.dirty = info.type == trace::AccessType::Store ||
                 info.type == trace::AccessType::Writeback;
    slot.line = info.line;
    slot.last_pc = info.pc;
    slot.last_access_index = info.access_index;
    slot.insert_index = info.access_index;
    slot.last_next_use = info.next_use;
    res.way = way;
    policy_->onInsert(set, way, info);
    return res;
}

bool
Cache::probe(std::uint64_t line) const
{
    const auto &lines = sets_[setOf(line)];
    for (const auto &l : lines) {
        if (l.valid && l.line == line)
            return true;
    }
    return false;
}

void
Cache::markDirty(std::uint64_t line)
{
    auto &lines = sets_[setOf(line)];
    for (auto &l : lines) {
        if (l.valid && l.line == line) {
            l.dirty = true;
            return;
        }
    }
}

bool
Cache::invalidate(std::uint64_t line)
{
    auto &lines = sets_[setOf(line)];
    for (auto &l : lines) {
        if (l.valid && l.line == line) {
            l.valid = false;
            l.dirty = false;
            return true;
        }
    }
    return false;
}

const std::vector<policy::LineMeta> &
Cache::linesOf(std::uint32_t set) const
{
    CM_ASSERT(set < cfg_.sets, "set index out of range");
    return sets_[set];
}

void
Cache::setScores(std::uint32_t set,
                 std::vector<std::uint64_t> &scores) const
{
    CM_ASSERT(set < cfg_.sets, "set index out of range");
    scores.resize(cfg_.ways);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w)
        scores[w] = policy_->lineScore(set, w);
}

} // namespace cachemind::sim
