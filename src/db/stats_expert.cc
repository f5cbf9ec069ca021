#include "db/stats_expert.hh"

#include <algorithm>
#include <cmath>

#include "base/stats_util.hh"

namespace cachemind::db {

namespace {

/** Welford accumulators grouped per PC for reuse-distance stdev. */
struct PcAccum
{
    stats::RunningStats reuse;
    stats::RunningStats evicted_reuse;
    stats::RunningStats recency;
};

/** One PC's counters and accumulators during the build pass. */
struct PcSlot
{
    PcStats stats;
    PcAccum accum;
};

} // namespace

StatsExpert::StatsExpert(const TraceTable &table)
{
    // Accumulate into dense slots, then fill the maps once in key
    // order: PCs by dictionary id (a table holds a handful), sets by
    // value (at most the cache's set count).
    std::vector<PcSlot> pcs;
    std::vector<SetStats> sets;

    std::vector<double> recency_samples;
    std::vector<double> miss_samples;
    recency_samples.reserve(table.size());
    miss_samples.reserve(table.size());

    for (std::size_t i = 0; i < table.size(); ++i) {
        // Dictionary ids are dense in first-appearance order, so a new
        // PC's id is the next slot.
        const std::uint32_t pc_id = table.pcIdAt(i);
        if (pc_id == pcs.size()) {
            pcs.emplace_back();
            pcs.back().stats.pc = table.pcAt(i);
        }
        PcStats &ps = pcs[pc_id].stats;
        PcAccum &pa = pcs[pc_id].accum;
        ++ps.accesses;
        ++summary_.accesses;

        const bool miss = table.isMissAt(i);
        if (miss) {
            ++ps.misses;
            ++summary_.misses;
        } else {
            ++ps.hits;
        }
        switch (table.missTypeAt(i)) {
          case sim::MissType::Compulsory: ++summary_.compulsory; break;
          case sim::MissType::Capacity: ++summary_.capacity; break;
          case sim::MissType::Conflict: ++summary_.conflict; break;
          case sim::MissType::None: break;
        }
        if (table.bypassedAt(i))
            ++summary_.bypasses;
        if (table.hasVictimAt(i)) {
            ++ps.evictions_caused;
            ++summary_.evictions;
            if (table.wrongEvictionAt(i)) {
                ++ps.wrong_evictions;
                ++summary_.wrong_evictions;
            }
            const std::int64_t erd = table.evictedReuseDistanceAt(i);
            if (erd != kNoValue)
                pa.evicted_reuse.push(static_cast<double>(erd));
        }

        const std::int64_t rd = table.reuseDistanceAt(i);
        if (rd != kNoValue) {
            pa.reuse.push(static_cast<double>(rd));
        } else {
            ++ps.never_reused;
        }
        const std::int64_t rec = table.recencyAt(i);
        if (rec != kNoValue) {
            pa.recency.push(static_cast<double>(rec));
            recency_samples.push_back(static_cast<double>(rec));
            miss_samples.push_back(miss ? 1.0 : 0.0);
        }

        const std::uint32_t set = table.setAt(i);
        if (set >= sets.size())
            sets.resize(set + 1u);
        SetStats &ss = sets[set];
        ss.set = set;
        ++ss.accesses;
        if (!miss)
            ++ss.hits;
    }

    std::sort(pcs.begin(), pcs.end(),
              [](const PcSlot &a, const PcSlot &b) {
                  return a.stats.pc < b.stats.pc;
              });
    for (PcSlot &slot : pcs) {
        PcStats &ps = slot.stats;
        ps.mean_reuse_distance = slot.accum.reuse.mean();
        ps.reuse_distance_stdev = slot.accum.reuse.stdev();
        ps.mean_evicted_reuse_distance = slot.accum.evicted_reuse.mean();
        ps.mean_recency = slot.accum.recency.mean();
        pc_stats_.emplace_hint(pc_stats_.end(), ps.pc, ps);
    }
    for (const SetStats &ss : sets) {
        if (ss.accesses > 0)
            set_stats_.emplace_hint(set_stats_.end(), ss.set, ss);
    }

    summary_.unique_pcs = pc_stats_.size();
    summary_.recency_miss_correlation =
        stats::pearson(recency_samples, miss_samples);
}

std::optional<PcStats>
StatsExpert::pcStats(std::uint64_t pc) const
{
    const auto it = pc_stats_.find(pc);
    if (it == pc_stats_.end())
        return std::nullopt;
    return it->second;
}

std::vector<PcStats>
StatsExpert::allPcStats() const
{
    std::vector<PcStats> out;
    out.reserve(pc_stats_.size());
    for (const auto &[pc, ps] : pc_stats_)
        out.push_back(ps);
    return out;
}

std::optional<SetStats>
StatsExpert::setStats(std::uint32_t set) const
{
    const auto it = set_stats_.find(set);
    if (it == set_stats_.end())
        return std::nullopt;
    return it->second;
}

std::vector<SetStats>
StatsExpert::allSetStats() const
{
    std::vector<SetStats> out;
    out.reserve(set_stats_.size());
    for (const auto &[set, ss] : set_stats_)
        out.push_back(ss);
    return out;
}

std::vector<SetStats>
StatsExpert::hottestSets(std::size_t n) const
{
    auto sets = allSetStats();
    std::sort(sets.begin(), sets.end(),
              [](const SetStats &a, const SetStats &b) {
                  if (a.hitRate() != b.hitRate())
                      return a.hitRate() > b.hitRate();
                  return a.set < b.set;
              });
    if (sets.size() > n)
        sets.resize(n);
    return sets;
}

std::vector<SetStats>
StatsExpert::coldestSets(std::size_t n) const
{
    auto sets = allSetStats();
    std::sort(sets.begin(), sets.end(),
              [](const SetStats &a, const SetStats &b) {
                  if (a.hitRate() != b.hitRate())
                      return a.hitRate() < b.hitRate();
                  return a.set < b.set;
              });
    if (sets.size() > n)
        sets.resize(n);
    return sets;
}

std::vector<PcStats>
StatsExpert::topPcs(std::size_t n, PcOrder order) const
{
    auto pcs = allPcStats();
    auto metric = [order](const PcStats &p) -> double {
        switch (order) {
          case PcOrder::MissCount:
            return static_cast<double>(p.misses);
          case PcOrder::MissRate: return p.missRate();
          case PcOrder::Accesses:
            return static_cast<double>(p.accesses);
          case PcOrder::MeanReuseDistance:
            return p.mean_reuse_distance;
          case PcOrder::ReuseStdev: return p.reuse_distance_stdev;
        }
        return 0.0;
    };
    std::sort(pcs.begin(), pcs.end(),
              [&metric](const PcStats &a, const PcStats &b) {
                  const double ma = metric(a), mb = metric(b);
                  if (ma != mb)
                      return ma > mb;
                  return a.pc < b.pc;
              });
    if (pcs.size() > n)
        pcs.resize(n);
    return pcs;
}

} // namespace cachemind::db
