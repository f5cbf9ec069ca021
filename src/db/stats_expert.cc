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

} // namespace

StatsExpert::StatsExpert(const TraceTable &table)
{
    std::map<std::uint64_t, PcAccum> accum;

    std::vector<double> recency_samples;
    std::vector<double> miss_samples;
    recency_samples.reserve(table.size());
    miss_samples.reserve(table.size());

    for (std::size_t i = 0; i < table.size(); ++i) {
        const std::uint64_t pc = table.pcAt(i);
        PcStats &ps = pc_stats_[pc];
        PcAccum &pa = accum[pc];
        ps.pc = pc;
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

        SetStats &ss = set_stats_[table.setAt(i)];
        ss.set = table.setAt(i);
        ++ss.accesses;
        if (!miss)
            ++ss.hits;
    }

    for (auto &[pc, ps] : pc_stats_) {
        const PcAccum &pa = accum[pc];
        ps.mean_reuse_distance = pa.reuse.mean();
        ps.reuse_distance_stdev = pa.reuse.stdev();
        ps.mean_evicted_reuse_distance = pa.evicted_reuse.mean();
        ps.mean_recency = pa.recency.mean();
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
