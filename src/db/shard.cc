#include "db/shard.hh"

#include <algorithm>
#include <set>
#include <thread>

#include "base/parallel.hh"
#include "db/database.hh"

namespace cachemind::db {

std::string
shardKey(const std::string &workload, const std::string &policy)
{
    return workload + "_evictions_" + policy;
}

namespace {

bool
keyLess(const TraceShard *a, const TraceShard *b)
{
    return a->key() < b->key();
}

} // namespace

ShardSet::ShardSet(const TraceDatabase &db) : ShardSet(db.shards()) {}

ShardSet::ShardSet(std::vector<const TraceShard *> shards)
    : shards_(std::move(shards))
{
    std::sort(shards_.begin(), shards_.end(), keyLess);
}

const TraceShard *
ShardSet::lookup(const std::string &key) const
{
    const auto it = std::lower_bound(
        shards_.begin(), shards_.end(), key,
        [](const TraceShard *s, const std::string &k) {
            return s->key() < k;
        });
    if (it == shards_.end() || (*it)->key() != key)
        return nullptr;
    return *it;
}

TraceShardView
ShardSet::shard(const std::string &key) const
{
    return TraceShardView(lookup(key));
}

TraceShardView
ShardSet::shard(const std::string &workload,
                const std::string &policy) const
{
    return shard(shardKey(workload, policy));
}

ShardSet
ShardSet::forWorkload(const std::string &workload) const
{
    std::vector<const TraceShard *> subset;
    for (const auto *s : shards_) {
        if (s->entry().workload == workload)
            subset.push_back(s);
    }
    return ShardSet(std::move(subset));
}

const TraceEntry *
ShardSet::find(const std::string &key) const
{
    const TraceShard *s = lookup(key);
    return s ? &s->entry() : nullptr;
}

const TraceEntry *
ShardSet::find(const std::string &workload,
               const std::string &policy) const
{
    return find(shardKey(workload, policy));
}

const StatsExpert *
ShardSet::statsFor(const std::string &key) const
{
    const TraceShard *s = lookup(key);
    return s ? &s->stats() : nullptr;
}

const TraceIndex *
ShardSet::indexFor(const std::string &key) const
{
    const TraceShard *s = lookup(key);
    return s ? s->index() : nullptr;
}

std::size_t
ShardSet::warmIndexes(std::size_t build_threads) const
{
    // Only the shards that have not paid their one-time build yet:
    // a second warm pass (or one racing a sweep that already built
    // some shards) scans the once-flags and returns without spawning
    // any thread.
    std::vector<const TraceShard *> pending;
    for (const auto *s : shards_) {
        const TraceTable &t = s->table();
        if (!t.indexIfBuilt() && !t.indexBuildFailed())
            pending.push_back(s);
    }
    if (pending.empty())
        return 0;
    const std::size_t threads =
        build_threads ? build_threads
                      : std::max<std::size_t>(
                            std::thread::hardware_concurrency(), 1);
    parallelFor(pending.size(), threads,
                [&](std::size_t i) { pending[i]->index(); });
    return pending.size();
}

IndexTotals
ShardSet::indexTotals() const
{
    IndexTotals totals;
    for (const auto *s : shards_) {
        const TraceIndex *idx = s->table().indexIfBuilt();
        if (!idx)
            continue;
        ++totals.shards_indexed;
        totals.build_ms_total += idx->buildMs();
        totals.lookups += idx->lookups();
        totals.rows_skipped += idx->rowsSkipped();
        const PostingsOpsCounters &k = idx->kernelCounters();
        totals.kernel_galloping +=
            k.galloping.load(std::memory_order_relaxed);
        totals.kernel_merge_simd +=
            k.merge_simd.load(std::memory_order_relaxed);
        totals.kernel_merge_scalar +=
            k.merge_scalar.load(std::memory_order_relaxed);
        totals.kernel_bitmap +=
            k.bitmap_words.load(std::memory_order_relaxed);
        totals.kernel_bitmap_probe +=
            k.bitmap_probe.load(std::memory_order_relaxed);
        totals.simd_ops += k.simd_ops.load(std::memory_order_relaxed);
        totals.scalar_ops +=
            k.scalar_ops.load(std::memory_order_relaxed);
        totals.array_chunks += idx->arrayChunks();
        totals.bitmap_chunks += idx->bitmapChunks();
        totals.postings_bytes += idx->postingsBytes();
    }
    return totals;
}

std::vector<std::string>
ShardSet::keys() const
{
    std::vector<std::string> out;
    out.reserve(shards_.size());
    for (const auto *s : shards_)
        out.push_back(s->key());
    return out;
}

std::vector<std::string>
ShardSet::workloads() const
{
    std::set<std::string> seen;
    for (const auto *s : shards_)
        seen.insert(s->entry().workload);
    return {seen.begin(), seen.end()};
}

std::vector<std::string>
ShardSet::policies() const
{
    std::set<std::string> seen;
    for (const auto *s : shards_)
        seen.insert(s->entry().policy);
    return {seen.begin(), seen.end()};
}

} // namespace cachemind::db
