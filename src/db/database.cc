#include "db/database.hh"

#include "base/logging.hh"

namespace cachemind::db {

std::string
TraceDatabase::keyFor(const std::string &workload,
                      const std::string &policy)
{
    return shardKey(workload, policy);
}

const trace::SymbolTable *
TraceDatabase::addSymbols(const std::string &workload,
                          trace::SymbolTable symbols)
{
    auto owned = std::make_unique<trace::SymbolTable>(std::move(symbols));
    const trace::SymbolTable *ptr = owned.get();
    symbols_[workload] = std::move(owned);
    return ptr;
}

const trace::SymbolTable *
TraceDatabase::symbolsFor(const std::string &workload) const
{
    const auto it = symbols_.find(workload);
    return it == symbols_.end() ? nullptr : it->second.get();
}

void
TraceDatabase::addEntry(TraceEntry entry, StatsExpert expert)
{
    std::string key = keyFor(entry.workload, entry.policy);
    auto shard = std::make_unique<TraceShard>(key, std::move(entry),
                                              std::move(expert));
    shards_[std::move(key)] = std::move(shard);
}

const TraceEntry *
TraceDatabase::find(const std::string &key) const
{
    const auto it = shards_.find(key);
    return it == shards_.end() ? nullptr : &it->second->entry();
}

const TraceEntry *
TraceDatabase::find(const std::string &workload,
                    const std::string &policy) const
{
    return find(keyFor(workload, policy));
}

const StatsExpert *
TraceDatabase::statsFor(const std::string &key) const
{
    const auto it = shards_.find(key);
    return it == shards_.end() ? nullptr : &it->second->stats();
}

TraceShardView
TraceDatabase::shard(const std::string &key) const
{
    const auto it = shards_.find(key);
    return TraceShardView(it == shards_.end() ? nullptr
                                              : it->second.get());
}

TraceShardView
TraceDatabase::shard(const std::string &workload,
                     const std::string &policy) const
{
    return shard(keyFor(workload, policy));
}

ShardSet
TraceDatabase::shards() const
{
    std::vector<const TraceShard *> all;
    all.reserve(shards_.size());
    for (const auto &[key, shard] : shards_)
        all.push_back(shard.get());
    return ShardSet(std::move(all));
}

std::vector<std::string>
TraceDatabase::keys() const
{
    std::vector<std::string> out;
    out.reserve(shards_.size());
    for (const auto &[key, shard] : shards_)
        out.push_back(key);
    return out;
}

std::vector<std::string>
TraceDatabase::workloads() const
{
    return shards().workloads();
}

std::vector<std::string>
TraceDatabase::policies() const
{
    return shards().policies();
}

} // namespace cachemind::db
