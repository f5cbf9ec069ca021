/**
 * @file
 * Shard-level ownership and views of the trace database (§4.3 data
 * organization, partitioned).
 *
 * A TraceShard is the unit of ownership behind one
 * `<workload>_evictions_<policy>` key: the TraceEntry, the StatsExpert
 * the builder computed from its table (immutable, so concurrent
 * askBatch workers share it without synchronization), and the
 * workload's shared symbol table reached through the entry's table.
 *
 * TraceShardView is a cheap handle to one shard. ShardSet is an
 * immutable, key-sorted view over many shards — the read surface that
 * retrievers, the query interpreter, and the benchmark generator
 * consume instead of a whole mutable database reference, so the ask
 * hot path touches no global mutable state.
 */

#ifndef CACHEMIND_DB_SHARD_HH
#define CACHEMIND_DB_SHARD_HH

#include <string>
#include <vector>

#include "db/index.hh"
#include "db/stats_expert.hh"
#include "db/table.hh"

namespace cachemind::db {

class TraceDatabase;

/** Canonical entry key: `<workload>_evictions_<policy>`. */
std::string shardKey(const std::string &workload,
                     const std::string &policy);

/** One `loaded_data[key]` entry. */
struct TraceEntry
{
    TraceTable table;
    /** Free-form whole-trace summary string (paper's `metadata`). */
    std::string metadata;
    /** Workload + policy description (paper's `description`). */
    std::string description;
    std::string workload;
    std::string policy;
};

/**
 * Unit of ownership for one (workload, policy) pair. Shards are
 * immutable after construction except for the table's lazily built
 * postings index, which is built exactly once under its once_flag —
 * safe to hit from any number of threads.
 */
class TraceShard
{
  public:
    TraceShard(std::string key, TraceEntry entry, StatsExpert expert)
        : key_(std::move(key)), entry_(std::move(entry)),
          expert_(std::move(expert))
    {
    }
    TraceShard(const TraceShard &) = delete;
    TraceShard &operator=(const TraceShard &) = delete;

    const std::string &key() const { return key_; }
    const TraceEntry &entry() const { return entry_; }
    const TraceTable &table() const { return entry_.table; }

    /** The workload's symbol table (nullptr when absent). */
    const trace::SymbolTable *
    symbols() const
    {
        return entry_.table.symbols();
    }

    /** The shard's statistics expert, computed by the builder. */
    const StatsExpert &stats() const { return expert_; }

    /**
     * The shard's postings index, built once under the table's
     * once_flag, thread-safe. Returns nullptr when the one-time build
     * failed — callers degrade to the reference scan path for this
     * shard.
     */
    const TraceIndex *index() const
    {
        return entry_.table.indexOrFallback();
    }

  private:
    std::string key_;
    TraceEntry entry_;
    StatsExpert expert_;
};

/**
 * Non-owning handle to one shard. Default-constructed views are
 * invalid; entry()/table()/key() must only be called on valid views,
 * stats()/symbols() return nullptr on invalid ones.
 */
class TraceShardView
{
  public:
    TraceShardView() = default;
    explicit TraceShardView(const TraceShard *shard) : shard_(shard) {}

    bool valid() const { return shard_ != nullptr; }
    explicit operator bool() const { return valid(); }

    const std::string &key() const { return shard_->key(); }
    const TraceEntry &entry() const { return shard_->entry(); }
    const TraceTable &table() const { return shard_->table(); }

    const StatsExpert *
    stats() const
    {
        return shard_ ? &shard_->stats() : nullptr;
    }

    /**
     * Lazily built postings index; nullptr on invalid views and on
     * shards whose index build failed (scan fallback).
     */
    const TraceIndex *
    index() const
    {
        return shard_ ? shard_->index() : nullptr;
    }

    const trace::SymbolTable *
    symbols() const
    {
        return shard_ ? shard_->symbols() : nullptr;
    }

  private:
    const TraceShard *shard_ = nullptr;
};

/**
 * Immutable, key-sorted view over a set of shards. Cheap to copy
 * (a vector of pointers); the shards — and hence the database that
 * owns them — must outlive every view.
 */
class ShardSet
{
  public:
    ShardSet() = default;

    /**
     * Bridging view over every shard of a database. Deliberately
     * implicit: call sites that passed `const TraceDatabase &` into
     * retrievers, the interpreter, or the generator keep compiling
     * while now receiving only the read surface.
     */
    ShardSet(const TraceDatabase &db);

    /** View over an explicit shard list (sorted by key internally). */
    explicit ShardSet(std::vector<const TraceShard *> shards);

    /** Handle for one key; invalid view when absent. */
    TraceShardView shard(const std::string &key) const;
    TraceShardView shard(const std::string &workload,
                         const std::string &policy) const;

    /**
     * Subset holding every policy shard of one workload — the natural
     * scope for cross-policy comparison intents.
     */
    ShardSet forWorkload(const std::string &workload) const;

    /** Lookup by key; nullptr if absent. */
    const TraceEntry *find(const std::string &key) const;
    const TraceEntry *find(const std::string &workload,
                           const std::string &policy) const;

    /** The key's statistics expert; nullptr if absent. */
    const StatsExpert *statsFor(const std::string &key) const;

    /** Thread-safe lazily built postings index; nullptr if absent. */
    const TraceIndex *indexFor(const std::string &key) const;

    /**
     * Pre-build every shard's postings index on a parallelFor pool
     * (build_threads = 0 means one thread per hardware core), instead
     * of letting a sweep's first queries pay the builds serially.
     * Idempotent and safe to race with concurrent queries: each build
     * still runs under its shard's once_flag, so warm-while-querying
     * never double-builds. Returns the number of shards that were
     * still unbuilt when the warm pass started.
     */
    std::size_t warmIndexes(std::size_t build_threads = 0) const;

    /**
     * Aggregate index instrumentation over every shard in the view:
     * which shards have paid the one-time build, the total build
     * cost, and the scan work the postings have avoided. Never forces
     * a build — unbuilt shards simply do not contribute.
     */
    IndexTotals indexTotals() const;

    /** All keys, sorted. */
    std::vector<std::string> keys() const;

    /** Distinct workload names present, sorted. */
    std::vector<std::string> workloads() const;

    /** Distinct policy names present, sorted. */
    std::vector<std::string> policies() const;

    std::size_t size() const { return shards_.size(); }
    bool empty() const { return shards_.empty(); }

  private:
    const TraceShard *lookup(const std::string &key) const;

    /** Sorted by key (binary-search lookups, deterministic order). */
    std::vector<const TraceShard *> shards_;
};

} // namespace cachemind::db

#endif // CACHEMIND_DB_SHARD_HH
