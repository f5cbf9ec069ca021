/**
 * @file
 * The external trace database (§4.3 "Data organization").
 *
 * Entries are keyed `<workload>_evictions_<policy>` and carry the
 * per-access dataframe, a free-form metadata summary string, and a
 * human-readable description — exactly the three fields of the paper's
 * `loaded_data` dictionary. The database also owns the per-workload
 * symbol tables that back the string columns.
 *
 * Internally the database is partitioned into per-(workload, policy)
 * TraceShards (see db/shard.hh): each shard owns its entry and the
 * StatsExpert the builder computed from it, so concurrent readers share
 * immutable experts and no global cache. Mutation (addEntry/addSymbols)
 * is build-phase only: it is not synchronized against readers, and
 * views handed out by shard()/shards() are invalidated by it.
 */

#ifndef CACHEMIND_DB_DATABASE_HH
#define CACHEMIND_DB_DATABASE_HH

#include <map>
#include <memory>
#include <string>

#include "db/shard.hh"
#include "db/stats_expert.hh"
#include "db/table.hh"

namespace cachemind::db {

/** The full external store. */
class TraceDatabase
{
  public:
    TraceDatabase() = default;
    TraceDatabase(TraceDatabase &&) = default;
    TraceDatabase &operator=(TraceDatabase &&) = default;
    TraceDatabase(const TraceDatabase &) = delete;
    TraceDatabase &operator=(const TraceDatabase &) = delete;

    /** Canonical key: `<workload>_evictions_<policy>`. */
    static std::string keyFor(const std::string &workload,
                              const std::string &policy);

    /** Register a workload's symbol table (stable address). */
    const trace::SymbolTable *
    addSymbols(const std::string &workload, trace::SymbolTable symbols);

    const trace::SymbolTable *symbolsFor(const std::string &workload)
        const;

    /**
     * Add an entry with the expert computed from its table (both
     * moved in). Replacing an existing key swaps in a whole new shard:
     * TraceEntry pointers, expert pointers, and shard views previously
     * obtained for that key dangle afterwards. Mutation is build-phase
     * only — never add entries while engines or retrievers hold views
     * of this database.
     */
    void addEntry(TraceEntry entry, StatsExpert expert);

    /** Lookup by key; nullptr if absent. */
    const TraceEntry *find(const std::string &key) const;

    /** Lookup by workload + policy names; nullptr if absent. */
    const TraceEntry *find(const std::string &workload,
                           const std::string &policy) const;

    /**
     * Statistics expert for an entry key; nullptr if absent. Experts
     * are built with the database and immutable, so any number of
     * threads may read them.
     */
    const StatsExpert *statsFor(const std::string &key) const;

    /** Handle to one shard; invalid view when the key is absent. */
    TraceShardView shard(const std::string &key) const;
    TraceShardView shard(const std::string &workload,
                         const std::string &policy) const;

    /** Read-only view over every shard (what retrievers consume). */
    ShardSet shards() const;

    /** All keys, sorted. */
    std::vector<std::string> keys() const;

    /** Distinct workload names present, sorted. */
    std::vector<std::string> workloads() const;

    /** Distinct policy names present, sorted. */
    std::vector<std::string> policies() const;

    std::size_t size() const { return shards_.size(); }

  private:
    /** unique_ptr: views point at shards, which need stable addresses. */
    std::map<std::string, std::unique_ptr<TraceShard>> shards_;
    std::map<std::string, std::unique_ptr<trace::SymbolTable>> symbols_;
};

} // namespace cachemind::db

#endif // CACHEMIND_DB_DATABASE_HH
