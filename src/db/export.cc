#include "db/export.hh"

#include <ostream>
#include <sstream>

#include "base/str.hh"

namespace cachemind::db {

namespace {

/** CSV-quote a field if it contains separators or quotes. */
std::string
csvField(const std::string &value)
{
    if (value.find_first_of(",\"\n") == std::string::npos)
        return value;
    std::string out = "\"";
    for (const char c : value) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out += "\"";
    return out;
}

std::string
pairList(const std::vector<PcAddr> &pairs)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        os << (i ? ";" : "") << str::hex(pairs[i].pc) << ":"
           << str::hex(pairs[i].address);
    }
    return os.str();
}

} // namespace

std::string
csvHeader(const ExportOptions &options)
{
    std::string header =
        "index,program_counter,memory_address,cache_set_id,evict,"
        "miss_type,evicted_address,accessed_address_reuse_distance,"
        "accessed_address_recency,evicted_address_reuse_distance,"
        "wrong_eviction,accessed_address_recency_text,function_name";
    if (options.include_snapshots) {
        header += ",current_cache_lines,cache_line_eviction_scores,"
                  "recent_access_history";
    }
    return header;
}

std::string
csvRow(const TraceTable &table, std::size_t i,
       const ExportOptions &options)
{
    const AccessRow row = table.row(i);
    const trace::SymbolTable *symbols = table.symbols();
    std::ostringstream os;
    os << row.index << "," << str::hex(row.program_counter) << ","
       << str::hex(row.memory_address) << "," << row.cache_set_id
       << "," << (row.is_miss ? "Cache Miss" : "Cache Hit") << ","
       << sim::missTypeName(row.miss_type) << ","
       << (row.has_victim ? str::hex(row.evicted_address) : "") << ","
       << row.accessed_reuse_distance << "," << row.accessed_recency
       << "," << row.evicted_reuse_distance << ","
       << (row.wrong_eviction ? 1 : 0) << ","
       << csvField(row.recency_text) << ","
       << csvField(symbols ? symbols->functionName(row.program_counter)
                           : "");
    if (options.include_snapshots) {
        std::ostringstream scores;
        for (std::size_t k = 0;
             k < row.cache_line_eviction_scores.size(); ++k) {
            scores << (k ? ";" : "")
                   << row.cache_line_eviction_scores[k];
        }
        os << "," << csvField(pairList(row.current_cache_lines)) << ","
           << csvField(scores.str()) << ","
           << csvField(pairList(row.recent_access_history));
    }
    return os.str();
}

void
exportEntryCsv(const TraceEntry &entry, std::ostream &os,
               const ExportOptions &options)
{
    os << csvHeader(options) << "\n";
    const std::size_t n =
        options.max_rows
            ? std::min(options.max_rows, entry.table.size())
            : entry.table.size();
    for (std::size_t i = 0; i < n; ++i)
        os << csvRow(entry.table, i, options) << "\n";
}

void
exportManifest(const TraceDatabase &db, std::ostream &os)
{
    os << "# CacheMind trace-database manifest\n";
    for (const auto &key : db.keys()) {
        const TraceEntry *entry = db.find(key);
        os << "\n[" << key << "]\n";
        os << "workload = " << entry->workload << "\n";
        os << "policy = " << entry->policy << "\n";
        os << "rows = " << entry->table.size() << "\n";
        // Scan variant: a manifest dump only needs the count, and
        // must not force (and retain) a postings-index build.
        os << "unique_pcs = " << entry->table.uniquePcsScan().size()
           << "\n";
        os << "description = " << csvField(entry->description) << "\n";
        os << "metadata = " << csvField(entry->metadata) << "\n";
    }
}

} // namespace cachemind::db
