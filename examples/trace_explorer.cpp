/**
 * @file
 * Trace-database explorer: the raw artifacts behind the natural-
 * language interface — per-access rows with the full §4.3 schema
 * (snapshots, scores, history, disassembly), per-PC statistics, and
 * the metadata summary string (a Figure 2-style excerpt).
 *
 *   $ ./example_trace_explorer
 */

#include <cstdio>

#include "base/str.hh"
#include "db/builder.hh"

using namespace cachemind;

int
main()
{
    std::printf("Building lbm trace database under PARROT...\n");
    const auto database = db::buildSingleDatabase(
        trace::WorkloadKind::Lbm, policy::PolicyKind::Parrot, 80000);
    const auto *entry = database.find("lbm_evictions_parrot");

    std::printf("\n=== Metadata ===\n%s\n", entry->metadata.c_str());

    // Find an eviction-carrying row and dump the full record.
    const auto &table = entry->table;
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (!table.hasVictimAt(i))
            continue;
        const auto row = table.row(i);
        std::printf("\n=== Row %zu (Figure 2-style excerpt) ===\n", i);
        std::printf("PC:        %s\n",
                    str::hex(row.program_counter).c_str());
        std::printf("Address:   %s\n",
                    str::hex(row.memory_address).c_str());
        std::printf("Set ID:    %u\n", row.cache_set_id);
        std::printf("Evict:     %s (%s)\n",
                    row.is_miss ? "Cache Miss" : "Cache Hit",
                    sim::missTypeName(row.miss_type));
        std::printf("Evicted:   %s", str::hex(row.evicted_address).c_str());
        // A victim that is never touched again has no reuse distance.
        if (row.evicted_reuse_distance != db::kNoValue)
            std::printf(" (needed again in %lld accesses)",
                        static_cast<long long>(row.evicted_reuse_distance));
        std::printf("\n");
        std::printf("Recency:   %s\n", row.recency_text.c_str());
        std::printf("Cache lines (pc, line address):\n");
        for (const auto &line : row.current_cache_lines) {
            std::printf("  {%s, %s}\n", str::hex(line.pc).c_str(),
                        str::hex(line.address).c_str());
        }
        std::printf("Eviction scores:");
        for (const auto score : row.cache_line_eviction_scores)
            std::printf(" %llu",
                        static_cast<unsigned long long>(score));
        std::printf("\nAccess history (pc, address):\n");
        for (const auto &h : row.recent_access_history) {
            std::printf("  {%s, %s}\n", str::hex(h.pc).c_str(),
                        str::hex(h.address).c_str());
        }
        // Source context is per PC: the table's symbol table renders it.
        const auto *symbols = table.symbols();
        std::printf("Function:  %s\n",
                    symbols->functionName(row.program_counter).c_str());
        std::printf("Assembly:\n%s",
                    symbols->assemblyAround(row.program_counter).c_str());
        break;
    }

    // Per-PC statistics table.
    const auto *expert = database.statsFor("lbm_evictions_parrot");
    std::printf("\n=== Per-PC statistics ===\n");
    std::printf("%-12s %9s %9s %10s %12s\n", "pc", "accesses",
                "missrate", "meanreuse", "wrongevict%");
    for (const auto &s : expert->allPcStats()) {
        std::printf("%-12s %9llu %8.2f%% %10.0f %11.2f%%\n",
                    str::hex(s.pc).c_str(),
                    static_cast<unsigned long long>(s.accesses),
                    100.0 * s.missRate(), s.mean_reuse_distance,
                    s.wrongEvictionPct());
    }
    return 0;
}
