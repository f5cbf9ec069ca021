/**
 * @file
 * Micro-bench for the parallel database build: constructs the same
 * 3-workload x 4-policy database sequentially (build_threads=1) and
 * on a 4-thread pool, reports both wall-clock times, and verifies the
 * outputs are identical: keys, metadata and description strings, and
 * every column of every row, including the row-reference-backed
 * snapshot, victim and history columns. On a multicore host the
 * parallel build approaches the per-workload critical path; on a
 * single core it degrades to sequential cost plus noise — either way
 * the outputs must match. Exits 1 on the first mismatch; the timings
 * are printed, never checked.
 */

#include <cstdio>
#include <string>

#include "base/stopwatch.hh"
#include "db/builder.hh"

using namespace cachemind;

namespace {

/** Every column of row `i` of both tables agrees. */
bool
sameRow(const db::TraceTable &a, const db::TraceTable &b, std::size_t i)
{
    const db::AccessRow x = a.row(i);
    const db::AccessRow y = b.row(i);
    return x.program_counter == y.program_counter &&
           x.memory_address == y.memory_address &&
           x.cache_set_id == y.cache_set_id && x.is_miss == y.is_miss &&
           x.bypassed == y.bypassed && x.miss_type == y.miss_type &&
           x.has_victim == y.has_victim &&
           x.evicted_address == y.evicted_address &&
           a.evictedPcAt(i) == b.evictedPcAt(i) &&
           x.accessed_reuse_distance == y.accessed_reuse_distance &&
           x.accessed_recency == y.accessed_recency &&
           x.evicted_reuse_distance == y.evicted_reuse_distance &&
           x.wrong_eviction == y.wrong_eviction &&
           x.recency_text == y.recency_text &&
           x.function_name == y.function_name &&
           x.function_code == y.function_code &&
           x.assembly_code == y.assembly_code &&
           x.current_cache_lines == y.current_cache_lines &&
           x.cache_line_eviction_scores ==
               y.cache_line_eviction_scores &&
           x.recent_access_history == y.recent_access_history;
}

/** First difference between the two builds, or "" when identical. */
std::string
firstMismatch(const db::TraceDatabase &a, const db::TraceDatabase &b)
{
    if (a.keys() != b.keys())
        return "key lists differ";
    for (const auto &key : a.keys()) {
        const auto *x = a.find(key);
        const auto *y = b.find(key);
        if (x->metadata != y->metadata ||
            x->description != y->description ||
            x->table.size() != y->table.size())
            return key + ": metadata, description or row count";
        for (std::size_t i = 0; i < x->table.size(); ++i) {
            if (!sameRow(x->table, y->table, i))
                return key + ": row " + std::to_string(i);
        }
    }
    return "";
}

} // namespace

int
main()
{
    db::BuildOptions options;
    // Default 3 workloads x 4 policies; a bounded trace length keeps
    // the bench in seconds while every stage (generation, capture,
    // oracle, Parrot training, replay) still runs.
    options.accesses_override = 120000;

    options.build_threads = 1;
    Stopwatch seq_timer;
    const auto sequential = db::buildDatabase(options);
    const double seq_ms = seq_timer.milliseconds();

    options.build_threads = 4;
    Stopwatch par_timer;
    const auto parallel = db::buildDatabase(options);
    const double par_ms = par_timer.milliseconds();

    std::printf("=== Parallel database build ===\n");
    std::printf("entries: %zu (%zu workloads x %zu policies)\n",
                sequential.size(), options.workloads.size(),
                options.policies.size());
    std::printf("sequential (build_threads=1): %10.1f ms\n", seq_ms);
    std::printf("parallel   (build_threads=4): %10.1f ms\n", par_ms);
    std::printf("speedup: %.2fx\n", par_ms > 0.0 ? seq_ms / par_ms : 0.0);

    // Equivalence check: the parallel build must be byte-identical.
    const std::string mismatch = firstMismatch(sequential, parallel);
    if (!mismatch.empty())
        std::printf("MISMATCH at %s\n", mismatch.c_str());
    std::printf("outputs identical: %s\n", mismatch.empty() ? "yes" : "NO");
    return mismatch.empty() ? 0 : 1;
}
