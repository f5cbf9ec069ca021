/**
 * @file
 * End-to-end database construction (the paper's §5 pipeline):
 * workload model -> CPU trace -> hierarchy capture -> per-policy
 * annotated LLC replay -> dataframe + metadata string + description.
 */

#ifndef CACHEMIND_DB_BUILDER_HH
#define CACHEMIND_DB_BUILDER_HH

#include <vector>

#include "db/database.hh"
#include "policy/replacement.hh"
#include "sim/hierarchy.hh"
#include "trace/workload.hh"

namespace cachemind::db {

/** What to build. */
struct BuildOptions
{
    sim::HierarchyConfig hierarchy = sim::defaultHierarchyConfig();
    std::vector<trace::WorkloadKind> workloads = {
        trace::WorkloadKind::Astar, trace::WorkloadKind::Lbm,
        trace::WorkloadKind::Mcf};
    std::vector<policy::PolicyKind> policies = {
        policy::PolicyKind::Belady, policy::PolicyKind::Lru,
        policy::PolicyKind::Parrot, policy::PolicyKind::Mlp};
    /** 0 = use each workload model's default trace length. */
    std::uint64_t accesses_override = 0;
    /** Preceding rows rendered as each row's access history. */
    std::uint32_t history_len = 4;
    /**
     * Worker threads for the build: trace generation and oracle
     * computation run once per workload, then replays run once per
     * (workload, policy) pair, each stage fanned out on up to this
     * many threads (never more than it has tasks), all joined before
     * buildDatabase returns. The output is byte-identical for every
     * thread count (tables, metadata strings, key ordering); 1 runs
     * both stages inline on the calling thread. 0 = one thread per
     * hardware thread.
     */
    std::size_t build_threads = 0;
};

/**
 * Set `table` up for the replay of `rows` accesses to `llc` under
 * `pol`, as buildDatabase sets up each of its tables before it
 * appends the replay's events (the symbols aside).
 */
void setUpTable(TraceTable &table, const sim::CacheConfig &llc,
                const policy::ReplacementPolicy &pol, std::size_t rows,
                std::uint32_t history_len);

/** Build the metadata summary string from a computed expert. */
std::string buildMetadataString(const StatsExpert &expert);

/** Build the full database per options. */
TraceDatabase buildDatabase(const BuildOptions &options = BuildOptions{});

/**
 * Build a single-entry database for one (workload, policy) pair with
 * the default hierarchy — convenience for tests and use cases.
 */
TraceDatabase buildSingleDatabase(trace::WorkloadKind workload,
                                  policy::PolicyKind policy,
                                  std::uint64_t accesses_override = 0);

} // namespace cachemind::db

#endif // CACHEMIND_DB_BUILDER_HH
