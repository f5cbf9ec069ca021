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
     * Worker threads for the parallel build path: trace generation
     * and oracle computation run once per workload, replays run once
     * per (workload, policy) pair, both fanned out on a small pool.
     * The output is byte-identical to the sequential build (tables,
     * metadata strings, key ordering). 1 = sequential; 0 = one thread
     * per hardware core.
     *
     * The default stays 1. On a 4-vCPU VM, 0 builds the default
     * database ~2.5x faster, but the parallel path holds every
     * workload's stream at once, and a serving process built that way
     * peaked ~10% higher in RSS in all 10 serve_cold pairs measured.
     * The README's database section records the serving-latency runs.
     */
    std::size_t build_threads = 1;
};

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
