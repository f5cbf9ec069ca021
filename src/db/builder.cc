#include "db/builder.hh"

#include <optional>
#include <sstream>
#include <thread>

#include "base/logging.hh"
#include "base/parallel.hh"
#include "base/str.hh"
#include "policy/parrot.hh"
#include "sim/llc_replay.hh"

namespace cachemind::db {

std::string
buildMetadataString(const StatsExpert &expert)
{
    const TraceSummary &s = expert.summary();
    const std::uint64_t misses = s.misses;
    const double cap_pct =
        misses ? 100.0 * static_cast<double>(s.capacity) /
                     static_cast<double>(misses)
               : 0.0;
    const double conf_pct =
        misses ? 100.0 * static_cast<double>(s.conflict) /
                     static_cast<double>(misses)
               : 0.0;
    const double comp_pct =
        misses ? 100.0 * static_cast<double>(s.compulsory) /
                     static_cast<double>(misses)
               : 0.0;

    std::ostringstream os;
    os << "Cache Performance Summary: " << s.accesses
       << " total accesses, " << s.misses << " total misses, "
       << str::percent(s.missRate()) << " miss rate, "
       << str::fixed(comp_pct) << "% compulsory misses, "
       << str::fixed(cap_pct) << "% capacity misses, "
       << str::fixed(conf_pct) << "% conflict misses, " << s.evictions
       << " total evictions, " << s.bypasses << " bypassed fills, "
       << s.wrong_evictions << " ("
       << str::fixed(s.wrongEvictionPct())
       << "%) wrong evictions where evicted line has lower reuse "
          "distance. The correlation between accessed address recency "
          "and cache misses is "
       << str::fixed(s.recency_miss_correlation) << ". "
       << s.unique_pcs << " unique program counters.";
    return os.str();
}

void
setUpTable(TraceTable &table, const sim::CacheConfig &llc,
           const policy::ReplacementPolicy &pol, std::size_t rows,
           std::uint32_t history_len)
{
    table.setLineBytes(llc.line_bytes);
    table.setHistoryLen(history_len);
    table.setWays(llc.ways);
    table.setScoreRule(pol.scoreRule());
    table.reserve(rows);
}

namespace {

/**
 * Build `entry` by replaying a stream under one policy, and return the
 * statistics expert computed from its table.
 */
StatsExpert
buildEntry(const std::string &workload_name,
           const std::string &workload_desc, policy::PolicyKind pk,
           const std::vector<sim::LlcAccess> &stream,
           const sim::OracleInfo &oracle, const sim::HierarchyConfig &cfg,
           const trace::SymbolTable *symbols, std::uint32_t history_len,
           TraceEntry &entry)
{
    std::unique_ptr<policy::ReplacementPolicy> pol;
    if (pk == policy::PolicyKind::Parrot) {
        auto parrot = std::make_unique<policy::ParrotPolicy>();
        parrot->setModel(
            sim::ParrotModelBuilder::train(stream, oracle));
        pol = std::move(parrot);
    } else {
        pol = policy::makePolicy(pk);
    }

    entry.workload = workload_name;
    entry.policy = policy::policyName(pk);
    entry.table.setSymbols(symbols);
    setUpTable(entry.table, cfg.llc, *pol, stream.size(), history_len);

    sim::LlcReplayer replayer(cfg.llc, std::move(pol));
    replayer.replay(stream, &oracle, [&](const sim::ReplayEvent &ev) {
        entry.table.append(ev);
    });

    StatsExpert expert(entry.table);
    entry.metadata = buildMetadataString(expert);

    std::ostringstream desc;
    desc << "Workload: " << workload_desc << "\nReplacement Policy: "
         << policy::policyDescription(pk);
    entry.description = desc.str();
    return expert;
}

} // namespace

TraceDatabase
buildDatabase(const BuildOptions &options)
{
    const std::size_t threads =
        options.build_threads
            ? options.build_threads
            : std::max<std::size_t>(
                  std::thread::hardware_concurrency(), 1);

    // Every task is a pure function of its inputs (trace synthesis,
    // replay, and Parrot training all draw from deterministic keyed
    // generators), so the result is byte-identical for any thread
    // count; only wall-clock changes. With one thread parallelFor is
    // the plain inline loop. Peak memory holds every workload's LLC
    // stream at once, the price of the workload-level fan-out.
    struct WorkloadArtifacts
    {
        std::string name;
        std::string description;
        trace::SymbolTable symbols;
        std::vector<sim::LlcAccess> stream;
        sim::OracleInfo oracle;
    };

    // Stage 1: per-workload trace generation, LLC capture, and oracle
    // computation — done once per workload and shared read-only by
    // every policy replay below.
    const std::size_t n_workloads = options.workloads.size();
    std::vector<WorkloadArtifacts> arts(n_workloads);
    parallelFor(n_workloads, threads, [&](std::size_t wi) {
        auto model = trace::makeWorkload(options.workloads[wi]);
        WorkloadArtifacts &a = arts[wi];
        a.name = model->info().name;
        a.description = model->info().description;
        a.symbols = model->symbols();
        const auto cpu_trace =
            options.accesses_override
                ? model->generate(options.accesses_override)
                : model->generate();
        a.stream = sim::captureLlcStream(cpu_trace, options.hierarchy);
        a.oracle = sim::computeOracle(a.stream);
    });

    // Symbol registration mutates the database: single-threaded, in
    // workload order, before any entry references the tables.
    TraceDatabase db;
    std::vector<const trace::SymbolTable *> symbols(n_workloads);
    for (std::size_t wi = 0; wi < n_workloads; ++wi)
        symbols[wi] = db.addSymbols(arts[wi].name,
                                    std::move(arts[wi].symbols));

    // Stage 2: one task per (workload, policy) pair.
    const std::size_t n_policies = options.policies.size();
    std::vector<TraceEntry> entries(n_workloads * n_policies);
    std::vector<std::optional<StatsExpert>> experts(entries.size());
    parallelFor(entries.size(), threads, [&](std::size_t t) {
        const WorkloadArtifacts &a = arts[t / n_policies];
        experts[t].emplace(buildEntry(
            a.name, a.description, options.policies[t % n_policies],
            a.stream, a.oracle, options.hierarchy,
            symbols[t / n_policies], options.history_len, entries[t]));
    });
    for (std::size_t t = 0; t < entries.size(); ++t)
        db.addEntry(std::move(entries[t]), std::move(*experts[t]));
    return db;
}

TraceDatabase
buildSingleDatabase(trace::WorkloadKind workload,
                    policy::PolicyKind policy,
                    std::uint64_t accesses_override)
{
    BuildOptions options;
    options.workloads = {workload};
    options.policies = {policy};
    options.accesses_override = accesses_override;
    return buildDatabase(options);
}

} // namespace cachemind::db
