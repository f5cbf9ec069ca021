#include "db/builder.hh"

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

namespace {

/** Build one entry by replaying a stream under one policy. */
TraceEntry
buildEntry(const std::string &workload_name,
           const std::string &workload_desc, policy::PolicyKind pk,
           const std::vector<sim::LlcAccess> &stream,
           const sim::OracleInfo &oracle, const sim::HierarchyConfig &cfg,
           const trace::SymbolTable *symbols, std::uint32_t history_len)
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

    TraceEntry entry;
    entry.workload = workload_name;
    entry.policy = policy::policyName(pk);
    entry.table.setSymbols(symbols);
    entry.table.setLineBytes(cfg.llc.line_bytes);
    entry.table.setHistoryLen(history_len);
    entry.table.reserve(stream.size());

    sim::LlcReplayer replayer(cfg.llc, std::move(pol));
    replayer.replay(stream, &oracle, [&](const sim::ReplayEvent &ev) {
        entry.table.append(ev);
    });

    const StatsExpert expert(entry.table);
    entry.metadata = buildMetadataString(expert);

    std::ostringstream desc;
    desc << "Workload: " << workload_desc << "\nReplacement Policy: "
         << policy::policyDescription(pk);
    entry.description = desc.str();
    return entry;
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

    TraceDatabase db;
    if (threads <= 1) {
        // Sequential path: one workload's artifacts live at a time,
        // so peak memory stays at a single stream.
        for (const auto wk : options.workloads) {
            auto model = trace::makeWorkload(wk);
            const trace::SymbolTable *symbols =
                db.addSymbols(model->info().name, model->symbols());
            const auto cpu_trace =
                options.accesses_override
                    ? model->generate(options.accesses_override)
                    : model->generate();
            const auto stream =
                sim::captureLlcStream(cpu_trace, options.hierarchy);
            const auto oracle = sim::computeOracle(stream);
            for (const auto pk : options.policies) {
                db.addEntry(buildEntry(
                    model->info().name, model->info().description, pk,
                    stream, oracle, options.hierarchy, symbols,
                    options.history_len));
            }
        }
        return db;
    }

    // Parallel path. Every task is a pure function of its inputs
    // (trace synthesis, replay, and Parrot training all draw from
    // deterministic keyed generators), so the result is byte-identical
    // to the sequential build; only wall-clock changes. Peak memory
    // holds every workload's LLC stream at once — the price of the
    // workload-level fan-out.
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
    std::vector<const trace::SymbolTable *> symbols(n_workloads);
    for (std::size_t wi = 0; wi < n_workloads; ++wi)
        symbols[wi] = db.addSymbols(arts[wi].name,
                                    std::move(arts[wi].symbols));

    // Stage 2: one task per (workload, policy) pair.
    const std::size_t n_policies = options.policies.size();
    std::vector<TraceEntry> entries(n_workloads * n_policies);
    parallelFor(entries.size(), threads, [&](std::size_t t) {
        const WorkloadArtifacts &a = arts[t / n_policies];
        entries[t] = buildEntry(a.name, a.description,
                                options.policies[t % n_policies],
                                a.stream, a.oracle, options.hierarchy,
                                symbols[t / n_policies],
                                options.history_len);
    });
    for (auto &entry : entries)
        db.addEntry(std::move(entry));
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
