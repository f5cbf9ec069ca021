#include "retrieval/sieve.hh"

#include "retrieval/registry.hh"

#include <algorithm>

#include "base/failpoint.hh"
#include "base/stopwatch.hh"
#include "base/str.hh"

namespace cachemind::retrieval {

using query::ParsedQuery;
using query::QueryIntent;

SieveRetriever::SieveRetriever(db::ShardSet shards, SieveConfig cfg)
    : shards_(std::move(shards)), cfg_(std::move(cfg))
{
}

std::string
SieveRetriever::resolveTraceKey(const ParsedQuery &q) const
{
    if (!q.hasWorkload())
        return "";
    const std::string policy =
        q.hasPolicy() ? q.policy() : cfg_.default_policy;
    const std::string key = db::shardKey(q.workload(), policy);
    return shards_.find(key) ? key : "";
}

void
SieveRetriever::checkPremise(const ParsedQuery &q,
                             const db::TraceEntry &entry,
                             ContextBundle &bundle) const
{
    if (q.pc && !entry.table.containsPc(*q.pc)) {
        bundle.premise_violation = true;
        bundle.premise_note =
            "PC " + str::hex(*q.pc) + " does not appear in trace " +
            bundle.trace_key + ".";
        // Look for the PC in other workloads to aid the rejection.
        for (const auto &key : shards_.keys()) {
            const auto *other = shards_.find(key);
            if (other && key != bundle.trace_key &&
                other->table.containsPc(*q.pc)) {
                bundle.premise_note +=
                    " It appears in " + key + " instead.";
                break;
            }
        }
        return;
    }
    if (q.pc && q.address) {
        const auto rows = filterRows(entry.table, &*q.pc, &*q.address, 1);
        if (rows.empty()) {
            // The tuple never occurs even though the PC exists.
            const bool addr_known =
                !filterRows(entry.table, nullptr, &*q.address, 1).empty();
            bundle.premise_violation = true;
            bundle.premise_note =
                "PC " + str::hex(*q.pc) + " never accesses address " +
                str::hex(*q.address) + " in " + bundle.trace_key +
                (addr_known ? " (the address is touched by other PCs)."
                            : " (the address never appears at all).");
        }
    }
}

namespace {

/** Truncated unique-value listing into the bundle. */
template <typename T>
void
fillListing(const std::vector<T> &values, std::size_t limit,
            ContextBundle &bundle)
{
    bundle.values_complete = values.size() <= limit;
    for (std::size_t i = 0; i < std::min(values.size(), limit); ++i)
        bundle.values.push_back(values[i]);
}

} // namespace

std::vector<std::uint32_t>
SieveRetriever::filterRows(const db::TraceTable &table,
                           const std::uint64_t *pc,
                           const std::uint64_t *address,
                           std::size_t limit) const
{
    return cfg_.use_index ? table.filter(pc, address, limit)
                          : table.filterScan(pc, address, limit);
}

void
SieveRetriever::fillSourceContext(std::uint64_t pc,
                                  const db::TraceEntry &entry,
                                  ContextBundle &bundle) const
{
    const trace::SymbolTable *symbols = entry.table.symbols();
    if (!symbols)
        return;
    bundle.function_name = symbols->functionName(pc);
    bundle.function_code = symbols->sourceFor(pc);
    bundle.assembly = symbols->assemblyAround(pc);
}

std::string
SieveRetriever::cacheFingerprint() const
{
    return std::string("sieve|w=") +
           std::to_string(cfg_.evidence_window) +
           "|l=" + std::to_string(cfg_.listing_limit) +
           "|p=" + cfg_.default_policy +
           "|d=" + (cfg_.degrade_filters ? "1" : "0") +
           "|i=" + (cfg_.use_index ? "1" : "0");
}

std::string
SieveRetriever::cacheKey(const ParsedQuery &parsed) const
{
    // Everything Sieve assembles is a pure function of the slots, the
    // resolved shard, and the config (in the fingerprint) — never of
    // the raw phrasing — so slot-equal questions share bundles.
    return resolveTraceKey(parsed) + "|" + parsed.slotKey();
}

ContextBundle
SieveRetriever::retrieveParsed(const ParsedQuery &parsed,
                               EvidenceSink &sink)
{
    Stopwatch timer;
    ContextBundle bundle;
    bundle.retriever = name();
    bundle.parsed = parsed;
    const ParsedQuery &q = bundle.parsed;

    bundle.trace_key = resolveTraceKey(q);
    if (bundle.trace_key.empty()) {
        // Could not resolve a trace: provide what global context we
        // can (descriptions of everything mentioned).
        for (const auto &key : shards_.keys()) {
            const auto *entry = shards_.find(key);
            if (q.hasWorkload() && entry->workload == q.workload()) {
                bundle.workload_description = entry->description;
                break;
            }
        }
        if (sink.active()) {
            sink.emit("overview",
                      bundle.workload_description.empty()
                          ? "No matching workload/policy trace "
                            "resolved."
                          : bundle.workload_description);
        }
        bundle.retrieval_ms = timer.milliseconds();
        return bundle;
    }

    const db::TraceEntry &entry = *shards_.find(bundle.trace_key);
    bundle.workload_description = entry.description;
    bundle.policy_description =
        "Policy '" + entry.policy + "' on workload '" + entry.workload +
        "'.";
    // First evidence on the wire before any heavyweight per-shard
    // work: the overview goes out ahead of the premise scan and the
    // row slice below, so a streaming consumer sees the resolved trace
    // at a fraction of full retrieval time.
    // Chunk text is only ever formatted for an active sink — the
    // blocking path (NullEvidenceSink) skips it entirely.
    if (sink.active()) {
        sink.emit("overview", "Trace " + bundle.trace_key + ". " +
                                  bundle.workload_description + " " +
                                  bundle.policy_description);
    }

    // Cooperative cancellation between evidence sections: a dropped
    // consumer (disconnected serving session) aborts the remaining
    // scan/stats work instead of assembling evidence nobody reads. A
    // blown deadline degrades instead: return what is assembled so
    // far, marked partial.
    fail::maybeDelay("retrieve.section");
    throwIfCancelled(sink);
    if (deadlineDegrade(sink, bundle)) {
        bundle.retrieval_ms = timer.milliseconds();
        return bundle;
    }

    if (!cfg_.degrade_filters) {
        checkPremise(q, entry, bundle);
        if (bundle.premise_violation && sink.active())
            sink.emit("premise", bundle.premise_note);
    }

    // Symbolic PC/address slice (bounded evidence window). Sieve stops
    // scanning at the window: it does not know the full match count.
    if (q.pc || q.address) {
        const std::uint64_t *pc = q.pc ? &*q.pc : nullptr;
        const std::uint64_t *addr =
            (q.address && !cfg_.degrade_filters) ? &*q.address
                                                 : nullptr;
        const auto idxs =
            filterRows(entry.table, pc, addr, cfg_.evidence_window);
        for (const auto i : idxs)
            bundle.rows.push_back(entry.table.row(i));
        bundle.total_matches = bundle.rows.size();
        bundle.total_is_exact = false;
        if (sink.active()) {
            std::string slice;
            for (const auto &row : bundle.rows) {
                appendRowLine(slice, row);
                slice += '\n';
            }
            slice += "window matches: " +
                     std::to_string(bundle.total_matches);
            sink.emit("slice", slice);
        }
    }

    fail::maybeDelay("retrieve.section");
    throwIfCancelled(sink);
    if (deadlineDegrade(sink, bundle)) {
        bundle.retrieval_ms = timer.milliseconds();
        return bundle;
    }

    const db::StatsExpert *expert = shards_.statsFor(bundle.trace_key);
    if (q.pc) {
        if (auto ps = expert->pcStats(*q.pc))
            bundle.pc_stats = *ps;
        fillSourceContext(*q.pc, entry, bundle);
        if (bundle.pc_stats && sink.active()) {
            sink.emit("pc",
                      "PC " + str::hex(bundle.pc_stats->pc) + ": " +
                          std::to_string(bundle.pc_stats->accesses) +
                          " accesses, " +
                          std::to_string(bundle.pc_stats->misses) +
                          " misses" +
                          (bundle.function_name.empty()
                               ? std::string()
                               : " in " + bundle.function_name));
        }
    }

    switch (q.intent) {
      case QueryIntent::PolicyComparison: {
        // Gather the same statistic under every policy shard of the
        // workload present in the view.
        const db::ShardSet workload_shards =
            shards_.forWorkload(q.workload());
        for (const auto &policy : workload_shards.policies()) {
            const auto *oexp = workload_shards.statsFor(
                db::shardKey(q.workload(), policy));
            if (!oexp)
                continue;
            if (q.pc) {
                if (auto ps = oexp->pcStats(*q.pc)) {
                    bundle.policy_numbers.push_back(PolicyNumber{
                        policy, ps->missRate(), ps->accesses});
                }
            } else {
                bundle.policy_numbers.push_back(
                    PolicyNumber{policy, oexp->summary().missRate(),
                                 oexp->summary().accesses});
            }
        }
        bundle.policy_numbers_label = "miss rates";
        break;
      }
      case QueryIntent::ListPcs:
        // Indexed: the build-time sorted listing, no per-call sort.
        if (cfg_.use_index)
            fillListing(entry.table.uniquePcs(), cfg_.listing_limit,
                        bundle);
        else
            fillListing(entry.table.uniquePcsScan(),
                        cfg_.listing_limit, bundle);
        break;
      case QueryIntent::ListSets:
        if (cfg_.use_index)
            fillListing(entry.table.uniqueSets(), cfg_.listing_limit,
                        bundle);
        else
            fillListing(entry.table.uniqueSetsScan(),
                        cfg_.listing_limit, bundle);
        break;
      case QueryIntent::SetStats: {
        const std::size_t n = q.top_n ? q.top_n : 5;
        if (q.set_id) {
            if (auto ss = expert->setStats(*q.set_id))
                bundle.set_stats.push_back(*ss);
        } else {
            const auto hot = expert->hottestSets(n);
            const auto cold = expert->coldestSets(n);
            bundle.set_stats = hot;
            bundle.set_stats.insert(bundle.set_stats.end(),
                                    cold.begin(), cold.end());
        }
        break;
      }
      case QueryIntent::TopPcs: {
        const std::size_t n = q.top_n ? q.top_n : 10;
        bundle.pc_stats_list =
            expert->topPcs(n, db::StatsExpert::PcOrder::MissCount);
        break;
      }
      case QueryIntent::Explain: {
        // Rich analytic bundle: metadata + top PCs + descriptions
        // (+ per-PC stats and assembly already attached above).
        bundle.metadata = entry.metadata;
        if (bundle.pc_stats_list.empty()) {
            bundle.pc_stats_list = expert->topPcs(
                8, db::StatsExpert::PcOrder::MissCount);
        }
        if (q.workloads.size() > 1) {
            // Cross-workload comparison evidence.
            const std::string policy =
                q.hasPolicy() ? q.policy() : cfg_.default_policy;
            for (const auto &workload : q.workloads) {
                const auto *oexp =
                    shards_.statsFor(db::shardKey(workload, policy));
                if (!oexp)
                    continue;
                bundle.policy_numbers.push_back(
                    PolicyNumber{workload, oexp->summary().missRate(),
                                 oexp->summary().accesses});
            }
            bundle.policy_numbers_label = "workload miss rates";
        } else if (q.pc) {
            // Cross-policy numbers help "why does X beat Y on Z".
            const db::ShardSet workload_shards =
                shards_.forWorkload(q.workload());
            for (const auto &policy : workload_shards.policies()) {
                const auto *oexp = workload_shards.statsFor(
                    db::shardKey(q.workload(), policy));
                if (!oexp)
                    continue;
                if (auto ps = oexp->pcStats(*q.pc)) {
                    bundle.policy_numbers.push_back(PolicyNumber{
                        policy, ps->missRate(), ps->accesses});
                }
            }
            bundle.policy_numbers_label = "miss rates";
        }
        break;
      }
      case QueryIntent::MissRate:
      case QueryIntent::Count:
      case QueryIntent::Arithmetic:
      case QueryIntent::PcStats:
      case QueryIntent::HitMiss:
      case QueryIntent::Concept:
      case QueryIntent::CodeGen:
      case QueryIntent::Unknown:
        // Slice + stats already assembled above; metadata helps
        // whole-workload rates.
        if (!q.pc)
            bundle.metadata = entry.metadata;
        break;
    }

    fail::maybeDelay("retrieve.section");
    throwIfCancelled(sink);
    // No deadline check here: the bundle is fully assembled by now and
    // only stream-side formatting remains — a complete bundle must not
    // be marked degraded.

    // Intent-specific analysis evidence, emitted once it is all
    // assembled (one chunk: the sections above already streamed).
    if (!sink.active()) {
        bundle.retrieval_ms = timer.milliseconds();
        return bundle;
    }
    std::string analysis;
    if (!bundle.policy_numbers.empty()) {
        analysis += bundle.policy_numbers_label + ":";
        for (const auto &pn : bundle.policy_numbers) {
            analysis += " " + pn.policy + "=" +
                        str::percent(pn.value);
        }
        analysis += "\n";
    }
    if (!bundle.values.empty()) {
        analysis += "listed " + std::to_string(bundle.values.size()) +
                    (bundle.values_complete ? " values (complete)\n"
                                            : " values (truncated)\n");
    }
    if (!bundle.set_stats.empty()) {
        analysis += "per-set stats for " +
                    std::to_string(bundle.set_stats.size()) +
                    " sets\n";
    }
    if (!bundle.pc_stats_list.empty()) {
        analysis += "ranked stats for " +
                    std::to_string(bundle.pc_stats_list.size()) +
                    " PCs\n";
    }
    if (!bundle.metadata.empty())
        analysis += bundle.metadata;
    if (!analysis.empty())
        sink.emit("analysis", analysis);

    bundle.retrieval_ms = timer.milliseconds();
    return bundle;
}

namespace {

// Self-registration: the engine constructs Sieve by name through
// RetrieverRegistry and never references this translation unit. The
// factory consumes the engine's per-retriever scenario knobs (ROADMAP
// "engine-level scenario configs"); every knob consumed here is also
// part of cacheFingerprint() above, so tuned engines never alias each
// other's cached bundles.
const RetrieverRegistrar sieve_registrar(
    "sieve",
    [](const db::ShardSet &shards, const RetrieverOptions &opts) {
        SieveConfig cfg;
        cfg.evidence_window =
            opts.getSize("evidence_window", cfg.evidence_window);
        cfg.listing_limit =
            opts.getSize("listing_limit", cfg.listing_limit);
        cfg.default_policy =
            opts.get("default_policy", cfg.default_policy);
        cfg.degrade_filters =
            opts.getBool("degrade_filters", cfg.degrade_filters);
        cfg.use_index = opts.getBool("use_index", cfg.use_index);
        return std::make_unique<SieveRetriever>(shards, cfg);
    });

} // namespace

} // namespace cachemind::retrieval
