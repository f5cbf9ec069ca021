#include "retrieval/ranger.hh"

#include "retrieval/registry.hh"

#include <algorithm>
#include <sstream>

#include "base/failpoint.hh"
#include "base/random.hh"
#include "base/stopwatch.hh"
#include "base/str.hh"

namespace cachemind::retrieval {

using query::AggKind;
using query::DslField;
using query::DslOp;
using query::DslProgram;
using query::FieldKind;
using query::ParsedQuery;
using query::QueryIntent;

RangerRetriever::RangerRetriever(db::ShardSet shards, RangerConfig cfg)
    : shards_(std::move(shards)), cfg_(std::move(cfg)),
      interp_(shards_, cfg_.use_index ? query::ExecMode::Indexed
                                      : query::ExecMode::ReferenceScan)
{
}

std::string
RangerRetriever::resolveTraceKey(const ParsedQuery &q) const
{
    if (!q.hasWorkload())
        return "";
    const std::string policy =
        q.hasPolicy() ? q.policy() : cfg_.default_policy;
    const std::string key = db::shardKey(q.workload(), policy);
    return shards_.find(key) ? key : "";
}

namespace {

DslOp
aggToOp(AggKind agg)
{
    switch (agg) {
      case AggKind::Mean: return DslOp::MeanField;
      case AggKind::Sum: return DslOp::SumField;
      case AggKind::Min: return DslOp::MinField;
      case AggKind::Max: return DslOp::MaxField;
      case AggKind::Std: return DslOp::StdField;
      case AggKind::Count: return DslOp::CountRows;
    }
    return DslOp::MeanField;
}

DslField
fieldToDsl(FieldKind field)
{
    switch (field) {
      case FieldKind::ReuseDistance: return DslField::ReuseDistance;
      case FieldKind::EvictedReuseDistance:
        return DslField::EvictedReuseDistance;
      case FieldKind::Recency: return DslField::Recency;
      default: return DslField::ReuseDistance;
    }
}

} // namespace

std::vector<DslProgram>
RangerRetriever::planPrograms(const ParsedQuery &q,
                              const std::string &trace_key) const
{
    std::vector<DslProgram> progs;
    DslProgram base;
    base.trace_key = trace_key;
    base.pc = q.pc;
    base.address = q.address;
    base.set_id = q.set_id;
    base.limit = cfg_.select_limit;

    switch (q.intent) {
      case QueryIntent::HitMiss: {
        base.op = DslOp::SelectRows;
        progs.push_back(base);
        break;
      }
      case QueryIntent::MissRate: {
        base.op = DslOp::MissRate;
        progs.push_back(base);
        break;
      }
      case QueryIntent::Count: {
        base.op = DslOp::CountRows;
        progs.push_back(base);
        break;
      }
      case QueryIntent::Arithmetic: {
        base.op = aggToOp(q.agg);
        base.field = fieldToDsl(q.field);
        progs.push_back(base);
        break;
      }
      case QueryIntent::PolicyComparison: {
        // One program per policy shard of the queried workload.
        const db::ShardSet workload_shards =
            shards_.forWorkload(q.workload());
        for (const auto &policy : workload_shards.policies()) {
            DslProgram p = base;
            p.trace_key = db::shardKey(q.workload(), policy);
            p.op = DslOp::MissRate;
            progs.push_back(p);
        }
        break;
      }
      case QueryIntent::ListPcs: {
        base.op = DslOp::UniquePcs;
        progs.push_back(base);
        break;
      }
      case QueryIntent::ListSets: {
        base.op = DslOp::UniqueSets;
        progs.push_back(base);
        break;
      }
      case QueryIntent::SetStats: {
        base.op = DslOp::PerSetStats;
        progs.push_back(base);
        break;
      }
      case QueryIntent::TopPcs:
      case QueryIntent::PcStats: {
        base.op = DslOp::PerPcStats;
        progs.push_back(base);
        break;
      }
      case QueryIntent::Explain:
      case QueryIntent::Concept:
      case QueryIntent::CodeGen:
      case QueryIntent::Unknown: {
        // Ranger returns a narrow computed result: the metadata
        // numbers only. It does not assemble the descriptive context
        // (policy/workload prose, per-PC bundles, disassembly) that
        // the reasoning rubric rewards — the §6.2 crossover.
        base.op = DslOp::Metadata;
        progs.push_back(base);
        break;
      }
    }
    return progs;
}

void
RangerRetriever::corrupt(DslProgram &prog, std::uint64_t key) const
{
    if (cfg_.codegen_fidelity >= 1.0)
        return;
    if (keyedBernoulli(key, cfg_.codegen_fidelity))
        return; // faithful generation
    // Characteristic mis-generations, picked deterministically.
    switch (keyedPick(splitMix64(key), 3)) {
      case 0:
        // Wrong field (classic column confusion).
        prog.field = prog.field == DslField::ReuseDistance
                         ? DslField::Recency
                         : DslField::ReuseDistance;
        break;
      case 1:
        // Dropped address filter.
        prog.address.reset();
        break;
      default:
        // Wrong aggregate: mean <-> sum.
        if (prog.op == DslOp::MeanField)
            prog.op = DslOp::SumField;
        else if (prog.op == DslOp::SumField || prog.op == DslOp::StdField)
            prog.op = DslOp::MeanField;
        else if (prog.op == DslOp::CountRows)
            prog.op = DslOp::HitCount;
        break;
    }
}

std::string
RangerRetriever::cacheFingerprint() const
{
    return std::string("ranger|f=") +
           str::fixed(cfg_.codegen_fidelity, 6) +
           "|lim=" + std::to_string(cfg_.select_limit) +
           "|p=" + cfg_.default_policy +
           "|seed=" + std::to_string(cfg_.seed) +
           "|i=" + (cfg_.use_index ? "1" : "0");
}

std::string
RangerRetriever::cacheKey(const ParsedQuery &parsed) const
{
    std::string key = resolveTraceKey(parsed) + "|" + parsed.slotKey();
    // corrupt() keys its mis-generation draws on the raw text: two
    // phrasings of the same slots can execute different programs, so
    // below full fidelity only verbatim repeats may share a bundle.
    if (cfg_.codegen_fidelity < 1.0)
        key += "|raw=" + parsed.raw;
    return key;
}

ContextBundle
RangerRetriever::retrieveParsed(const ParsedQuery &parsed,
                                EvidenceSink &sink)
{
    Stopwatch timer;
    ContextBundle bundle;
    bundle.retriever = name();
    bundle.parsed = parsed;
    const ParsedQuery &q = bundle.parsed;

    bundle.trace_key = resolveTraceKey(q);
    if (bundle.trace_key.empty()) {
        bundle.result_text =
            "No matching workload/policy table found for this query.";
        if (sink.active())
            sink.emit("overview", bundle.result_text);
        bundle.retrieval_ms = timer.milliseconds();
        return bundle;
    }
    const db::TraceEntry &entry = *shards_.find(bundle.trace_key);

    auto progs = planPrograms(q, bundle.trace_key);
    // Chunk text is only formatted for an active sink; the blocking
    // path (NullEvidenceSink) runs this code with zero streaming cost.
    if (sink.active()) {
        sink.emit("overview",
                  "Trace " + bundle.trace_key + ": planned " +
                      std::to_string(progs.size()) +
                      (progs.size() == 1 ? " program." : " programs."));
    }
    // Mis-generation draws stay keyed by the raw question text (the
    // paper's per-question codegen roll) and the program index.
    const std::uint64_t qkey = hashCombine(fnv1a(q.raw), cfg_.seed);
    std::ostringstream code;
    std::ostringstream text;
    bool any_rows = false;

    // Programs run in plan order on the calling thread (policy
    // comparisons run one program per policy shard), and each result
    // streams as one `program` chunk as soon as it is folded in.
    query::ExecScratch scratch;
    for (std::size_t pi = 0; pi < progs.size(); ++pi) {
        // Cooperative cancellation between DSL programs: a dropped
        // consumer aborts the rest of a multi-program plan before the
        // next interpreter run; a blown deadline keeps the programs
        // finished so far.
        fail::maybeDelay("retrieve.section");
        throwIfCancelled(sink);
        if (deadlineDegrade(sink, bundle))
            break;
        DslProgram &prog = progs[pi];
        corrupt(prog, hashCombine(qkey, pi));
        const query::DslResult res = interp_.run(prog, scratch);
        const std::string python = renderProgramAsPython(prog);
        code << python;
        // Per-program result segment: accumulated into the bundle's
        // result text and emitted as one streamed chunk, so a
        // multi-program plan surfaces each result in plan order.
        std::ostringstream seg;
        if (!res.ok) {
            seg << "[" << prog.trace_key << "] " << res.error << "\n";
            text << seg.str();
            if (sink.active())
                sink.emit("program", python + seg.str());
            continue;
        }
        if (res.number) {
            if (prog.op == DslOp::MissRate) {
                bundle.policy_numbers.push_back(PolicyNumber{
                    shards_.find(prog.trace_key)->policy, *res.number,
                    res.matched});
                bundle.policy_numbers_label = "miss rates";
                seg << "[" << prog.trace_key << "] miss rate = "
                    << str::percent(*res.number) << " over "
                    << res.matched << " accesses\n";
            } else {
                seg << "[" << prog.trace_key << "] "
                    << dslOpName(prog.op) << " = "
                    << str::fixed(*res.number, 4) << "\n";
            }
            bundle.computed = res.number;
            if (prog.op == DslOp::CountRows ||
                prog.op == DslOp::HitCount) {
                bundle.total_matches =
                    static_cast<std::size_t>(*res.number);
                bundle.total_is_exact = true;
            }
        }
        if (!res.rows.empty()) {
            any_rows = true;
            for (const auto &row : res.rows) {
                bundle.rows.push_back(row);
                seg << renderRowLine(row) << "\n";
            }
            bundle.total_matches = res.matched;
            bundle.total_is_exact = true;
        } else if (prog.op == DslOp::SelectRows) {
            bundle.total_matches = res.matched;
            bundle.total_is_exact = true;
        }
        if (!res.values.empty()) {
            bundle.values = res.values;
            bundle.values_complete = true;
            seg << "unique values: " << res.values.size() << "\n";
        }
        if (!res.pc_stats.empty()) {
            if (res.pc_stats.size() == 1 && q.pc) {
                bundle.pc_stats = res.pc_stats.front();
            } else {
                bundle.pc_stats_list = res.pc_stats;
                if (q.intent == QueryIntent::TopPcs) {
                    std::sort(bundle.pc_stats_list.begin(),
                              bundle.pc_stats_list.end(),
                              [](const db::PcStats &a,
                                 const db::PcStats &b) {
                                  if (a.misses != b.misses)
                                      return a.misses > b.misses;
                                  return a.pc < b.pc;
                              });
                    const std::size_t n = q.top_n ? q.top_n : 10;
                    if (bundle.pc_stats_list.size() > n)
                        bundle.pc_stats_list.resize(n);
                }
            }
        }
        if (!res.set_stats.empty())
            bundle.set_stats = res.set_stats;
        if (!res.text.empty()) {
            bundle.metadata = res.text;
            seg << res.text << "\n";
        }
        text << seg.str();
        if (sink.active())
            sink.emit("program", python + seg.str());
    }

    // Premise detection: an empty exact-match result is evidence.
    if (q.pc && bundle.total_is_exact && bundle.total_matches == 0 &&
        !any_rows && q.intent == QueryIntent::HitMiss) {
        bundle.premise_violation = true;
        bundle.premise_note = "Exact PC, Memory Address match not found "
                              "in " + bundle.trace_key + ".";
        for (const auto &key : shards_.keys()) {
            const auto *other = shards_.find(key);
            if (other && key != bundle.trace_key &&
                other->table.containsPc(*q.pc)) {
                bundle.premise_note += " PC appears in " + key + ".";
                break;
            }
        }
        if (sink.active())
            sink.emit("premise", bundle.premise_note);
    }

    // Narrow source context for per-access lookups only.
    if (q.pc && q.intent == QueryIntent::HitMiss &&
        entry.table.symbols()) {
        bundle.function_name =
            entry.table.symbols()->functionName(*q.pc);
        bundle.assembly = entry.table.symbols()->assemblyAround(*q.pc);
    }

    bundle.generated_code = code.str();
    bundle.result_text = text.str();
    bundle.retrieval_ms = timer.milliseconds();
    return bundle;
}

namespace {

// Factory knobs (ROADMAP "engine-level scenario configs"): codegen
// fidelity drives the Figure 5/6-style sweeps through the Builder.
// Every knob consumed here is part of cacheFingerprint().
const RetrieverRegistrar ranger_registrar(
    "ranger",
    [](const db::ShardSet &shards, const RetrieverOptions &opts) {
        RangerConfig cfg;
        cfg.codegen_fidelity =
            opts.getDouble("fidelity", cfg.codegen_fidelity);
        cfg.select_limit = opts.getSize("select_limit", cfg.select_limit);
        cfg.default_policy =
            opts.get("default_policy", cfg.default_policy);
        cfg.seed = opts.getSize("seed", cfg.seed);
        cfg.use_index = opts.getBool("use_index", cfg.use_index);
        return std::make_unique<RangerRetriever>(shards, cfg);
    });

} // namespace

} // namespace cachemind::retrieval
