#include "query/parser.hh"

#include <algorithm>
#include <cctype>

#include "base/str.hh"

namespace cachemind::query {

namespace {

bool
hasAny(const std::string &lower,
       std::initializer_list<const char *> needles)
{
    for (const char *n : needles) {
        if (lower.find(n) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

NlQueryParser::NlQueryParser(std::vector<std::string> workload_names,
                             std::vector<std::string> policy_names)
    : embedder_(128),
      workload_index_(std::move(workload_names), embedder_),
      policy_index_(std::move(policy_names), embedder_)
{
}

ParsedQuery
NlQueryParser::parse(const std::string &text) const
{
    ParsedQuery q;
    q.raw = text;
    const text::PreparedQuery prepared(text, embedder_);
    const std::string &lower = prepared.lower();

    // --- Stage 1: workload / policy extraction (semantic + fuzzy).
    for (const auto &m : workload_index_.rank(prepared)) {
        if (m.score >= 0.9)
            q.workloads.push_back(m.name);
    }
    for (const auto &m : policy_index_.rank(prepared)) {
        if (m.score >= 0.9)
            q.policies.push_back(m.name);
    }
    // Common aliases not in the canonical vocabulary.
    if (q.policies.empty()) {
        if (hasAny(lower, {"belady", "optimal", "opt ", "min policy"}))
            q.policies.push_back("belady");
        if (hasAny(lower, {"least recently used"}))
            q.policies.push_back("lru");
    }

    // --- Stage 2: symbolic slots.
    const auto hex_tokens = str::extractHexTokens(text);
    for (const auto tok : hex_tokens) {
        // PCs in our binaries live well below 16 MiB; data addresses
        // are large. The textual cue "pc 0x..." wins when present.
        if (!q.pc && tok < (1ULL << 28)) {
            q.pc = tok;
        } else if (!q.address && tok >= (1ULL << 28)) {
            q.address = tok;
        }
    }
    // "set 1424" style set ids: the word "set", not the tail of
    // "offset" or "reset".
    auto set_pos = lower.find("set ");
    while (set_pos != std::string::npos && set_pos > 0 &&
           std::isalnum(static_cast<unsigned char>(lower[set_pos - 1])))
        set_pos = lower.find("set ", set_pos + 1);
    if (set_pos != std::string::npos) {
        const auto ints =
            str::extractIntTokens(lower.substr(set_pos, 24));
        if (!ints.empty() && ints[0] < (1u << 20))
            q.set_id = static_cast<std::uint32_t>(ints[0]);
    }
    // "top 5" / "5 hot" limits.
    const auto ints = str::extractIntTokens(lower);
    if (!ints.empty() && ints[0] >= 1 && ints[0] <= 1000 && !q.set_id)
        q.top_n = static_cast<std::size_t>(ints[0]);

    // --- Aggregate/field slots for arithmetic queries.
    if (hasAny(lower, {"standard deviation", "std ", "stdev",
                       "variance"})) {
        q.agg = AggKind::Std;
    } else if (hasAny(lower, {"average", "mean"})) {
        q.agg = AggKind::Mean;
    } else if (hasAny(lower, {"sum", "total"})) {
        q.agg = AggKind::Sum;
    } else if (hasAny(lower, {"maximum", "max "})) {
        q.agg = AggKind::Max;
    } else if (hasAny(lower, {"minimum", "min "})) {
        q.agg = AggKind::Min;
    }

    if (hasAny(lower, {"evicted reuse", "evicted-reuse",
                       "evicted_address_reuse"})) {
        q.field = FieldKind::EvictedReuseDistance;
    } else if (hasAny(lower, {"recency"})) {
        q.field = FieldKind::Recency;
    } else if (hasAny(lower, {"reuse distance", "reuse-distance",
                              "reuse_distance", "etr"})) {
        q.field = FieldKind::ReuseDistance;
    } else if (hasAny(lower, {"eviction", "evictions"})) {
        q.field = FieldKind::Misses;
    }

    q.intent = classifyIntent(lower, q);
    return q;
}

QueryIntent
NlQueryParser::classifyIntent(const std::string &lower,
                              const ParsedQuery &slots) const
{
    // Order matters: the more specific cues first.
    if (hasAny(lower, {"write code", "generate code", "python code",
                       "write a script", "code to"})) {
        return QueryIntent::CodeGen;
    }
    // Retrieval-light concept questions: no workload, no PC, and a
    // textbook-topic cue.
    if (!slots.hasWorkload() && !slots.pc &&
        hasAny(lower, {"cache size", "associativity",
                       "number of sets", "number of ways", "offset",
                       "tag bits", "compulsory", "capacity miss",
                       "conflict miss", "replacement policy do",
                       "what is reuse", "reuse distance and",
                       "prefetch", "write-back", "writeback",
                       "inclusive"})) {
        return QueryIntent::Concept;
    }
    if (hasAny(lower, {"why", "explain", "derive insight", "insight",
                       "analyze", "analyse", "reason about"})) {
        return QueryIntent::Explain;
    }
    if (hasAny(lower, {"how many", "count", "number of times",
                       "how often", "appear"})) {
        return QueryIntent::Count;
    }
    if (slots.hasWorkload() && hasAny(lower, {"miss rate", "hit rate"}) &&
        hasAny(lower, {"which policy", "lowest", "highest", "best",
                       "worst", "compare", "order the polic",
                       "rank the polic"})) {
        return QueryIntent::PolicyComparison;
    }
    if (slots.hasWorkload() &&
        hasAny(lower, {"which policy", "compare polic", "rank polic",
                       "across polic", "policies"})) {
        return QueryIntent::PolicyComparison;
    }
    if (hasAny(lower, {"hit or miss", "hit or a miss", "cache hit",
                       "result in a hit", "result in a miss",
                       "hit or cache miss"}) &&
        slots.pc && slots.address) {
        return QueryIntent::HitMiss;
    }
    // Set-hotness cues outrank the plain-rate check ("hot/cold sets
    // by hit rate" is a per-set question, not a rate question).
    if (hasAny(lower, {"hot set", "cold set", "hot and cold",
                       "set hotness", "hits per set",
                       "hit rate per set"})) {
        return QueryIntent::SetStats;
    }
    if (hasAny(lower, {"miss rate", "hit rate"})) {
        // Plain rate question (per PC or per workload).
        return QueryIntent::MissRate;
    }
    if (hasAny(lower, {"average", "mean", "standard deviation",
                       "variance", "sum of", "maximum", "minimum"})) {
        return QueryIntent::Arithmetic;
    }
    // "From the unique PCs, identify the PC causing the most misses"
    // names the listing but asks for the top of it: a TopPcs cue wins
    // over the ListPcs cues.
    const auto top_pcs_cue = [&lower] {
        return hasAny(lower, {"most cache misses", "most misses",
                              "most evictions", "causing the most",
                              "dominant miss", "top pcs", "identify pcs",
                              "bypass candidate", "suitable for bypass"});
    };
    if (hasAny(lower, {"unique pcs", "all pcs", "list pcs",
                       "list all pcs", "unique program counters",
                       "list the pcs"}) &&
        !top_pcs_cue()) {
        return QueryIntent::ListPcs;
    }
    if (hasAny(lower, {"unique cache sets", "unique sets", "list sets",
                       "cache sets in ascending"})) {
        return QueryIntent::ListSets;
    }
    if (top_pcs_cue()) {
        return QueryIntent::TopPcs;
    }
    if (slots.pc && slots.address) {
        // A PC+address tuple with no other cue: per-access lookup.
        return QueryIntent::HitMiss;
    }
    if (slots.pc) {
        return QueryIntent::PcStats;
    }
    if (hasAny(lower, {"cache size", "associativity", "number of sets",
                       "number of ways", "offset", "index", "tag",
                       "what is a", "how does"})) {
        return QueryIntent::Concept;
    }
    return QueryIntent::Unknown;
}

} // namespace cachemind::query
