#include "llm/generator.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "base/random.hh"
#include "base/str.hh"
#include "llm/knowledge.hh"
#include "query/dsl.hh"

namespace cachemind::llm {

using query::QueryIntent;
using retrieval::ContextBundle;
using retrieval::ContextQuality;

namespace {

std::uint64_t
questionKey(const ContextBundle &bundle)
{
    return fnv1a(bundle.parsed.raw);
}

bool
wantsHighest(const std::string &raw)
{
    const std::string lower = str::toLower(raw);
    return lower.find("highest") != std::string::npos ||
           lower.find("worst") != std::string::npos ||
           lower.find("most misses") != std::string::npos ||
           lower.find("largest") != std::string::npos;
}

/** Extract "NN.NN% miss rate" style figures from metadata text. */
std::optional<double>
missRateFromMetadata(const std::string &metadata)
{
    const auto pos = metadata.find("% miss rate");
    if (pos == std::string::npos)
        return std::nullopt;
    std::size_t start = pos;
    while (start > 0 &&
           (std::isdigit(static_cast<unsigned char>(metadata[start - 1]))
            || metadata[start - 1] == '.')) {
        --start;
    }
    const auto v = str::parseDouble(metadata.substr(start, pos - start));
    if (!v)
        return std::nullopt;
    return *v / 100.0;
}

} // namespace

GeneratorLlm::GeneratorLlm(const std::string &name,
                           CapabilityProfile profile)
    : name_(name),
      // Keep the salt above the built-in enum range so a custom
      // backend never shares a built-in backend's draw stream.
      identity_(fnv1a(name) | 0x100),
      profile_(std::move(profile))
{
}

bool
GeneratorLlm::roll(std::uint64_t qkey, const char *skill, double p) const
{
    // Common random numbers: the difficulty of a (question, skill)
    // pair is shared across backends, so a stronger profile succeeds
    // on a superset of the questions a weaker one solves. This is
    // both realistic (questions have intrinsic difficulty) and it
    // reproduces the paper's signature quantisation where same-skill
    // backends land on identical category scores.
    const double difficulty =
        keyedUniform(hashCombine(qkey, fnv1a(skill)));
    return difficulty < p;
}

bool
GeneratorLlm::maybeCopyExample(const ContextBundle &bundle,
                               const std::vector<ExampleShot> &shots,
                               std::uint64_t qkey, Answer &out) const
{
    if (shots.empty())
        return false;
    if (retrieval::assessQuality(bundle) != ContextQuality::Low)
        return false;
    if (!roll(qkey, "overreliance", profile_.context_overreliance))
        return false;
    // The model silently substitutes the example's context for its
    // own missing evidence (the §6.1 failure mode).
    const ExampleShot &shot = shots.front();
    out.copied_example = true;
    out.text = shot.answer;
    if (shot.answer.find("Cache Miss") != std::string::npos)
        out.says_hit = false;
    else if (shot.answer.find("Cache Hit") != std::string::npos)
        out.says_hit = true;
    return true;
}

Answer
GeneratorLlm::answer(const ContextBundle &bundle,
                     const GenerationOptions &opts) const
{
    const std::uint64_t qkey = questionKey(bundle);

    // Coverage gate: the all-or-nothing engagement axis (o3). It
    // affects open-ended reasoning, not mechanical lookups — o3's
    // trace-grounded scores in the paper are high while its reasoning
    // scores are bimodal (Figures 4 and 7).
    const bool reasoning_task =
        bundle.parsed.intent == QueryIntent::Explain ||
        bundle.parsed.intent == QueryIntent::Concept ||
        bundle.parsed.intent == QueryIntent::CodeGen;
    if (reasoning_task && !roll(qkey, "coverage", profile_.coverage)) {
        Answer a;
        a.engaged = false;
        a.text = "I do not have enough grounded data to answer this "
                 "reliably.";
        return a;
    }

    // Of the prompt (see llm/prompt.hh) only the example shots steer
    // generation: a weak model may copy one, and a trick-rejecting shot
    // raises scepticism.
    const std::vector<ExampleShot> &shots = canonicalShots(opts.shot_mode);

    switch (bundle.parsed.intent) {
      case QueryIntent::HitMiss:
        return answerHitMiss(bundle, shots, qkey);
      case QueryIntent::MissRate: return answerMissRate(bundle, qkey);
      case QueryIntent::PolicyComparison:
        return answerComparison(bundle, qkey);
      case QueryIntent::Count: return answerCount(bundle, qkey);
      case QueryIntent::Arithmetic:
        return answerArithmetic(bundle, qkey);
      case QueryIntent::ListPcs:
      case QueryIntent::ListSets:
        return answerListing(bundle, qkey);
      case QueryIntent::SetStats: return answerSetStats(bundle, qkey);
      case QueryIntent::TopPcs: return answerTopPcs(bundle, qkey);
      case QueryIntent::PcStats: return answerPcStats(bundle, qkey);
      case QueryIntent::Concept: return answerConcept(bundle, qkey);
      case QueryIntent::CodeGen: return answerCodeGen(bundle, qkey);
      case QueryIntent::Explain: return answerExplain(bundle, qkey);
      case QueryIntent::Unknown: break;
    }

    Answer a;
    Answer copied;
    if (maybeCopyExample(bundle, shots, qkey, copied))
        return copied;
    a.text = "I could not map this question onto the trace database.";
    return a;
}

Answer
GeneratorLlm::answerHitMiss(const ContextBundle &bundle,
                            const std::vector<ExampleShot> &shots,
                            std::uint64_t qkey) const
{
    Answer a;
    const auto &q = bundle.parsed;

    // 1. Exact row evidence.
    for (const auto &row : bundle.rows) {
        const bool pc_ok = !q.pc || row.program_counter == *q.pc;
        const bool addr_ok =
            !q.address || row.memory_address == *q.address;
        if (pc_ok && addr_ok) {
            bool is_hit = !row.is_miss;
            if (!roll(qkey, "lookup", profile_.lookup))
                is_hit = !is_hit; // characteristic misread
            a.says_hit = is_hit;
            a.evidence.push_back(str::hex(row.program_counter));
            a.evidence.push_back(str::hex(row.memory_address));
            std::ostringstream os;
            os << "The access at PC " << str::hex(row.program_counter)
               << " to address " << str::hex(row.memory_address)
               << " results in a "
               << (is_hit ? "Cache Hit" : "Cache Miss") << " ("
               << bundle.trace_key << ").";
            if (row.has_victim && !is_hit) {
                os << " It evicted " << str::hex(row.evicted_address);
                if (row.evicted_reuse_distance != db::kNoValue) {
                    os << ", needed again in "
                       << row.evicted_reuse_distance << " accesses";
                }
                os << ".";
            }
            a.text = os.str();
            return a;
        }
    }

    // 2. Premise rejection path.
    if (bundle.premise_violation) {
        double scepticism = profile_.skepticism;
        if (hasTrickShot(shots))
            scepticism = std::min(1.0, scepticism + 0.25);
        if (roll(qkey, "skepticism", scepticism)) {
            a.rejected_premise = true;
            a.text = "TRICK: " + bundle.premise_note;
            a.evidence.push_back(bundle.premise_note);
            return a;
        }
    }

    // 3. Textual evidence (Ranger result strings, LlamaIndex chunks).
    if (!bundle.result_text.empty() && q.pc && q.address) {
        const bool has_pc =
            bundle.result_text.find(str::hex(*q.pc)) != std::string::npos;
        const bool has_addr = bundle.result_text.find(str::hex(
                                  *q.address)) != std::string::npos;
        if (has_pc && has_addr) {
            const bool miss = bundle.result_text.find("Cache Miss") !=
                              std::string::npos;
            bool is_hit = !miss;
            if (!roll(qkey, "lookup", profile_.lookup))
                is_hit = !is_hit;
            a.says_hit = is_hit;
            a.evidence.push_back(str::hex(*q.pc));
            a.text = std::string("Based on the retrieved context the "
                                 "access is a ") +
                     (is_hit ? "Cache Hit." : "Cache Miss.");
            return a;
        }
    }

    // 4. Partial evidence: infer the likely outcome from per-PC
    // statistics (the medium-quality-context behaviour — right
    // neighbourhood, no exact row).
    if (bundle.pc_stats && q.pc && bundle.pc_stats->pc == *q.pc &&
        roll(qkey, "stat-inference", profile_.rate_calc)) {
        const bool likely_hit = bundle.pc_stats->hitRate() >= 0.5;
        a.says_hit = likely_hit;
        a.evidence.push_back(str::hex(*q.pc));
        a.text = "No exact row for this address is in the retrieved "
                 "slice, but PC " + str::hex(*q.pc) + " has a " +
                 str::percent(bundle.pc_stats->missRate()) +
                 " miss rate, so this access most likely " +
                 (likely_hit ? "hits." : "misses.");
        return a;
    }

    // 5. No usable evidence: copy an example or hallucinate a guess.
    Answer copied;
    if (maybeCopyExample(bundle, shots, qkey, copied))
        return copied;
    if (roll(qkey, "skepticism-weak", profile_.skepticism)) {
        a.rejected_premise = true;
        a.text = "I cannot verify this access in the retrieved trace "
                 "slice; the premise may be wrong.";
        return a;
    }
    // Ungrounded guesses skew toward "hit": a plausible-sounding
    // positive is the characteristic hallucination.
    const bool guess_hit = keyedBernoulli(
        decisionKeyFor(identity_, qkey, "hallucinated-guess"), 0.75);
    a.says_hit = guess_hit;
    a.text = std::string("The access results in a ") +
             (guess_hit ? "Cache Hit." : "Cache Miss.");
    return a;
}

Answer
GeneratorLlm::answerMissRate(const ContextBundle &bundle,
                             std::uint64_t qkey) const
{
    Answer a;
    std::optional<double> rate;
    std::string source;

    if (bundle.parsed.pc && bundle.pc_stats &&
        bundle.pc_stats->pc == *bundle.parsed.pc) {
        rate = bundle.pc_stats->missRate();
        source = "per-PC statistics";
        a.evidence.push_back(str::hex(bundle.pc_stats->pc));
    } else if (bundle.computed) {
        rate = *bundle.computed;
        source = "executed retrieval program";
    } else if (!bundle.metadata.empty() && !bundle.parsed.pc) {
        rate = missRateFromMetadata(bundle.metadata);
        source = "trace metadata";
    } else if (!bundle.rows.empty()) {
        std::size_t misses = 0;
        for (const auto &row : bundle.rows)
            misses += row.is_miss;
        rate = static_cast<double>(misses) /
               static_cast<double>(bundle.rows.size());
        source = "evidence window (partial)";
    }

    if (!rate) {
        a.text = "The retrieved context does not contain the miss "
                 "rate for this query.";
        return a;
    }
    double value = *rate;
    if (!roll(qkey, "rate_calc", profile_.rate_calc))
        value = 1.0 - value; // classic hit/miss-rate confusion
    a.number = value;
    std::ostringstream os;
    os << "The miss rate is " << str::percent(value) << " (from "
       << source << ", trace " << bundle.trace_key << ").";
    a.text = os.str();
    a.evidence.push_back(str::percent(value));
    return a;
}

Answer
GeneratorLlm::answerComparison(const ContextBundle &bundle,
                               std::uint64_t qkey) const
{
    Answer a;
    if (bundle.policy_numbers.size() < 2) {
        // Not enough cross-policy evidence: guess a policy.
        static const char *fallback[] = {"lru", "belady", "parrot",
                                         "mlp"};
        const auto pick = keyedPick(
            decisionKeyFor(identity_, qkey, "comparison-guess"), 4);
        a.chosen_policy = fallback[pick];
        a.text = "Evidence is incomplete, but " + *a.chosen_policy +
                 " likely has the best behaviour here.";
        return a;
    }
    const bool highest = wantsHighest(bundle.parsed.raw);
    auto sorted = bundle.policy_numbers;
    std::sort(sorted.begin(), sorted.end(),
              [](const retrieval::PolicyNumber &x,
                 const retrieval::PolicyNumber &y) {
                  if (x.value != y.value)
                      return x.value < y.value;
                  return x.policy < y.policy;
              });
    const auto &best = highest ? sorted.back() : sorted.front();
    const auto &runner_up =
        highest ? sorted[sorted.size() - 2] : sorted[1];

    const bool correct = roll(qkey, "comparison", profile_.comparison);
    const auto &pick = correct ? best : runner_up;
    a.chosen_policy = pick.policy;
    std::ostringstream os;
    os << "Policy '" << pick.policy << "' has the "
       << (highest ? "highest" : "lowest") << " miss rate ("
       << str::percent(pick.value) << ") among";
    for (const auto &p : sorted) {
        os << " " << p.policy << "=" << str::percent(p.value);
        a.evidence.push_back(p.policy);
    }
    os << ".";
    a.text = os.str();
    return a;
}

Answer
GeneratorLlm::answerCount(const ContextBundle &bundle,
                          std::uint64_t qkey) const
{
    Answer a;
    if (bundle.total_is_exact) {
        a.number = static_cast<double>(bundle.total_matches);
        std::ostringstream os;
        os << "Count = " << bundle.total_matches
           << " (exact, computed over the full trace by the executed "
              "program).";
        a.text = os.str();
        a.evidence.push_back(std::to_string(bundle.total_matches));
        return a;
    }
    // Only a bounded window is visible: the model counts what it can
    // see. This is the mechanistic counting failure of §6.1 — even a
    // perfect counter over a truncated window undercounts.
    (void)qkey;
    a.number = static_cast<double>(bundle.rows.size());
    std::ostringstream os;
    os << "I count " << bundle.rows.size()
       << " matching accesses in the retrieved slice.";
    a.text = os.str();
    return a;
}

Answer
GeneratorLlm::answerArithmetic(const ContextBundle &bundle,
                               std::uint64_t qkey) const
{
    Answer a;
    const auto &q = bundle.parsed;
    std::optional<double> value;
    std::string source;

    if (bundle.computed) {
        value = *bundle.computed;
        source = "executed retrieval program";
    } else if (bundle.pc_stats) {
        // Direct statistic reads cover a subset of aggregates.
        const auto &s = *bundle.pc_stats;
        if (q.agg == query::AggKind::Mean &&
            q.field == query::FieldKind::EvictedReuseDistance) {
            value = s.mean_evicted_reuse_distance;
            source = "per-PC statistics";
        } else if (q.agg == query::AggKind::Mean &&
                   q.field == query::FieldKind::ReuseDistance) {
            value = s.mean_reuse_distance;
            source = "per-PC statistics";
        } else if (q.agg == query::AggKind::Std &&
                   q.field == query::FieldKind::ReuseDistance) {
            value = s.reuse_distance_stdev;
            source = "per-PC statistics";
        } else if (q.agg == query::AggKind::Mean &&
                   q.field == query::FieldKind::Recency) {
            value = s.mean_recency;
            source = "per-PC statistics";
        }
    }

    if (!value && !bundle.rows.empty()) {
        // Fall back to window arithmetic: gated, and inherently
        // partial (the window is a truncated slice).
        if (!roll(qkey, "arithmetic", profile_.arithmetic)) {
            a.number = static_cast<double>(bundle.rows.size());
            a.text = "The aggregate over the retrieved slice is "
                     "inconclusive; the slice has " +
                     std::to_string(bundle.rows.size()) + " rows.";
            return a;
        }
        std::vector<double> xs;
        for (const auto &row : bundle.rows) {
            std::int64_t v = db::kNoValue;
            switch (q.field) {
              case query::FieldKind::ReuseDistance:
                v = row.accessed_reuse_distance;
                break;
              case query::FieldKind::EvictedReuseDistance:
                v = row.evicted_reuse_distance;
                break;
              case query::FieldKind::Recency:
                v = row.accessed_recency;
                break;
              default: break;
            }
            if (v != db::kNoValue)
                xs.push_back(static_cast<double>(v));
        }
        if (!xs.empty()) {
            double out = 0.0;
            switch (q.agg) {
              case query::AggKind::Sum:
                for (const double x : xs)
                    out += x;
                break;
              case query::AggKind::Max:
                out = *std::max_element(xs.begin(), xs.end());
                break;
              case query::AggKind::Min:
                out = *std::min_element(xs.begin(), xs.end());
                break;
              case query::AggKind::Std: {
                double m = 0.0;
                for (const double x : xs)
                    m += x;
                m /= static_cast<double>(xs.size());
                double acc = 0.0;
                for (const double x : xs)
                    acc += (x - m) * (x - m);
                out = std::sqrt(acc / static_cast<double>(xs.size()));
                break;
              }
              case query::AggKind::Mean:
              default: {
                for (const double x : xs)
                    out += x;
                out /= static_cast<double>(xs.size());
                break;
              }
            }
            value = out;
            source = "evidence window (partial)";
        }
    }

    if (!value) {
        a.text = "The retrieved context lacks the values needed for "
                 "this computation.";
        return a;
    }
    double out = *value;
    // Even with the value in hand, weak arithmetic can garble the
    // final reporting step (unit slips, off-by-order errors).
    if (source == "per-PC statistics" &&
        !roll(qkey, "arithmetic-report",
              0.1 + 0.5 * profile_.arithmetic)) {
        out *= 2.0;
    }
    a.number = out;
    std::ostringstream os;
    os << "The " << (q.agg == query::AggKind::Std ? "standard deviation"
                                                  : "aggregate")
       << " over " << query::fieldName(q.field) << " is "
       << str::fixed(out, 2) << " (from " << source << ").";
    a.text = os.str();
    a.evidence.push_back(str::fixed(out, 2));
    return a;
}

Answer
GeneratorLlm::answerListing(const ContextBundle &bundle,
                            std::uint64_t) const
{
    Answer a;
    a.listed_values = bundle.values;
    std::ostringstream os;
    const bool pcs = bundle.parsed.intent == QueryIntent::ListPcs;
    os << (pcs ? "Unique PCs" : "Unique cache sets") << " in "
       << bundle.trace_key << " (" << bundle.values.size()
       << (bundle.values_complete ? ", complete" : ", truncated")
       << "):";
    for (const auto v : bundle.values) {
        if (pcs) {
            os << " " << str::hex(v);
        } else {
            os << " " << v;
        }
    }
    a.text = os.str();
    a.number = static_cast<double>(bundle.values.size());
    return a;
}

Answer
GeneratorLlm::answerSetStats(const ContextBundle &bundle,
                             std::uint64_t) const
{
    Answer a;
    if (bundle.set_stats.empty()) {
        a.text = "No per-set statistics were retrieved.";
        return a;
    }
    std::ostringstream os;
    const std::size_t half = bundle.set_stats.size() / 2;
    os << "Hot sets:";
    for (std::size_t i = 0; i < half; ++i) {
        os << " " << bundle.set_stats[i].set << " (hit rate "
           << str::percent(bundle.set_stats[i].hitRate()) << ")";
        a.listed_values.push_back(bundle.set_stats[i].set);
    }
    os << ". Cold sets:";
    for (std::size_t i = half; i < bundle.set_stats.size(); ++i) {
        os << " " << bundle.set_stats[i].set << " (hit rate "
           << str::percent(bundle.set_stats[i].hitRate()) << ")";
        a.listed_values.push_back(bundle.set_stats[i].set);
    }
    os << ".";
    a.text = os.str();
    return a;
}

Answer
GeneratorLlm::answerTopPcs(const ContextBundle &bundle,
                           std::uint64_t) const
{
    Answer a;
    if (bundle.pc_stats_list.empty()) {
        a.text = "No ranked per-PC statistics were retrieved.";
        return a;
    }
    std::ostringstream os;
    os << "Ranked PCs by miss count in " << bundle.trace_key << ":";
    for (const auto &s : bundle.pc_stats_list) {
        os << " " << str::hex(s.pc) << " (" << s.misses << " misses, "
           << str::percent(s.missRate()) << " miss rate, mean reuse "
           << str::fixed(s.mean_reuse_distance, 0) << ")";
        a.listed_values.push_back(s.pc);
        a.evidence.push_back(str::hex(s.pc));
    }
    os << ".";
    a.text = os.str();
    return a;
}

Answer
GeneratorLlm::answerPcStats(const ContextBundle &bundle,
                            std::uint64_t) const
{
    Answer a;
    if (!bundle.pc_stats) {
        a.text = "No statistics were retrieved for this PC.";
        return a;
    }
    const auto &s = *bundle.pc_stats;
    std::ostringstream os;
    os << "PC " << str::hex(s.pc) << " in " << bundle.trace_key << ": "
       << s.accesses << " accesses, " << s.hits << " hits ("
       << str::percent(s.hitRate()) << " hit rate), mean reuse "
          "distance "
       << str::fixed(s.mean_reuse_distance, 1) << " (stdev "
       << str::fixed(s.reuse_distance_stdev, 1) << "), "
       << s.wrong_evictions << " wrong evictions";
    if (!bundle.function_name.empty())
        os << "; function " << bundle.function_name;
    os << ".";
    a.text = os.str();
    a.number = s.hitRate();
    a.evidence.push_back(str::hex(s.pc));
    return a;
}

Answer
GeneratorLlm::answerConcept(const ContextBundle &bundle,
                            std::uint64_t qkey) const
{
    Answer a;
    const ConceptTopic *topic = topicFor(bundle.parsed.raw);
    if (!topic) {
        a.text = "This is outside my cache-architecture knowledge.";
        return a;
    }
    // "Context can suppress latent knowledge": noisy partial slices
    // in the context can override known-correct points (§6.1).
    bool suppressed = false;
    if (!bundle.rows.empty() &&
        retrieval::assessQuality(bundle) != ContextQuality::High) {
        suppressed = keyedBernoulli(
            decisionKeyFor(identity_, qkey, "context-suppression"), 0.5);
    }
    std::ostringstream os;
    std::size_t included = 0;
    for (std::size_t i = 0; i < topic->points.size(); ++i) {
        const std::string tag = "concept-point-" + std::to_string(i);
        double p = profile_.concept_knowledge;
        if (suppressed && i >= topic->points.size() / 2)
            p *= 0.3;
        if (roll(qkey, tag.c_str(), p)) {
            os << (included ? " " : "") << topic->points[i] << ".";
            a.evidence.push_back(topic->points[i]);
            ++included;
        }
    }
    if (included == 0) {
        a.text = "It depends on the configuration; without more "
                 "context both choices behave similarly.";
        return a;
    }
    a.text = os.str();
    return a;
}

Answer
GeneratorLlm::answerCodeGen(const ContextBundle &bundle,
                            std::uint64_t qkey) const
{
    Answer a;
    const auto &q = bundle.parsed;
    query::DslProgram prog;
    prog.trace_key = bundle.trace_key;
    prog.pc = q.pc;
    prog.address = q.address;
    const std::string lower = str::toLower(q.raw);
    if (lower.find("hit") != std::string::npos) {
        prog.op = query::DslOp::HitCount;
    } else if (lower.find("count") != std::string::npos ||
               lower.find("how many") != std::string::npos) {
        prog.op = query::DslOp::CountRows;
    } else if (lower.find("miss rate") != std::string::npos) {
        prog.op = query::DslOp::MissRate;
    } else {
        prog.op = query::DslOp::SelectRows;
    }
    // Codegen slips: weak generations lose filters and the target
    // operation at once (the paper's o3/finetuned code is noticeably
    // unfaithful, not just off by one clause). Faithfulness needs two
    // independent sub-skills: schema recall and query-plan fidelity.
    const bool faithful =
        roll(qkey, "codegen", profile_.codegen) &&
        roll(qkey, "codegen-plan", 0.5 + 0.5 * profile_.codegen);
    if (!faithful) {
        prog.op = query::DslOp::SelectRows;
        switch (keyedPick(decisionKeyFor(identity_, qkey, "codegen-error"),
                          2)) {
          case 0: prog.address.reset(); break;
          default: prog.pc.reset(); break;
        }
    }
    a.text = "```python\n" + query::renderProgramAsPython(prog) + "```";
    if (prog.pc)
        a.evidence.push_back(str::hex(*prog.pc));
    if (prog.address)
        a.evidence.push_back(str::hex(*prog.address));
    a.evidence.push_back(query::dslOpName(prog.op));
    return a;
}

Answer
GeneratorLlm::answerExplain(const ContextBundle &bundle,
                            std::uint64_t qkey) const
{
    Answer a;
    const std::string lower = str::toLower(bundle.parsed.raw);
    const bool semantic_q =
        lower.find("assembly") != std::string::npos ||
        lower.find("semantic") != std::string::npos ||
        lower.find("source") != std::string::npos ||
        lower.find("function") != std::string::npos ||
        lower.find("code context") != std::string::npos;
    const bool workload_q =
        !semantic_q && (bundle.parsed.workloads.size() > 1 ||
                        lower.find("which workload") !=
                            std::string::npos ||
                        lower.find("workloads") != std::string::npos);
    const double skill = semantic_q ? profile_.semantic
                         : workload_q ? profile_.synthesis
                                      : profile_.causal;
    const char *skill_tag = semantic_q    ? "semantic"
                            : workload_q  ? "synthesis"
                                          : "causal";

    std::ostringstream os;

    // Claim 1: quantitative evidence (needs retrieved numbers).
    bool cited_numbers = false;
    if (bundle.pc_stats && roll(qkey, "explain-cite", skill)) {
        const auto &s = *bundle.pc_stats;
        os << "PC " << str::hex(s.pc) << " has a "
           << str::percent(s.missRate()) << " miss rate with mean "
              "reuse distance "
           << str::fixed(s.mean_reuse_distance, 0) << " (stdev "
           << str::fixed(s.reuse_distance_stdev, 0) << "). ";
        a.evidence.push_back(str::hex(s.pc));
        a.evidence.push_back(str::percent(s.missRate()));
        cited_numbers = true;
    }
    if (!bundle.policy_numbers.empty() &&
        roll(qkey, "explain-cite2", skill)) {
        os << "Across the compared "
           << (bundle.policy_numbers_label.empty()
                   ? "policies"
                   : bundle.policy_numbers_label)
           << ":";
        auto sorted = bundle.policy_numbers;
        std::sort(sorted.begin(), sorted.end(),
                  [](const retrieval::PolicyNumber &x,
                     const retrieval::PolicyNumber &y) {
                      return x.value > y.value;
                  });
        for (const auto &p : sorted) {
            os << " " << p.policy << "=" << str::percent(p.value);
            a.evidence.push_back(p.policy);
        }
        os << "; the highest miss rate belongs to "
           << sorted.front().policy << ". ";
        cited_numbers = true;
    }
    if (!cited_numbers && !bundle.metadata.empty() &&
        roll(qkey, "explain-cite3", skill)) {
        os << "Trace metadata: "
           << bundle.metadata.substr(
                  0, std::min<std::size_t>(bundle.metadata.size(), 180))
           << "... ";
        cited_numbers = true;
    }

    // Claim 2: the causal mechanism, correct only if the skill roll
    // passes; otherwise a plausible but non-grounded generic claim.
    const bool mechanism_ok = roll(qkey, skill_tag, skill);
    if (semantic_q) {
        if (mechanism_ok && !bundle.function_name.empty()) {
            os << "The PC sits in " << bundle.function_name
               << "; its access pattern in the source ("
               << (bundle.function_code.empty()
                       ? "loop body"
                       : bundle.function_code.substr(
                             0, std::min<std::size_t>(
                                    bundle.function_code.size(), 60)))
               << "...) explains the reuse behaviour: repeated touches "
                  "to a small structure keep reuse distances short, so "
                  "the lines stay resident. ";
            a.evidence.push_back(bundle.function_name);
        } else if (mechanism_ok) {
            os << "The access pattern at this PC has short reuse "
                  "distances, so its lines survive in the set. ";
        } else {
            os << "The behaviour likely stems from compiler "
                  "scheduling choices at this PC. ";
        }
    } else if (workload_q) {
        if (mechanism_ok) {
            os << "The dominant factor is the workload's working-set "
                  "structure: streaming scans generate capacity "
                  "misses that no recency order can avoid, while "
                  "reused structures interleaved with the scans are "
                  "the lines a better policy protects. ";
        } else {
            os << "The workloads differ mostly in instruction mix, "
                  "which changes cache pressure. ";
        }
    } else {
        if (mechanism_ok) {
            os << "Belady exploits future knowledge: it keeps exactly "
                  "the lines with the shortest forward reuse distance, "
                  "while recency-based policies must evict by history; "
                  "lines whose reuse distance exceeds what a 16-way "
                  "recency stack retains miss under LRU but survive "
                  "under the oracle. ";
        } else {
            os << "The difference comes from tie-breaking details in "
                  "the policies' insertion positions. ";
        }
    }

    // Claim 3: actionable implication (fluency-gated polish).
    if (roll(qkey, "explain-implication", skill * profile_.fluency)) {
        if (semantic_q) {
            os << "A software fix would restructure this access or "
                  "prefetch it explicitly.";
        } else if (workload_q) {
            os << "Policies with PC-aware reuse prediction or scan "
                  "bypass (SHiP/DRRIP-style) recover most of the "
                  "oracle gap here.";
        } else {
            os << "Bypassing never-reused fills or training a reuse-"
                  "distance predictor on this PC closes the gap.";
        }
    }

    // Fine-tuned-style fabrication: fluent but ungrounded specifics.
    if (!cited_numbers &&
        roll(qkey, "fabricate", profile_.context_overreliance * 0.6)) {
        os << " Empirically the gap is about "
           << 3 + (decisionKeyFor(identity_, qkey, "fab") % 20)
           << "% in our runs.";
        a.copied_example = true; // flag as ungrounded specifics
    }

    a.text = os.str();
    return a;
}

std::vector<std::string>
splitAnswerDeltas(const std::string &text)
{
    // Target fragment size for simulated token streaming. Fragments
    // prefer to break after whitespace so the stream reads naturally,
    // but never exceed 2x the target when the text has no break
    // points (a long hex listing still streams).
    constexpr std::size_t kTarget = 48;
    std::vector<std::string> deltas;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = std::min(pos + kTarget, text.size());
        if (end < text.size()) {
            // Extend to the next whitespace (bounded) so words are
            // never split mid-token.
            std::size_t scan = end;
            const std::size_t scan_limit =
                std::min(pos + 2 * kTarget, text.size());
            while (scan < scan_limit &&
                   !std::isspace(static_cast<unsigned char>(
                       text[scan]))) {
                ++scan;
            }
            // Include the whitespace itself in this fragment; when
            // the scan hit the 2x cap instead of whitespace, cut
            // exactly there so the bound holds.
            end = scan < scan_limit ? scan + 1 : scan;
        }
        deltas.push_back(text.substr(pos, end - pos));
        pos = end;
    }
    return deltas;
}

Answer
GeneratorLlm::answerStreaming(const ContextBundle &bundle,
                              const GenerationOptions &opts,
                              const DeltaFn &on_delta) const
{
    // The simulated backend composes its full answer in one pass, so
    // incremental generation replays that text as deterministic
    // fragments. The answer object itself is the blocking call's —
    // the byte-identity contract of the streaming pipeline.
    Answer a = answer(bundle, opts);
    if (on_delta) {
        const bool paced = opts.tokens_per_second > 0.0;
        bool first = true;
        for (const auto &delta : splitAnswerDeltas(a.text)) {
            // Decode-rate pacing: each delta after the first waits for
            // the tokens of the *previous* delta to have "decoded", so
            // the first byte is never delayed by its own pace.
            if (paced && !first) {
                const double tokens = std::max<double>(
                    1.0, static_cast<double>(delta.size()) / 4.0);
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(
                        tokens / opts.tokens_per_second));
            }
            first = false;
            on_delta(delta);
        }
    }
    return a;
}

} // namespace cachemind::llm
