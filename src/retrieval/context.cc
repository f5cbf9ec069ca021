#include "retrieval/context.hh"

#include <sstream>

#include "base/str.hh"
#include "sim/llc_replay.hh"

namespace cachemind::retrieval {

const char *
contextQualityName(ContextQuality q)
{
    switch (q) {
      case ContextQuality::Low: return "Low";
      case ContextQuality::Medium: return "Medium";
      case ContextQuality::High: return "High";
    }
    return "?";
}

void
appendRowLine(std::string &out, const db::AccessRow &row)
{
    out += "program_counter=0x";
    str::appendHex(out, row.program_counter);
    out += ", memory_address=0x";
    str::appendHex(out, row.memory_address);
    out += ", cache_set_id=";
    out += std::to_string(row.cache_set_id);
    out += row.is_miss ? ", evict=Cache Miss" : ", evict=Cache Hit";
    if (row.is_miss) {
        out += ", miss_type=";
        out += sim::missTypeName(row.miss_type);
    }
    if (row.accessed_reuse_distance != db::kNoValue) {
        out += ", reuse_distance=";
        out += std::to_string(row.accessed_reuse_distance);
    }
    out += ", recency=";
    out += row.recency_text;
    if (row.has_victim) {
        out += ", evicted_address=0x";
        str::appendHex(out, row.evicted_address);
        if (row.evicted_reuse_distance != db::kNoValue) {
            out += " (needed again in ";
            out += std::to_string(row.evicted_reuse_distance);
            out += " accesses)";
        }
    }
}

std::string
renderRowLine(const db::AccessRow &row)
{
    // Room for every field at its widest, and the recency text.
    std::string out;
    out.reserve(272 + row.recency_text.size());
    appendRowLine(out, row);
    return out;
}

std::string
ContextBundle::render() const
{
    std::ostringstream os;
    os << "[Retriever] " << retriever << "\n";
    if (!trace_key.empty())
        os << "[Trace] " << trace_key << "\n";
    if (premise_violation)
        os << "[Premise check] " << premise_note << "\n";
    if (degraded)
        os << "[Degraded] " << degraded_note << "\n";
    if (!workload_description.empty())
        os << "[Workload] " << workload_description << "\n";
    if (!policy_description.empty())
        os << "[Policy] " << policy_description << "\n";
    if (!rows.empty()) {
        os << "[Trace slice] (" << rows.size() << " of "
           << (total_is_exact ? std::to_string(total_matches)
                              : std::string("unknown"))
           << " matching rows)\n";
        for (const auto &row : rows)
            os << "  " << renderRowLine(row) << "\n";
    }
    if (pc_stats) {
        const auto &s = *pc_stats;
        os << "[PC statistics] pc=" << str::hex(s.pc) << " accesses="
           << s.accesses << " hits=" << s.hits << " miss_rate="
           << str::percent(s.missRate())
           << " mean_reuse_distance=" << str::fixed(s.mean_reuse_distance)
           << " reuse_stdev=" << str::fixed(s.reuse_distance_stdev)
           << " mean_evicted_reuse_distance="
           << str::fixed(s.mean_evicted_reuse_distance)
           << " wrong_eviction_pct="
           << str::fixed(s.wrongEvictionPct()) << "%\n";
    }
    if (!pc_stats_list.empty()) {
        os << "[Per-PC statistics] (" << pc_stats_list.size()
           << " PCs)\n";
        for (const auto &s : pc_stats_list) {
            os << "  pc=" << str::hex(s.pc) << " accesses=" << s.accesses
               << " miss_rate=" << str::percent(s.missRate())
               << " mean_reuse_distance="
               << str::fixed(s.mean_reuse_distance) << " reuse_stdev="
               << str::fixed(s.reuse_distance_stdev) << "\n";
        }
    }
    if (!set_stats.empty()) {
        os << "[Per-set statistics] (" << set_stats.size()
           << " sets)\n";
        for (const auto &s : set_stats) {
            os << "  set=" << s.set << " accesses=" << s.accesses
               << " hits=" << s.hits << " hit_rate="
               << str::percent(s.hitRate()) << "\n";
        }
    }
    if (!policy_numbers.empty()) {
        os << "[Cross-policy "
           << (policy_numbers_label.empty() ? "miss rates"
                                            : policy_numbers_label)
           << "]\n";
        for (const auto &p : policy_numbers) {
            os << "  " << p.policy << ": " << str::fixed(p.value * 100.0)
               << "% over " << p.samples << " accesses\n";
        }
    }
    if (!values.empty()) {
        os << "[Values] (" << values.size()
           << (values_complete ? ", complete" : ", truncated") << ")";
        for (const auto v : values)
            os << " " << str::hex(v);
        os << "\n";
    }
    if (!metadata.empty())
        os << "[Metadata] " << metadata << "\n";
    if (!function_name.empty())
        os << "[Function] " << function_name << "\n";
    if (!function_code.empty())
        os << "[Source]\n" << function_code << "\n";
    if (!assembly.empty())
        os << "[Assembly]\n" << assembly;
    if (!generated_code.empty())
        os << "[Generated code]\n" << generated_code;
    if (computed)
        os << "[Computed] " << str::fixed(*computed, 4) << "\n";
    if (!result_text.empty())
        os << "[Result] " << result_text << "\n";
    return os.str();
}

const std::string &
ContextBundle::renderOnce() const
{
    std::shared_ptr<const std::string> text =
        std::atomic_load(&rendered_.text);
    if (!text) {
        auto fresh = std::make_shared<const std::string>(render());
        // First store wins, and the kept text never changes after it,
        // so the reference returned here stays valid. A racing hit
        // rendered the same bytes; its copy is dropped.
        if (std::atomic_compare_exchange_strong(&rendered_.text, &text,
                                                fresh))
            text = std::move(fresh);
    }
    return *text;
}

ContextQuality
assessQuality(const ContextBundle &bundle)
{
    using query::QueryIntent;
    const auto &q = bundle.parsed;

    if (bundle.premise_violation) {
        // A confident premise rejection is *good* context.
        return ContextQuality::High;
    }
    if (q.intent == QueryIntent::Concept) {
        // Concept questions are retrieval-light: an empty bundle is
        // clean context; stray partial slices are the noisy case.
        return bundle.rows.empty() ? ContextQuality::High
                                   : ContextQuality::Medium;
    }
    if (bundle.trace_key.empty()) {
        // Could not even resolve the trace.
        return bundle.metadata.empty() && bundle.rows.empty()
                   ? ContextQuality::Low
                   : ContextQuality::Medium;
    }

    switch (q.intent) {
      case QueryIntent::HitMiss: {
        for (const auto &row : bundle.rows) {
            const bool pc_ok = !q.pc || row.program_counter == *q.pc;
            const bool addr_ok =
                !q.address || row.memory_address == *q.address;
            if (pc_ok && addr_ok)
                return ContextQuality::High;
        }
        if (!bundle.result_text.empty() && q.pc && q.address) {
            // Textual evidence (LlamaIndex/Ranger result strings).
            const bool has_pc = bundle.result_text.find(str::hex(
                                    *q.pc)) != std::string::npos;
            const bool has_addr = bundle.result_text.find(str::hex(
                                      *q.address)) != std::string::npos;
            if (has_pc && has_addr)
                return ContextQuality::High;
        }
        return bundle.rows.empty() ? ContextQuality::Low
                                   : ContextQuality::Medium;
      }
      case QueryIntent::MissRate:
        if (q.pc) {
            if (bundle.pc_stats && bundle.pc_stats->pc == *q.pc)
                return ContextQuality::High;
            if (bundle.computed)
                return ContextQuality::High;
            return bundle.rows.empty() ? ContextQuality::Low
                                       : ContextQuality::Medium;
        }
        return bundle.metadata.empty() && !bundle.computed
                   ? ContextQuality::Medium
                   : ContextQuality::High;
      case QueryIntent::PolicyComparison:
        if (bundle.policy_numbers.size() >= 2)
            return ContextQuality::High;
        return bundle.policy_numbers.empty() ? ContextQuality::Low
                                             : ContextQuality::Medium;
      case QueryIntent::Count:
        if (bundle.total_is_exact)
            return ContextQuality::High;
        return bundle.rows.empty() ? ContextQuality::Low
                                   : ContextQuality::Medium;
      case QueryIntent::Arithmetic:
        if (bundle.computed)
            return ContextQuality::High;
        return bundle.rows.empty() && !bundle.pc_stats
                   ? ContextQuality::Low
                   : ContextQuality::Medium;
      case QueryIntent::ListPcs:
      case QueryIntent::ListSets:
        if (!bundle.values.empty() && bundle.values_complete)
            return ContextQuality::High;
        return bundle.values.empty() ? ContextQuality::Low
                                     : ContextQuality::Medium;
      case QueryIntent::SetStats:
        return bundle.set_stats.empty() ? ContextQuality::Low
                                        : ContextQuality::High;
      case QueryIntent::TopPcs:
      case QueryIntent::PcStats:
        if (bundle.pc_stats || !bundle.pc_stats_list.empty())
            return ContextQuality::High;
        return bundle.rows.empty() ? ContextQuality::Low
                                   : ContextQuality::Medium;
      case QueryIntent::Explain: {
        int richness = 0;
        richness += !bundle.metadata.empty();
        richness += bundle.pc_stats.has_value() ||
                    !bundle.pc_stats_list.empty();
        richness += !bundle.policy_description.empty() ||
                    !bundle.workload_description.empty();
        richness += !bundle.assembly.empty();
        if (richness >= 3)
            return ContextQuality::High;
        return richness >= 1 ? ContextQuality::Medium
                             : ContextQuality::Low;
      }
      case QueryIntent::Concept:
        // Concept questions need little retrieval; any clean context
        // counts as high, noisy partial slices count as medium.
        return bundle.rows.empty() ? ContextQuality::High
                                   : ContextQuality::Medium;
      case QueryIntent::CodeGen:
        return ContextQuality::High;
      case QueryIntent::Unknown: break;
    }
    return ContextQuality::Low;
}

} // namespace cachemind::retrieval
