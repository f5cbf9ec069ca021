/**
 * @file
 * The retrieved-context bundle handed to the generator LLM, plus the
 * retrieval-quality assessment used for the Figure 5 analysis.
 *
 * A bundle is *evidence*: trace-row slices, per-PC/per-set statistics,
 * cross-policy numbers, metadata, descriptions, and disassembly. The
 * generator is constrained to answer from this bundle — that is the
 * trace-grounding contract of the paper.
 */

#ifndef CACHEMIND_RETRIEVAL_CONTEXT_HH
#define CACHEMIND_RETRIEVAL_CONTEXT_HH

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/deadline.hh"
#include "db/stats_expert.hh"
#include "db/table.hh"
#include "query/parsed_query.hh"

namespace cachemind::retrieval {

/** Qualitative retrieval-context quality (Figure 5 buckets). */
enum class ContextQuality { Low, Medium, High };

const char *contextQualityName(ContextQuality q);

/** Cross-policy statistic for one policy. */
struct PolicyNumber
{
    std::string policy;
    double value = 0.0;
    /** Number of samples behind the value. */
    std::uint64_t samples = 0;
};

/** Everything the retriever assembled for one query. */
struct ContextBundle
{
    /** Which retriever produced this ("sieve"/"ranger"/"llamaindex"). */
    std::string retriever;
    /** Parsed query slots as the retriever understood them. */
    query::ParsedQuery parsed;
    /** Primary trace consulted (empty when unresolved). */
    std::string trace_key;

    /** Exact matching rows (bounded evidence window). */
    std::vector<db::AccessRow> rows;
    /**
     * Total matches known to the retriever. Sieve stops scanning at
     * its window, so for Sieve this equals rows.size(); Ranger's
     * executed programs report the true count.
     */
    std::size_t total_matches = 0;
    /** True when total_matches is the exact full-table count. */
    bool total_is_exact = false;

    /** Statistics for the focal PC (when one was identified). */
    std::optional<db::PcStats> pc_stats;
    /** Ranked or enumerated per-PC statistics. */
    std::vector<db::PcStats> pc_stats_list;
    /** Per-set statistics (set-hotness queries). */
    std::vector<db::SetStats> set_stats;
    /** Cross-policy numbers (miss rates unless noted in `label`). */
    std::vector<PolicyNumber> policy_numbers;
    std::string policy_numbers_label;

    /** Whole-trace metadata summary string. */
    std::string metadata;
    std::string workload_description;
    std::string policy_description;

    /** Source context at the focal PC. */
    std::string function_name;
    std::string function_code;
    std::string assembly;

    /** Unique PC/set listings. */
    std::vector<std::uint64_t> values;
    /** True when `values` is complete (not truncated). */
    bool values_complete = false;

    /** Ranger: scalar computed by the executed program. */
    std::optional<double> computed;
    /** Ranger: the generated retrieval program (rendered Python). */
    std::string generated_code;
    /** Free-text result (Ranger result string / LlamaIndex payloads). */
    std::string result_text;

    /** The retriever detected an inconsistent premise. */
    bool premise_violation = false;
    std::string premise_note;

    /**
     * The retrieval deadline expired mid-assembly and the retriever
     * returned the evidence gathered so far instead of failing. A
     * degraded bundle is answerable but incomplete, and must never be
     * admitted to the RetrievalCache (it would poison every later
     * request for the same key).
     */
    bool degraded = false;
    std::string degraded_note;

    /** Wall-clock retrieval latency in milliseconds (reporting only). */
    double retrieval_ms = 0.0;

    /** Render the bundle as prompt text (Figure 2-style). */
    std::string render() const;

    /**
     * render(), computed by the first call and kept: for a bundle that
     * no longer changes, such as a resident cache entry, whose every
     * streamed hit sends this text. Safe to call from several threads
     * at once. A copy or assignment starts without the kept text, so a
     * copy that is then changed renders its own.
     */
    const std::string &renderOnce() const;

  private:
    /** renderOnce()'s text; copying or assigning a bundle drops it. */
    struct KeptText
    {
        KeptText() = default;
        KeptText(const KeptText &) noexcept {}
        KeptText &
        operator=(const KeptText &) noexcept
        {
            text.reset();
            return *this;
        }

        std::shared_ptr<const std::string> text;
    };
    mutable KeptText rendered_;
};

/**
 * Heuristic quality assessment: does the bundle contain the evidence
 * class its own parsed query calls for? High = exact slice or exact
 * statistic present; Medium = right trace but partial evidence;
 * Low = wrong/no trace or empty evidence.
 */
ContextQuality assessQuality(const ContextBundle &bundle);

/** Compact single-line rendering of a row (slice listings). */
std::string renderRowLine(const db::AccessRow &row);

/** Append renderRowLine(row) to `out`. */
void appendRowLine(std::string &out, const db::AccessRow &row);

/**
 * Streaming consumer of evidence sections. A retriever that supports
 * chunked retrieval calls emit() as each section of the bundle is
 * assembled — resolved-trace overview, row slice, per-PC statistics,
 * per-program results — so the engine's askStream can forward
 * evidence to the user while the rest of the bundle is still being
 * built. emit() is called from the retrieving thread; implementations
 * synchronize internally if they fan the chunks out.
 */
class EvidenceSink
{
  public:
    virtual ~EvidenceSink() = default;

    /**
     * One assembled evidence section. `label` names the section
     * ("overview", "slice", ...); `text` is its rendered evidence.
     */
    virtual void emit(const std::string &label,
                      const std::string &text) = 0;

    /**
     * False when emitted chunks are discarded (NullEvidenceSink):
     * retrievers skip chunk-text formatting entirely for inactive
     * sinks, so the blocking ask() hot path pays nothing for the
     * streaming machinery it runs through.
     */
    virtual bool active() const { return true; }

    /**
     * Cooperative cancellation token. True once the consumer of this
     * stream went away (an abandoned AnswerStream, a dropped serving
     * connection); retrievers poll it between evidence sections / DSL
     * programs via throwIfCancelled() and abandon the remaining
     * retrieval work instead of assembling evidence nobody will read.
     * The blocking path (NullEvidenceSink) is never cancelled.
     */
    virtual bool cancelled() const { return false; }

    /**
     * Retrieval deadline for this request (infinite by default). The
     * engine sets it before retrieval starts; retrievers poll
     * expired() at the same cadence as cancelled() and degrade —
     * return the evidence gathered so far with bundle.degraded set —
     * instead of assembling the rest.
     */
    void setDeadline(const Deadline &d) { deadline_ = d; }
    const Deadline &deadline() const { return deadline_; }
    bool expired() const { return deadline_.expired(); }

  private:
    Deadline deadline_;
};

/**
 * Thrown by throwIfCancelled() to unwind a retrieval whose consumer
 * went away. The engine catches it at the pipeline boundary and
 * retires the stream quietly — it is control flow, not a failure, and
 * must never be recorded as a channel error or published to the
 * retrieval cache (the aborted bundle is incomplete).
 */
struct StreamCancelled
{
};

/** Poll `sink`'s cancellation token; unwind if it tripped. */
inline void
throwIfCancelled(const EvidenceSink &sink)
{
    if (sink.cancelled())
        throw StreamCancelled{};
}

/**
 * Poll `sink`'s deadline. When it has expired, mark `bundle` degraded
 * (once) and return true: the retriever should stop gathering and
 * return the bundle as-is. Checked at the same sites as
 * throwIfCancelled(), after the cancellation poll — a dead consumer
 * beats a late one.
 */
inline bool
deadlineDegrade(EvidenceSink &sink, ContextBundle &bundle)
{
    if (!sink.expired())
        return false;
    if (!bundle.degraded) {
        bundle.degraded = true;
        bundle.degraded_note =
            "retrieval deadline exceeded; evidence is partial";
        if (sink.active())
            sink.emit("degraded", bundle.degraded_note);
    }
    return true;
}

/** Sink that discards every chunk (the non-streaming default). */
class NullEvidenceSink : public EvidenceSink
{
  public:
    void
    emit(const std::string &, const std::string &) override
    {
    }

    bool active() const override { return false; }
};

/**
 * Abstract retriever interface.
 *
 * A retriever implements one method: retrieveParsed(parsed, sink)
 * assembles the evidence bundle for a question the engine has already
 * parsed, emitting each section into `sink` as it is assembled. A
 * retriever that emits nothing still works; its streams then carry no
 * evidence chunks. The cache hooks let the engine share evidence
 * bundles across questions: cacheFingerprint() identifies the
 * retriever configuration (two retrievers with equal fingerprints
 * assemble identical evidence for equal cache keys), and cacheKey()
 * maps one parsed query to its per-query key — or "" when the bundle
 * must not be shared.
 */
class Retriever
{
  public:
    virtual ~Retriever() = default;
    virtual const char *name() const = 0;

    /**
     * Assemble evidence for a parsed query, emitting sections into
     * `sink` as they are produced. The returned bundle must not depend
     * on the sink: streaming changes when evidence becomes visible,
     * never what is retrieved.
     */
    virtual ContextBundle retrieveParsed(const query::ParsedQuery &parsed,
                                         EvidenceSink &sink) = 0;

    /** Blocking form: retrieveParsed with a discarding sink. */
    ContextBundle
    retrieveParsed(const query::ParsedQuery &parsed)
    {
        NullEvidenceSink sink;
        return retrieveParsed(parsed, sink);
    }

    /**
     * Stable identity of this retriever's configuration, the first
     * component of the retrieval-cache key. Every option that changes
     * retrieval output must appear here, or two engines tuned
     * differently would alias each other's bundles.
     */
    virtual std::string cacheFingerprint() const { return name(); }

    /**
     * Per-query cache key ("" = this query's bundle must not be
     * shared). The default is conservative — nothing is cacheable —
     * because a custom retriever may depend on the raw question text;
     * the built-ins override with (shard key, slot key) or stronger.
     */
    virtual std::string
    cacheKey(const query::ParsedQuery &parsed) const
    {
        (void)parsed;
        return std::string();
    }
};

} // namespace cachemind::retrieval

#endif // CACHEMIND_RETRIEVAL_CONTEXT_HH
