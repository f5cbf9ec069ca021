/**
 * @file
 * CacheMind-Ranger: Retrieval via Agentic Neural Generation and
 * Execution Runtime (§3.3).
 *
 * The paper's Ranger prompts an LLM (GPT-4o) with the database schema
 * and asks it to emit executable Python. Offline, code generation is
 * simulated by a deterministic planner that maps a parsed query to
 * DSL programs (the surface Python is still rendered for
 * transcripts); a *codegen fidelity* knob injects the characteristic
 * mis-generations of weaker models (wrong field, wrong aggregate,
 * dropped filter) via hash-keyed draws, so retrieval accuracy
 * degrades mechanistically rather than by fiat (DESIGN.md §2, §5).
 */

#ifndef CACHEMIND_RETRIEVAL_RANGER_HH
#define CACHEMIND_RETRIEVAL_RANGER_HH

#include "db/shard.hh"
#include "query/dsl.hh"
#include "retrieval/context.hh"

namespace cachemind::retrieval {

/** Ranger configuration. */
struct RangerConfig
{
    /**
     * Probability that a generated program is faithful to the query.
     * 1.0 models a strong code-generation backend (GPT-4o); lower
     * values model weaker backends.
     */
    double codegen_fidelity = 1.0;
    /** Row cap for SelectRows programs. */
    std::size_t select_limit = 8;
    /** Default policy used when the query names none. */
    std::string default_policy = "lru";
    /** Seed salt for the mis-generation draws. */
    std::uint64_t seed = 0x7a9eULL;
    /**
     * Execute programs on the postings index (default). Off = the
     * reference O(n) scan interpreter, kept for equivalence tests and
     * scan-vs-index measurement; results are byte-identical.
     */
    bool use_index = true;
};

/** The Ranger retriever (serves any shard view, full store or subset). */
class RangerRetriever : public Retriever
{
  public:
    RangerRetriever(db::ShardSet shards,
                    RangerConfig cfg = RangerConfig{});

    const char *name() const override { return "ranger"; }
    using Retriever::retrieveParsed;
    /**
     * Primary implementation: one chunk per executed program (the
     * rendered Python plus its result), so multi-program plans
     * (policy comparisons) stream each policy's number as it is
     * computed. Byte-identical bundle to the blocking overload.
     */
    ContextBundle retrieveParsed(const query::ParsedQuery &parsed,
                                 EvidenceSink &sink) override;

    /** "ranger" + every RangerConfig knob that shapes programs. */
    std::string cacheFingerprint() const override;
    /**
     * (resolved shard key, slot key); below full fidelity the
     * mis-generation draws are keyed by the raw question text, so the
     * raw text joins the key and only verbatim repeats share.
     */
    std::string
    cacheKey(const query::ParsedQuery &parsed) const override;

  private:
    /** Plan the program(s) for a parsed query. */
    std::vector<query::DslProgram>
    planPrograms(const query::ParsedQuery &q,
                 const std::string &trace_key) const;

    /** Apply hash-keyed mis-generation to one program. */
    void corrupt(query::DslProgram &prog, std::uint64_t key) const;

    std::string resolveTraceKey(const query::ParsedQuery &q) const;

    db::ShardSet shards_;
    RangerConfig cfg_;
    query::Interpreter interp_;
};

} // namespace cachemind::retrieval

#endif // CACHEMIND_RETRIEVAL_RANGER_HH
