/**
 * @file
 * CacheMind-Sieve: Symbolic-Indexed Entries for Verifiable Extraction
 * (§3.2). A filter-based retriever: semantic workload/policy
 * extraction, symbolic PC/address filters, the statistics expert, and
 * context assembly. Precise for structured queries; bounded by a
 * fixed evidence window, which is what breaks pure counting (§6.1).
 */

#ifndef CACHEMIND_RETRIEVAL_SIEVE_HH
#define CACHEMIND_RETRIEVAL_SIEVE_HH

#include "db/shard.hh"
#include "retrieval/context.hh"

namespace cachemind::retrieval {

/** Sieve configuration. */
struct SieveConfig
{
    /** Maximum rows placed in the evidence window. */
    std::size_t evidence_window = 12;
    /** Maximum entries in PC/set listings. */
    std::size_t listing_limit = 64;
    /** Default policy used when the query names none. */
    std::string default_policy = "lru";
    /**
     * Degradation knob for the retrieval-quality study (Figure 5):
     * drop the symbolic address filter and the premise checks, so
     * slices are PC-only windows — "right neighbourhood, imprecise
     * evidence" (medium-quality context).
     */
    bool degrade_filters = false;
    /**
     * Serve slices and listings from the per-shard postings index
     * (default). Off = the reference O(n) scan path, kept for
     * equivalence tests and scan-vs-index measurement; bundles are
     * byte-identical either way.
     */
    bool use_index = true;
};

/** The Sieve retriever (serves any shard view, full store or subset). */
class SieveRetriever : public Retriever
{
  public:
    SieveRetriever(db::ShardSet shards, SieveConfig cfg = SieveConfig{});

    const char *name() const override { return "sieve"; }
    using Retriever::retrieveParsed;
    /**
     * Primary implementation: emits the overview before any per-shard
     * work, then the premise check, the row slice, per-PC statistics,
     * and the intent-specific analysis as each is assembled. The
     * bundle is byte-identical to the blocking overload — both run
     * this code path.
     */
    ContextBundle retrieveParsed(const query::ParsedQuery &parsed,
                                 EvidenceSink &sink) override;

    /** "sieve" + every SieveConfig knob that shapes evidence. */
    std::string cacheFingerprint() const override;
    /** (resolved shard key, slot key): Sieve evidence is slot-pure. */
    std::string
    cacheKey(const query::ParsedQuery &parsed) const override;

  private:
    /** Resolve the trace key from parsed slots (may be empty). */
    std::string resolveTraceKey(const query::ParsedQuery &q) const;

    /** Premise validation for PC/address vs the resolved trace. */
    void checkPremise(const query::ParsedQuery &q,
                      const db::TraceEntry &entry,
                      ContextBundle &bundle) const;

    /** Row slice via the postings index or the reference scan. */
    std::vector<std::uint32_t>
    filterRows(const db::TraceTable &table, const std::uint64_t *pc,
               const std::uint64_t *address, std::size_t limit) const;

    void fillSourceContext(std::uint64_t pc,
                           const db::TraceEntry &entry,
                           ContextBundle &bundle) const;

    db::ShardSet shards_;
    SieveConfig cfg_;
};

} // namespace cachemind::retrieval

#endif // CACHEMIND_RETRIEVAL_SIEVE_HH
