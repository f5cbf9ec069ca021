/**
 * @file
 * LlamaIndex-style baseline: pure dense-embedding retrieval over
 * chunked trace documents (§6.2, Figure 9).
 *
 * Every Nth trace row is rendered to text and embedded, along with
 * per-trace summary documents. A query retrieves the top-k chunks by
 * cosine similarity — no symbolic filtering. On microarchitectural
 * traces this fails in exactly the way the paper reports: rows that
 * differ only in hex digits embed almost identically, so the top hits
 * are plausible but wrong rows.
 */

#ifndef CACHEMIND_RETRIEVAL_LLAMAINDEX_HH
#define CACHEMIND_RETRIEVAL_LLAMAINDEX_HH

#include <memory>

#include "db/shard.hh"
#include "retrieval/context.hh"
#include "text/embedding.hh"

namespace cachemind::retrieval {

/** Baseline configuration. */
struct LlamaIndexConfig
{
    /** Index every Nth row of each trace (memory/time bound). */
    std::size_t row_stride = 16;
    /** Chunks returned per query. */
    std::size_t top_k = 3;
    /** Embedding dimensionality. */
    std::size_t dims = 128;
};

/** The dense-retrieval baseline. */
class LlamaIndexRetriever : public Retriever
{
  public:
    LlamaIndexRetriever(db::ShardSet shards,
                        LlamaIndexConfig cfg = LlamaIndexConfig{});

    const char *name() const override { return "llamaindex"; }
    using Retriever::retrieveParsed;
    /**
     * Primary implementation: one chunk per retrieved top-k hit, in
     * similarity order. Byte-identical bundle to the blocking
     * overload.
     */
    ContextBundle retrieveParsed(const query::ParsedQuery &parsed,
                                 EvidenceSink &sink) override;

    /** "llamaindex" + the index-shaping config. */
    std::string cacheFingerprint() const override;
    /**
     * Dense retrieval embeds the raw question text, not the slots, so
     * only verbatim repeats may share a bundle.
     */
    std::string
    cacheKey(const query::ParsedQuery &parsed) const override;

    std::size_t indexedChunks() const { return index_->size(); }

  private:
    void buildIndex();

    db::ShardSet shards_;
    LlamaIndexConfig cfg_;
    text::HashEmbedder embedder_;
    std::unique_ptr<text::VectorIndex> index_;
};

} // namespace cachemind::retrieval

#endif // CACHEMIND_RETRIEVAL_LLAMAINDEX_HH
