#include "retrieval/llamaindex.hh"

#include "retrieval/registry.hh"

#include <sstream>

#include "base/failpoint.hh"
#include "base/stopwatch.hh"
#include "base/str.hh"

namespace cachemind::retrieval {

LlamaIndexRetriever::LlamaIndexRetriever(db::ShardSet shards,
                                         LlamaIndexConfig cfg)
    : shards_(std::move(shards)), cfg_(std::move(cfg)),
      embedder_(cfg_.dims)
{
    index_ = std::make_unique<text::VectorIndex>(embedder_);
    buildIndex();
}

void
LlamaIndexRetriever::buildIndex()
{
    for (const auto &key : shards_.keys()) {
        const auto *entry = shards_.find(key);
        // Summary document per trace.
        {
            std::ostringstream os;
            os << "TRACE_ID: " << key << "\nDESCRIPTION: "
               << entry->description << "\n" << entry->metadata;
            index_->add(os.str(), key + "#summary");
        }
        // Row chunks.
        const auto &table = entry->table;
        for (std::size_t i = 0; i < table.size();
             i += cfg_.row_stride) {
            std::ostringstream os;
            os << "TRACE_ID: " << key << "\nprogram_counter="
               << str::hex(table.pcAt(i))
               << ", memory_address=" << str::hex(table.addressAt(i))
               << ", evict="
               << (table.isMissAt(i) ? "Cache Miss" : "Cache Hit")
               << ", cache_set_id=" << table.setAt(i)
               << ", recency=" << table.recencyTextAt(i);
            index_->add(os.str(),
                        key + "#row=" + std::to_string(i));
        }
    }
}

std::string
LlamaIndexRetriever::cacheFingerprint() const
{
    return std::string("llamaindex|s=") +
           std::to_string(cfg_.row_stride) +
           "|k=" + std::to_string(cfg_.top_k) +
           "|d=" + std::to_string(cfg_.dims);
}

std::string
LlamaIndexRetriever::cacheKey(const query::ParsedQuery &parsed) const
{
    // Cosine retrieval is a function of the raw text (the query
    // embedding), so slot-equal paraphrases can score chunks
    // differently and must not share; verbatim repeats still hit.
    return "raw=" + parsed.raw;
}

ContextBundle
LlamaIndexRetriever::retrieveParsed(const query::ParsedQuery &parsed,
                                    EvidenceSink &sink)
{
    Stopwatch timer;
    ContextBundle bundle;
    bundle.retriever = name();
    bundle.parsed = parsed;

    const auto hits = index_->topK(parsed.raw, cfg_.top_k);
    std::ostringstream text;
    for (const auto &hit : hits) {
        fail::maybeDelay("retrieve.section");
        // A blown deadline keeps the hits formatted so far (partial
        // evidence beats none); a dead consumer aborts outright.
        if (deadlineDegrade(sink, bundle))
            break;
        // Cooperative cancellation between hits: stop formatting
        // payloads once the stream's consumer went away.
        throwIfCancelled(sink);
        std::ostringstream chunk;
        chunk << str::fixed(hit.score, 6) << "\n"
              << index_->payload(hit.doc) << "\n---\n";
        const std::string chunk_text = chunk.str();
        text << chunk_text;
        if (sink.active())
            sink.emit("hit", chunk_text);
        // Expose the best hit's trace for bookkeeping.
        if (bundle.trace_key.empty()) {
            const auto &tag = index_->tag(hit.doc);
            const auto pos = tag.find('#');
            bundle.trace_key =
                pos == std::string::npos ? tag : tag.substr(0, pos);
        }
    }
    bundle.result_text = text.str();
    bundle.retrieval_ms = timer.milliseconds();
    return bundle;
}

namespace {

// Factory knobs (ROADMAP "engine-level scenario configs"); all three
// shape the index and are part of cacheFingerprint(). They can come
// straight from a serve request, so the ones that size the index are
// range-checked: a zero stride never finishes the build, and dims
// outside [8, 4096] either trip the embedder's assertion or allocate
// without bound.
const RetrieverRegistrar llamaindex_registrar(
    "llamaindex",
    [](const db::ShardSet &shards, const RetrieverOptions &opts) {
        LlamaIndexConfig cfg;
        cfg.row_stride = opts.getSize("row_stride", cfg.row_stride);
        cfg.top_k = opts.getSize("top_k", cfg.top_k);
        cfg.dims = opts.getSize("dims", cfg.dims);
        if (cfg.row_stride == 0)
            throw InvalidRetrieverOptions("row_stride must be >= 1");
        if (cfg.dims < 8 || cfg.dims > 4096) {
            throw InvalidRetrieverOptions(
                "dims must be in [8, 4096], got " +
                std::to_string(cfg.dims));
        }
        return std::make_unique<LlamaIndexRetriever>(shards, cfg);
    });

} // namespace

} // namespace cachemind::retrieval
