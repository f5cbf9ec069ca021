/**
 * @file
 * Text primitives for semantic retrieval: tokenizer, feature-hashing
 * sentence embedder, cosine similarity, and a brute-force vector
 * index.
 *
 * The embedder is a deterministic hashed bag-of-words over word
 * unigrams, bigrams, and character trigrams — the same family of
 * sparse-to-dense embeddings used by practical retrieval baselines.
 * It reproduces the paper's key observation about embedding-based RAG
 * on traces: two rows differing in a few hex digits map to nearly
 * identical vectors, so cosine retrieval cannot separate them
 * (§6.2, Figure 9).
 */

#ifndef CACHEMIND_TEXT_EMBEDDING_HH
#define CACHEMIND_TEXT_EMBEDDING_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cachemind::text {

/** Lower-cased word tokens; hex literals are kept as single tokens. */
std::vector<std::string> tokenize(const std::string &text);

/**
 * The word tokens of already lower-cased text, appended to `out` as
 * views into it: the tokens tokenize() returns, without a string per
 * token.
 */
void tokenizeLower(std::string_view lower,
                   std::vector<std::string_view> &out);

/** Cosine similarity of two equal-dimension vectors. */
double cosine(const std::vector<float> &a, const std::vector<float> &b);

/** Deterministic feature-hashing embedder. */
class HashEmbedder
{
  public:
    explicit HashEmbedder(std::size_t dims = 128);

    /** Embed text into an L2-normalised vector. */
    std::vector<float> embed(const std::string &text) const;

    /**
     * Embed text already split by tokenizeLower(): bit for bit what
     * embed() returns for the text the tokens came from.
     */
    std::vector<float>
    embedTokens(const std::vector<std::string_view> &tokens) const;

    std::size_t dims() const { return dims_; }

    /** Convenience: cosine similarity of two texts. */
    double similarity(const std::string &a, const std::string &b) const;

  private:
    /** Add one feature, given the FNV-1a hash of its bytes. */
    void addFeature(std::vector<float> &v, std::uint64_t hash,
                    float weight) const;

    std::size_t dims_;
};

/** One retrieval hit from the vector index. */
struct IndexHit
{
    std::size_t doc = 0;
    double score = 0.0;
};

/**
 * Brute-force dense index (exact top-k). Documents carry a payload
 * string (rendered content) and an opaque tag for evaluation.
 */
class VectorIndex
{
  public:
    explicit VectorIndex(const HashEmbedder &embedder)
        : embedder_(embedder)
    {}

    /** Add a document; returns its id. */
    std::size_t add(std::string payload, std::string tag = "");

    /** Exact top-k by cosine similarity to the query text. */
    std::vector<IndexHit> topK(const std::string &query,
                               std::size_t k) const;

    const std::string &payload(std::size_t doc) const
    {
        return payloads_[doc];
    }
    const std::string &tag(std::size_t doc) const { return tags_[doc]; }
    std::size_t size() const { return payloads_.size(); }

  private:
    const HashEmbedder &embedder_;
    std::vector<std::vector<float>> vectors_;
    std::vector<std::string> payloads_;
    std::vector<std::string> tags_;
};

/**
 * Fuzzy name matcher: ranks candidate names against a query using a
 * blend of embedding similarity, token membership, and edit distance.
 * The query parser extracts workload/policy names from free text this
 * way (§3.2.1), through a NameIndex that returns the same ranking.
 */
struct NameMatch
{
    std::string name;
    double score = 0.0;
};

/**
 * The reference ranking: scores every name from scratch on each call.
 * NameIndex::rank() must return exactly this.
 */
std::vector<NameMatch> rankNames(const std::string &query,
                                 const std::vector<std::string> &names,
                                 const HashEmbedder &embedder);

/**
 * A query prepared once for ranking against any number of NameIndexes
 * built with the same embedder: lower-cased once, tokenized once into
 * views of that copy, and embedded once. Not copyable, because the
 * token views point into the object's own string.
 */
class PreparedQuery
{
  public:
    PreparedQuery(const std::string &text, const HashEmbedder &embedder);
    PreparedQuery(const PreparedQuery &) = delete;
    PreparedQuery &operator=(const PreparedQuery &) = delete;

    /** The lower-cased text. */
    const std::string &lower() const { return lower_; }

  private:
    friend class NameIndex;

    std::string lower_;
    std::vector<std::string_view> tokens_;
    /** Character mask of each token (see NameIndex). */
    std::vector<std::uint64_t> masks_;
    std::vector<float> vec_;
    double sum_sq_ = 0.0;
};

/**
 * A name vocabulary prepared once for repeated ranking. Each entry
 * keeps the lower-cased name, its embedding (the few non-zero
 * coordinates) with the embedding's sum of squares, and a 64-bit mask
 * of the characters it contains.
 *
 * rank() returns exactly what rankNames() returns for the same text,
 * names and embedder: the same names in the same order with the same
 * scores, bit for bit. It only does less work. Cosine divides by the
 * precomputed sums of squares, which are summed in the same order as
 * cosine() sums them. The fuzzy credit needs an edit distance only
 * when it is at most 2, so the distance is computed with a cap of 3
 * on stack rows, and a (token, name) pair is skipped outright when a
 * lower bound (the length gap, or the characters one side has and the
 * other lacks) already reaches the best distance found.
 */
class NameIndex
{
  public:
    NameIndex(std::vector<std::string> names,
              const HashEmbedder &embedder);

    /** The ranking rankNames(text, names(), embedder) would return. */
    std::vector<NameMatch> rank(const PreparedQuery &query) const;

    const std::vector<std::string> &names() const { return names_; }

  private:
    struct Entry
    {
        std::string lower;
        /** The embedding's non-zero coordinates, in slot order. */
        std::vector<std::pair<std::size_t, float>> coords;
        /** Sum of squares of the whole embedding. */
        double sum_sq = 0.0;
        std::uint64_t mask = 0;
    };

    /** Smallest edit distance to any query token, capped at 3. */
    std::size_t fuzzyDistance(const Entry &entry,
                              const PreparedQuery &query) const;

    std::size_t dims_;
    std::vector<std::string> names_;
    std::vector<Entry> entries_;
};

} // namespace cachemind::text

#endif // CACHEMIND_TEXT_EMBEDDING_HH
