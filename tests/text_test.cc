/**
 * @file
 * Tests for the text layer: tokenizer, hashed embedder, vector index,
 * and the fuzzy name matcher that backs Sieve's stage-1 filtering.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <sstream>

#include "base/random.hh"
#include "base/str.hh"
#include "benchsuite/generator.hh"
#include "db/builder.hh"
#include "text/embedding.hh"

using namespace cachemind;
using namespace cachemind::text;

namespace {

// The original string-building tokenizer and embedder, kept verbatim
// as the reference: the embedder now hashes feature bytes in place,
// and its vectors must not change by a single bit (LlamaIndex scores,
// conversation recall and the parser's name scores all depend on
// them).
std::vector<std::string>
referenceTokenize(const std::string &text)
{
    std::vector<std::string> tokens;
    std::string cur;
    const std::string lower = str::toLower(text);
    for (std::size_t i = 0; i < lower.size(); ++i) {
        const char c = lower[i];
        const bool word_char =
            std::isalnum(static_cast<unsigned char>(c)) || c == '_';
        if (word_char) {
            cur.push_back(c);
        } else {
            if (!cur.empty())
                tokens.push_back(cur);
            cur.clear();
        }
    }
    if (!cur.empty())
        tokens.push_back(cur);
    return tokens;
}

void
referenceAddFeature(std::vector<float> &v, std::size_t dims,
                    const std::string &feat, float weight)
{
    const std::uint64_t h = fnv1a(feat);
    const std::size_t slot = static_cast<std::size_t>(h % dims);
    // Signed hashing reduces collision bias.
    const float sign = (splitMix64(h) & 1) ? 1.0f : -1.0f;
    v[slot] += sign * weight;
}

std::vector<float>
referenceEmbed(const std::string &text, std::size_t dims)
{
    std::vector<float> v(dims, 0.0f);
    const auto tokens = referenceTokenize(text);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        referenceAddFeature(v, dims, tokens[i], 1.0f);
        if (i + 1 < tokens.size())
            referenceAddFeature(v, dims,
                                tokens[i] + "_" + tokens[i + 1], 0.5f);
        // Character trigrams give robustness to morphology.
        const std::string &t = tokens[i];
        if (t.size() > 3) {
            for (std::size_t k = 0; k + 3 <= t.size(); ++k)
                referenceAddFeature(v, dims, "#" + t.substr(k, 3), 0.25f);
        }
    }
    double norm = 0.0;
    for (const float x : v)
        norm += static_cast<double>(x) * x;
    if (norm > 0.0) {
        const float inv = static_cast<float>(1.0 / std::sqrt(norm));
        for (float &x : v)
            x *= inv;
    }
    return v;
}

/**
 * The texts the embedder sees in practice, and the odd ones: the 100
 * default-suite questions, LlamaIndex-style summary and row documents
 * rendered from the default database, and edge inputs.
 */
const std::vector<std::string> &
embedCorpus()
{
    static const std::vector<std::string> corpus = [] {
        const auto database = db::buildDatabase();
        std::vector<std::string> out;
        for (const auto &q :
             benchsuite::BenchGenerator(database).generate())
            out.push_back(q.text);
        for (const auto &key : database.keys()) {
            const auto *entry = database.find(key);
            out.push_back("TRACE_ID: " + key + "\nDESCRIPTION: " +
                          entry->description + "\n" + entry->metadata);
            const auto &table = entry->table;
            const std::size_t stride =
                std::max<std::size_t>(table.size() / 30, 1);
            for (std::size_t i = 0; i < table.size(); i += stride) {
                std::ostringstream os;
                os << "TRACE_ID: " << key << "\nprogram_counter="
                   << str::hex(table.pcAt(i))
                   << ", memory_address=" << str::hex(table.addressAt(i))
                   << ", evict="
                   << (table.isMissAt(i) ? "Cache Miss" : "Cache Hit")
                   << ", cache_set_id=" << table.setAt(i)
                   << ", recency=" << table.recencyTextAt(i);
                out.push_back(os.str());
            }
        }
        out.push_back("");
        out.push_back("?!., ;:-- ()[]{}");
        out.push_back("WHAT IS THE MISS RATE FOR PC 0X4037AA UNDER LRU?");
        out.push_back("a b c ab cd ef abc def ghi a_b");
        out.push_back(std::string(300, 'q') + " tail");
        out.push_back("x " + std::string(300, 'z'));
        out.push_back(
            "caf\xc3\xa9 na\xefve \x80\x81\xff r\xe9sum\xe9 lru");
        out.push_back(std::string("nul\0byte inside", 16));
        out.push_back("__ _a_ 0x 0x0 00000000000000000000000000000001");
        return out;
    }();
    return corpus;
}

} // namespace

TEST(TokenizerTest, SplitsWordsAndKeepsHexTokens)
{
    const auto toks =
        tokenize("Does PC 0x401dc9 hit under LRU on lbm?");
    ASSERT_GE(toks.size(), 6u);
    EXPECT_EQ(toks[0], "does");
    EXPECT_EQ(toks[2], "0x401dc9");
    EXPECT_EQ(toks.back(), "lbm");
}

TEST(TokenizerTest, UnderscoresStayInsideTokens)
{
    const auto toks = tokenize("loaded_data[lbm_evictions_lru]");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0], "loaded_data");
    EXPECT_EQ(toks[1], "lbm_evictions_lru");
}

TEST(EmbedderTest, VectorsAreNormalised)
{
    const HashEmbedder embedder(64);
    const auto v = embedder.embed("cache replacement policy");
    double norm = 0.0;
    for (const float x : v)
        norm += static_cast<double>(x) * x;
    EXPECT_NEAR(norm, 1.0, 1e-6);
    EXPECT_EQ(v.size(), 64u);
}

TEST(EmbedderTest, IdenticalTextsHaveSimilarityOne)
{
    const HashEmbedder embedder(128);
    EXPECT_NEAR(embedder.similarity("miss rate for PC",
                                    "miss rate for PC"),
                1.0, 1e-9);
}

TEST(EmbedderTest, RelatedTextsScoreHigherThanUnrelated)
{
    const HashEmbedder embedder(128);
    const double related = embedder.similarity(
        "cache miss rate under LRU", "the LRU cache miss rate");
    const double unrelated = embedder.similarity(
        "cache miss rate under LRU", "quarterly revenue projections");
    EXPECT_GT(related, unrelated);
}

TEST(EmbedderTest, NumericRowsAreNearlyIndistinguishable)
{
    // The paper's core observation about embedding-based RAG on
    // traces: rows differing only in hex digits embed almost
    // identically.
    const HashEmbedder embedder(128);
    const std::string row_a =
        "program_counter=0x409538, memory_address=0x2bfd401b693, "
        "evict=Cache Miss";
    const std::string row_b =
        "program_counter=0x4090c3, memory_address=0x2bfd401caf2, "
        "evict=Cache Miss";
    EXPECT_GT(embedder.similarity(row_a, row_b), 0.5);
}

TEST(EmbedderTest, EmptyTextEmbedsToZeroVector)
{
    const HashEmbedder embedder(64);
    const auto v = embedder.embed("");
    for (const float x : v)
        EXPECT_EQ(x, 0.0f);
    EXPECT_DOUBLE_EQ(cosine(v, v), 0.0);
}

TEST(VectorIndexTest, TopKReturnsBestMatchFirst)
{
    const HashEmbedder embedder(128);
    VectorIndex index(embedder);
    index.add("the lbm workload streams two large grids", "lbm");
    index.add("the mcf workload chases pointers through arcs", "mcf");
    index.add("totally unrelated cooking recipe for soup", "soup");

    const auto hits = index.topK("pointer chasing in mcf", 2);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(index.tag(hits[0].doc), "mcf");
    EXPECT_GE(hits[0].score, hits[1].score);
}

TEST(VectorIndexTest, KLargerThanIndexIsClamped)
{
    const HashEmbedder embedder(64);
    VectorIndex index(embedder);
    index.add("only one document");
    const auto hits = index.topK("one", 10);
    EXPECT_EQ(hits.size(), 1u);
}

TEST(NameMatcherTest, ExactTokenWins)
{
    const HashEmbedder embedder(128);
    const auto ranked = rankNames(
        "what is the miss rate on lbm under parrot",
        {"astar", "lbm", "mcf"}, embedder);
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].name, "lbm");
    EXPECT_GT(ranked[0].score, ranked[1].score);
}

TEST(NameMatcherTest, FuzzyMatchCatchesNearMisses)
{
    const HashEmbedder embedder(128);
    const auto ranked = rankNames("compare beladys decisions",
                                  {"belady", "lru", "parrot"},
                                  embedder);
    EXPECT_EQ(ranked[0].name, "belady");
}

TEST(NameMatcherTest, NoMentionScoresLow)
{
    const HashEmbedder embedder(128);
    const auto ranked = rankNames("how big is the cache",
                                  {"astar", "lbm", "mcf"}, embedder);
    for (const auto &m : ranked)
        EXPECT_LT(m.score, 0.9);
}

TEST(CosineTest, OrthogonalAndParallel)
{
    const std::vector<float> a = {1, 0, 0, 0};
    const std::vector<float> b = {0, 1, 0, 0};
    const std::vector<float> c = {2, 0, 0, 0};
    EXPECT_DOUBLE_EQ(cosine(a, b), 0.0);
    EXPECT_NEAR(cosine(a, c), 1.0, 1e-9);
    EXPECT_NEAR(cosine(b, b), 1.0, 1e-9);
}

TEST(EmbedderTest, EmbedIsBitIdenticalToTheStringBuildingReference)
{
    const auto corpus = embedCorpus();
    ASSERT_GT(corpus.size(), 400u);
    for (const std::size_t dims : {64u, 128u}) {
        const HashEmbedder embedder(dims);
        for (const auto &text : corpus) {
            const auto got = embedder.embed(text);
            const auto want = referenceEmbed(text, dims);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                // Compare the bits, so even a zero's sign counts.
                std::uint32_t got_bits = 0, want_bits = 0;
                std::memcpy(&got_bits, &got[i], sizeof got_bits);
                std::memcpy(&want_bits, &want[i], sizeof want_bits);
                ASSERT_EQ(got_bits, want_bits)
                    << "dims " << dims << " slot " << i << " of: " << text;
            }
        }
    }
}

TEST(TokenizerTest, ViewsMatchTheReferenceTokenizer)
{
    for (const auto &text : embedCorpus()) {
        EXPECT_EQ(tokenize(text), referenceTokenize(text)) << text;
        const std::string lower = str::toLower(text);
        std::vector<std::string_view> views;
        tokenizeLower(lower, views);
        EXPECT_EQ(std::vector<std::string>(views.begin(), views.end()),
                  referenceTokenize(text));
    }
}
