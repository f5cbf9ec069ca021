#include "text/embedding.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/str.hh"

namespace cachemind::text {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/**
 * Continue an FNV-1a hash over more bytes: hashing a feature piece by
 * piece gives fnv1a() of the concatenated string.
 */
std::uint64_t
fnvMix(std::uint64_t h, std::string_view bytes)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Bit of a character in a NameIndex mask: one bit per lower-case
 * letter and digit, the rest folded into the remaining 28 bits. A
 * folded collision only weakens the lower bound the mask gives.
 */
std::uint64_t
charBit(unsigned char c)
{
    if (c >= 'a' && c <= 'z')
        return 1ULL << (c - 'a');
    if (c >= '0' && c <= '9')
        return 1ULL << (26 + c - '0');
    return 1ULL << (36 + c % 28);
}

std::uint64_t
charMask(std::string_view s)
{
    std::uint64_t mask = 0;
    for (const unsigned char c : s)
        mask |= charBit(c);
    return mask;
}

/** Names up to this long get the stack-row edit distance. */
constexpr std::size_t kMaxStackName = 63;

/**
 * Levenshtein distance of `a` and `b`, or `cap` when the distance is
 * at least `cap`. Rows hold b.size() + 1 <= 64 entries on the stack,
 * and a row whose minimum reaches the cap ends the search: no later
 * row can come back below it.
 */
std::size_t
boundedEditDistance(std::string_view a, std::string_view b,
                    std::size_t cap)
{
    std::uint8_t rows[2][kMaxStackName + 1];
    std::uint8_t *prev = rows[0];
    std::uint8_t *cur = rows[1];
    const auto capped = [cap](std::size_t v) {
        return static_cast<std::uint8_t>(std::min(v, cap));
    };
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = capped(j);
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = capped(i);
        std::size_t row_min = cur[0];
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            const std::size_t v =
                std::min({std::size_t{prev[j]} + 1,
                          std::size_t{cur[j - 1]} + 1, sub});
            cur[j] = capped(v);
            row_min = std::min<std::size_t>(row_min, cur[j]);
        }
        if (row_min >= cap)
            return cap;
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

double
sumOfSquares(const std::vector<float> &v)
{
    double sum = 0.0;
    for (const float x : v)
        sum += static_cast<double>(x) * x;
    return sum;
}

/** Ranking order: higher score first, ties by name. */
bool
rankedBefore(const NameMatch &a, const NameMatch &b)
{
    if (a.score != b.score)
        return a.score > b.score;
    return a.name < b.name;
}

} // namespace

void
tokenizeLower(std::string_view lower, std::vector<std::string_view> &out)
{
    std::size_t i = 0;
    while (i < lower.size()) {
        if (!isWordChar(lower[i])) {
            ++i;
            continue;
        }
        std::size_t j = i + 1;
        while (j < lower.size() && isWordChar(lower[j]))
            ++j;
        out.push_back(lower.substr(i, j - i));
        i = j;
    }
}

std::vector<std::string>
tokenize(const std::string &text)
{
    const std::string lower = str::toLower(text);
    std::vector<std::string_view> views;
    tokenizeLower(lower, views);
    return std::vector<std::string>(views.begin(), views.end());
}

double
cosine(const std::vector<float> &a, const std::vector<float> &b)
{
    CM_ASSERT(a.size() == b.size(), "cosine dims mismatch");
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        dot += static_cast<double>(a[i]) * b[i];
        na += static_cast<double>(a[i]) * a[i];
        nb += static_cast<double>(b[i]) * b[i];
    }
    if (na <= 0.0 || nb <= 0.0)
        return 0.0;
    return dot / std::sqrt(na * nb);
}

HashEmbedder::HashEmbedder(std::size_t dims) : dims_(dims)
{
    CM_ASSERT(dims_ >= 8, "embedder needs at least 8 dims");
}

void
HashEmbedder::addFeature(std::vector<float> &v, std::uint64_t hash,
                         float weight) const
{
    const std::size_t slot = static_cast<std::size_t>(hash % dims_);
    // Signed hashing reduces collision bias.
    const float sign = (splitMix64(hash) & 1) ? 1.0f : -1.0f;
    v[slot] += sign * weight;
}

std::vector<float>
HashEmbedder::embed(const std::string &text) const
{
    const std::string lower = str::toLower(text);
    std::vector<std::string_view> tokens;
    tokenizeLower(lower, tokens);
    return embedTokens(tokens);
}

std::vector<float>
HashEmbedder::embedTokens(const std::vector<std::string_view> &tokens)
    const
{
    // Features are hashed from the token bytes in place: the token,
    // the token + "_" + the next token, and "#" + each trigram. Each
    // hashes exactly the bytes of the string it names, so no feature
    // string is ever built.
    const std::uint64_t trigram_prefix = fnvMix(kFnvOffset, "#");
    std::vector<float> v(dims_, 0.0f);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string_view t = tokens[i];
        const std::uint64_t h = fnvMix(kFnvOffset, t);
        addFeature(v, h, 1.0f);
        if (i + 1 < tokens.size())
            addFeature(v, fnvMix(fnvMix(h, "_"), tokens[i + 1]), 0.5f);
        // Character trigrams give robustness to morphology.
        if (t.size() > 3) {
            for (std::size_t k = 0; k + 3 <= t.size(); ++k)
                addFeature(v, fnvMix(trigram_prefix, t.substr(k, 3)),
                           0.25f);
        }
    }
    const double norm = sumOfSquares(v);
    if (norm > 0.0) {
        const float inv = static_cast<float>(1.0 / std::sqrt(norm));
        for (float &x : v)
            x *= inv;
    }
    return v;
}

double
HashEmbedder::similarity(const std::string &a, const std::string &b)
    const
{
    return cosine(embed(a), embed(b));
}

std::size_t
VectorIndex::add(std::string payload, std::string tag)
{
    vectors_.push_back(embedder_.embed(payload));
    payloads_.push_back(std::move(payload));
    tags_.push_back(std::move(tag));
    return payloads_.size() - 1;
}

std::vector<IndexHit>
VectorIndex::topK(const std::string &query, std::size_t k) const
{
    const auto q = embedder_.embed(query);
    std::vector<IndexHit> hits;
    hits.reserve(vectors_.size());
    for (std::size_t i = 0; i < vectors_.size(); ++i)
        hits.push_back(IndexHit{i, cosine(q, vectors_[i])});
    const std::size_t keep = std::min(k, hits.size());
    std::partial_sort(hits.begin(), hits.begin() + keep, hits.end(),
                      [](const IndexHit &a, const IndexHit &b) {
                          if (a.score != b.score)
                              return a.score > b.score;
                          return a.doc < b.doc;
                      });
    hits.resize(keep);
    return hits;
}

std::vector<NameMatch>
rankNames(const std::string &query,
          const std::vector<std::string> &names,
          const HashEmbedder &embedder)
{
    const auto tokens = tokenize(query);
    const auto qvec = embedder.embed(query);
    std::vector<NameMatch> out;
    for (const auto &name : names) {
        double score = cosine(qvec, embedder.embed(name));
        // Exact token membership dominates.
        for (const auto &tok : tokens) {
            if (tok == str::toLower(name)) {
                score += 1.0;
                break;
            }
        }
        // Light fuzzy credit for near-miss spellings ("beladys").
        std::size_t best_ed = name.size();
        for (const auto &tok : tokens)
            best_ed = std::min(best_ed,
                               str::editDistance(tok,
                                                 str::toLower(name)));
        if (best_ed <= 2 && name.size() > 3)
            score += 0.5 * (3.0 - static_cast<double>(best_ed)) / 3.0;
        out.push_back(NameMatch{name, score});
    }
    std::sort(out.begin(), out.end(), rankedBefore);
    return out;
}

PreparedQuery::PreparedQuery(const std::string &text,
                             const HashEmbedder &embedder)
    : lower_(str::toLower(text))
{
    tokenizeLower(lower_, tokens_);
    masks_.reserve(tokens_.size());
    for (const auto tok : tokens_)
        masks_.push_back(charMask(tok));
    vec_ = embedder.embedTokens(tokens_);
    sum_sq_ = sumOfSquares(vec_);
}

NameIndex::NameIndex(std::vector<std::string> names,
                     const HashEmbedder &embedder)
    : dims_(embedder.dims()), names_(std::move(names))
{
    entries_.reserve(names_.size());
    for (const auto &name : names_) {
        Entry entry;
        entry.lower = str::toLower(name);
        const auto vec = embedder.embed(name);
        for (std::size_t i = 0; i < vec.size(); ++i) {
            if (vec[i] != 0.0f)
                entry.coords.emplace_back(i, vec[i]);
        }
        entry.sum_sq = sumOfSquares(vec);
        entry.mask = charMask(entry.lower);
        entries_.push_back(std::move(entry));
    }
}

std::size_t
NameIndex::fuzzyDistance(const Entry &entry,
                         const PreparedQuery &query) const
{
    const std::string_view name = entry.lower;
    std::size_t best = 3;
    for (std::size_t t = 0; t < query.tokens_.size() && best > 0; ++t) {
        const std::string_view tok = query.tokens_[t];
        // Every character one side has and the other lacks costs at
        // least one edit, as does every character of length gap.
        const std::uint64_t tok_mask = query.masks_[t];
        const std::size_t bound = std::max<std::size_t>(
            {tok.size() > name.size() ? tok.size() - name.size()
                                      : name.size() - tok.size(),
             static_cast<std::size_t>(
                 __builtin_popcountll(tok_mask & ~entry.mask)),
             static_cast<std::size_t>(
                 __builtin_popcountll(entry.mask & ~tok_mask))});
        if (bound >= best)
            continue;
        const std::size_t d =
            name.size() <= kMaxStackName
                ? boundedEditDistance(tok, name, best)
                : std::min(str::editDistance(std::string(tok),
                                             entry.lower),
                           best);
        best = std::min(best, d);
    }
    return best;
}

std::vector<NameMatch>
NameIndex::rank(const PreparedQuery &query) const
{
    CM_ASSERT(query.vec_.size() == dims_, "cosine dims mismatch");
    std::vector<NameMatch> out;
    out.reserve(entries_.size());
    for (std::size_t n = 0; n < entries_.size(); ++n) {
        const Entry &entry = entries_[n];
        // cosine(), with both sums of squares already summed. The dot
        // product skips the name's zero coordinates: from +0.0, adding
        // a zero product never changes a sum (it cannot turn into
        // -0.0), so the remaining terms, added in the same order, give
        // the same double.
        double dot = 0.0;
        for (const auto &[slot, x] : entry.coords)
            dot += static_cast<double>(query.vec_[slot]) * x;
        double score =
            query.sum_sq_ <= 0.0 || entry.sum_sq <= 0.0
                ? 0.0
                : dot / std::sqrt(query.sum_sq_ * entry.sum_sq);
        for (const auto tok : query.tokens_) {
            if (tok == entry.lower) {
                score += 1.0;
                break;
            }
        }
        // The fuzzy credit only ever applies to names longer than 3.
        if (names_[n].size() > 3) {
            const std::size_t best_ed = fuzzyDistance(entry, query);
            if (best_ed <= 2)
                score +=
                    0.5 * (3.0 - static_cast<double>(best_ed)) / 3.0;
        }
        out.push_back(NameMatch{names_[n], score});
    }
    std::sort(out.begin(), out.end(), rankedBefore);
    return out;
}

} // namespace cachemind::text
