/**
 * @file
 * Tests for CacheMindBench: suite composition (Table 1), gold-answer
 * verification against the database, graders, and the evaluation
 * harness's aggregation.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <set>

#include "base/random.hh"
#include "base/str.hh"
#include "benchsuite/generator.hh"
#include "benchsuite/harness.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "text/embedding.hh"

using namespace cachemind;
using namespace cachemind::benchsuite;

namespace {

const db::TraceDatabase &
sharedDb()
{
    static const db::TraceDatabase database = [] {
        // Full default-size build: the generator needs enough PC
        // diversity to assemble all 100 unique questions.
        return db::buildDatabase();
    }();
    return database;
}

const std::vector<Question> &
sharedSuite()
{
    static const std::vector<Question> suite = [] {
        return BenchGenerator(sharedDb()).generate();
    }();
    return suite;
}

std::vector<std::string>
suiteTexts()
{
    std::vector<std::string> out;
    for (const auto &q : sharedSuite())
        out.push_back(q.text);
    return out;
}

/** A policy name as the serving benchmark writes it ("LRU", "Belady"). */
std::string
policyDisplay(const std::string &policy)
{
    std::string out = policy;
    for (auto &c : out)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return out == "BELADY" ? "Belady" : out;
}

/**
 * Every per-PC question the serving benchmark (e2ebench) asks, from
 * the same templates: seven families for each (shard, PC) pair of the
 * default database, and a policy comparison once per (workload, PC).
 */
const std::vector<std::string> &
perPcQuestions()
{
    static const std::vector<std::string> out = [] {
        std::vector<std::string> qs;
        std::set<std::string> seen_wl_pc;
        for (const auto &key : sharedDb().keys()) {
            const auto *entry = sharedDb().find(key);
            const std::string &wl = entry->workload;
            const std::string pol = policyDisplay(entry->policy);
            for (const auto pc_value : entry->table.uniquePcs()) {
                const std::string pc = str::hex(pc_value);
                qs.push_back("What is the miss rate for PC " + pc +
                             " in the " + wl + " workload with " + pol +
                             "?");
                qs.push_back("How many times did PC " + pc +
                             " appear in the " + wl + " workload under " +
                             pol + "?");
                qs.push_back(
                    "What is the average evicted reuse distance of PC " +
                    pc + " for the " + wl + " workload with " + pol + "?");
                qs.push_back("What is the standard deviation of the reuse "
                             "distance of PC " +
                             pc + " in the " + wl + " workload under " +
                             pol + "?");
                qs.push_back(
                    "What is the maximum reuse distance observed for PC " +
                    pc + " in the " + wl + " workload under " + pol + "?");
                qs.push_back("What is the average recency of PC " + pc +
                             " in the " + wl + " workload with " + pol +
                             "?");
                qs.push_back("Why does PC " + pc +
                             " have a high miss rate in the " + wl +
                             " workload under " + pol +
                             "? Examine the assembly context and analyze.");
                if (seen_wl_pc.insert(wl + pc).second) {
                    qs.push_back(
                        "Which policy has the lowest miss rate for PC " +
                        pc + " in the " + wl + " workload?");
                }
            }
        }
        return qs;
    }();
    return out;
}

/**
 * A seeded sample of the serving benchmark's per-access hit/miss
 * questions: a shard and a row drawn at random, asked in its template.
 */
const std::vector<std::string> &
perAccessQuestions()
{
    static const std::vector<std::string> out = [] {
        const auto keys = sharedDb().keys();
        Rng rng(0xacce55ULL);
        std::vector<std::string> qs;
        for (int i = 0; i < 2000; ++i) {
            const auto *entry =
                sharedDb().find(keys[rng.nextBelow(keys.size())]);
            const auto &table = entry->table;
            const std::size_t row = rng.nextBelow(table.size());
            qs.push_back("Does the memory access with PC " +
                         str::hex(table.pcAt(row)) + " and address " +
                         str::hex(table.addressAt(row)) +
                         " result in a cache hit or cache miss for the " +
                         entry->workload + " workload and " +
                         policyDisplay(entry->policy) +
                         " replacement policy?");
        }
        return qs;
    }();
    return out;
}

/** Same names, same order, and scores equal as doubles. */
void
expectSameRanking(const std::vector<text::NameMatch> &got,
                  const std::vector<text::NameMatch> &want,
                  const std::string &text)
{
    ASSERT_EQ(got.size(), want.size()) << text;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].name, want[i].name) << text;
        EXPECT_EQ(got[i].score, want[i].score) << text;
    }
}

/** Digest of every question's slot key and intent, in order. */
std::uint64_t
slotDigest(const std::vector<std::string> &questions)
{
    const query::NlQueryParser parser(sharedDb().workloads(),
                                      sharedDb().policies());
    std::uint64_t h = fnv1a("slot-keys");
    for (const auto &text : questions) {
        const auto parsed = parser.parse(text);
        h = hashCombine(h, fnv1a(parsed.slotKey()));
        h = hashCombine(h, static_cast<std::uint64_t>(parsed.intent));
    }
    return h;
}

} // namespace

TEST(CompositionTest, Table1Counts)
{
    std::map<Category, std::size_t> counts;
    for (const auto &q : sharedSuite())
        ++counts[q.category];
    EXPECT_EQ(counts[Category::HitMiss], 30u);
    EXPECT_EQ(counts[Category::MissRate], 10u);
    EXPECT_EQ(counts[Category::PolicyComparison], 15u);
    EXPECT_EQ(counts[Category::Count], 5u);
    EXPECT_EQ(counts[Category::Arithmetic], 10u);
    EXPECT_EQ(counts[Category::TrickQuestion], 5u);
    EXPECT_EQ(counts[Category::MicroarchConcepts], 5u);
    EXPECT_EQ(counts[Category::CodeGeneration], 5u);
    EXPECT_EQ(counts[Category::ReplacementPolicyAnalysis], 5u);
    EXPECT_EQ(counts[Category::WorkloadAnalysis], 5u);
    EXPECT_EQ(counts[Category::SemanticAnalysis], 5u);
    EXPECT_EQ(sharedSuite().size(), 100u);
}

TEST(CompositionTest, QuestionsAreUniqueAndIdsSequential)
{
    std::set<std::string> texts;
    for (std::size_t i = 0; i < sharedSuite().size(); ++i) {
        EXPECT_EQ(sharedSuite()[i].id, i);
        EXPECT_TRUE(texts.insert(sharedSuite()[i].text).second)
            << "duplicate question: " << sharedSuite()[i].text;
    }
}

TEST(CompositionTest, GenerationIsDeterministic)
{
    const auto again = BenchGenerator(sharedDb()).generate();
    ASSERT_EQ(again.size(), sharedSuite().size());
    for (std::size_t i = 0; i < again.size(); ++i)
        EXPECT_EQ(again[i].text, sharedSuite()[i].text);
}

TEST(GoldVerificationTest, HitMissGoldsMatchTheTable)
{
    for (const auto &q : sharedSuite()) {
        if (q.category != Category::HitMiss)
            continue;
        const auto *entry = sharedDb().find(q.trace_key);
        ASSERT_NE(entry, nullptr);
        // Re-derive the gold from the raw table.
        query::NlQueryParser parser(sharedDb().workloads(),
                                    sharedDb().policies());
        const auto parsed = parser.parse(q.text);
        ASSERT_TRUE(parsed.pc && parsed.address);
        const auto rows =
            entry->table.filter(&*parsed.pc, &*parsed.address, 1);
        ASSERT_FALSE(rows.empty()) << q.text;
        EXPECT_EQ(!entry->table.isMissAt(rows[0]), *q.gold.is_hit);
    }
}

TEST(GoldVerificationTest, TrickPremisesAreActuallyInvalid)
{
    query::NlQueryParser parser(sharedDb().workloads(),
                                sharedDb().policies());
    for (const auto &q : sharedSuite()) {
        if (q.category != Category::TrickQuestion)
            continue;
        const auto parsed = parser.parse(q.text);
        const auto *entry = sharedDb().find(q.trace_key);
        ASSERT_NE(entry, nullptr);
        ASSERT_TRUE(parsed.pc && parsed.address);
        EXPECT_TRUE(entry->table
                        .filter(&*parsed.pc, &*parsed.address, 1)
                        .empty())
            << "trick premise is actually satisfiable: " << q.text;
    }
}

TEST(GoldVerificationTest, CountGoldsMatchStats)
{
    query::NlQueryParser parser(sharedDb().workloads(),
                                sharedDb().policies());
    for (const auto &q : sharedSuite()) {
        if (q.category != Category::Count)
            continue;
        const auto parsed = parser.parse(q.text);
        const auto *expert = sharedDb().statsFor(q.trace_key);
        ASSERT_TRUE(parsed.pc);
        const auto stats = expert->pcStats(*parsed.pc);
        ASSERT_TRUE(stats.has_value());
        EXPECT_DOUBLE_EQ(*q.gold.number,
                         static_cast<double>(stats->accesses));
    }
}

TEST(GraderTest, ExactHitMiss)
{
    Question q;
    q.category = Category::HitMiss;
    q.gold.is_hit = true;

    llm::Answer right;
    right.says_hit = true;
    EXPECT_TRUE(gradeExact(q, right).correct);

    llm::Answer wrong;
    wrong.says_hit = false;
    EXPECT_FALSE(gradeExact(q, wrong).correct);

    llm::Answer none;
    EXPECT_FALSE(gradeExact(q, none).correct);

    llm::Answer rejected;
    rejected.rejected_premise = true;
    EXPECT_FALSE(gradeExact(q, rejected).correct);
}

TEST(GraderTest, NumericTolerances)
{
    Question q;
    q.category = Category::MissRate;
    q.gold.number = 0.5;
    q.gold.abs_tolerance = 0.005;

    llm::Answer close;
    close.number = 0.503;
    EXPECT_TRUE(gradeExact(q, close).correct);

    llm::Answer far;
    far.number = 0.52;
    EXPECT_FALSE(gradeExact(q, far).correct);

    Question rel;
    rel.category = Category::Arithmetic;
    rel.gold.number = 10000.0;
    rel.gold.rel_tolerance = 0.02;
    llm::Answer near;
    near.number = 10150.0;
    EXPECT_TRUE(gradeExact(rel, near).correct);
    llm::Answer off;
    off.number = 10500.0;
    EXPECT_FALSE(gradeExact(rel, off).correct);
}

TEST(GraderTest, TrickRequiresRejection)
{
    Question q;
    q.category = Category::TrickQuestion;
    q.gold.is_trick = true;

    llm::Answer rejected;
    rejected.rejected_premise = true;
    EXPECT_TRUE(gradeExact(q, rejected).correct);

    llm::Answer guessed;
    guessed.says_hit = false;
    EXPECT_FALSE(gradeExact(q, guessed).correct);
}

TEST(GraderTest, PolicyChoiceIsCaseInsensitive)
{
    Question q;
    q.category = Category::PolicyComparison;
    q.gold.policy = "belady";
    llm::Answer a;
    a.chosen_policy = "Belady";
    EXPECT_TRUE(gradeExact(q, a).correct);
}

TEST(GraderTest, RubricComponents)
{
    Question q;
    q.category = Category::ReplacementPolicyAnalysis;
    q.gold.key_terms = {"future", "recency"};
    q.gold.evidence_terms = {"0x4037aa"};

    llm::Answer full;
    full.text =
        "PC 0x4037aa has a 99% miss rate. Belady sees the future "
        "reuse order, while recency-based eviction cannot. A reuse "
        "predictor closes the gap.";
    full.evidence = {"0x4037aa"};
    const auto g = gradeRubric(q, full);
    EXPECT_DOUBLE_EQ(g.max, 5.0);
    EXPECT_GE(g.score, 4.0);

    llm::Answer vague;
    vague.text = "It is faster because of cache effects.";
    EXPECT_LE(gradeRubric(q, vague).score, 1.0);

    llm::Answer disengaged;
    disengaged.engaged = false;
    EXPECT_DOUBLE_EQ(gradeRubric(q, disengaged).score, 0.0);
}

TEST(GraderTest, CopiedExampleVoidsEvidence)
{
    Question q;
    q.category = Category::SemanticAnalysis;
    q.gold.key_terms = {"chase"};
    q.gold.evidence_terms = {"0x400512"};
    llm::Answer copied;
    copied.text = "The access in chase() at 0x400512 repeats. It "
                  "reuses the same line every time through the loop.";
    copied.copied_example = true;
    const auto g = gradeRubric(q, copied);
    // Correctness + clarity may score, but the evidence point cannot.
    EXPECT_LE(g.score, 4.0);
}

namespace {

/** A Builder engine over the full database. */
core::CacheMind
harnessEngine(const char *retriever, llm::BackendKind backend)
{
    return core::CacheMind::Builder(sharedDb())
        .withRetriever(retriever)
        .withBackend(llm::backendKey(backend))
        .build()
        .expect("harness engine");
}

} // namespace

TEST(HarnessTest, AggregationsAreConsistent)
{
    const EvalHarness harness(sharedSuite());
    auto sieve = harnessEngine("sieve", llm::BackendKind::Gpt4o);
    const auto res = harness.evaluate(sieve);

    ASSERT_EQ(res.records.size(), 100u);
    double cat_earned = 0.0, cat_max = 0.0;
    for (const auto &[cat, score] : res.by_category) {
        cat_earned += score.earned;
        cat_max += score.max;
    }
    double rec_earned = 0.0, rec_max = 0.0;
    for (const auto &rec : res.records) {
        rec_earned += rec.grade.score;
        rec_max += rec.grade.max;
    }
    EXPECT_DOUBLE_EQ(cat_earned, rec_earned);
    EXPECT_DOUBLE_EQ(cat_max, rec_max);
    EXPECT_GE(res.tgPct(), 0.0);
    EXPECT_LE(res.tgPct(), 100.0);
    EXPECT_GE(res.weightedTotalPct(), 0.0);

    const auto hist = res.araScoreHistogram();
    std::size_t hist_total = 0;
    for (const auto n : hist)
        hist_total += n;
    EXPECT_EQ(hist_total, 25u);
}

TEST(HarnessTest, CountFailsUnderSieveSucceedsUnderRanger)
{
    const EvalHarness harness(sharedSuite());

    auto sieve = harnessEngine("sieve", llm::BackendKind::Gpt4o);
    const auto res_sieve = harness.evaluate(sieve);
    EXPECT_DOUBLE_EQ(
        res_sieve.by_category.at(Category::Count).pct(), 0.0);

    auto ranger = harnessEngine("ranger", llm::BackendKind::Gpt4o);
    const auto res_ranger = harness.evaluate(ranger);
    EXPECT_DOUBLE_EQ(
        res_ranger.by_category.at(Category::Count).pct(), 100.0);
}

TEST(HarnessTest, EvaluationIsDeterministic)
{
    const EvalHarness harness(sharedSuite());
    auto s1 = harnessEngine("sieve", llm::BackendKind::Gpt4oMini);
    auto s2 = harnessEngine("sieve", llm::BackendKind::Gpt4oMini);
    const auto a = harness.evaluate(s1);
    const auto b = harness.evaluate(s2);
    EXPECT_DOUBLE_EQ(a.weightedTotalPct(), b.weightedTotalPct());
    for (std::size_t i = 0; i < a.records.size(); ++i)
        EXPECT_EQ(a.records[i].grade.score, b.records[i].grade.score);
}

TEST(CategoryTest, TierMembership)
{
    EXPECT_TRUE(isTraceGrounded(Category::HitMiss));
    EXPECT_TRUE(isTraceGrounded(Category::TrickQuestion));
    EXPECT_FALSE(isTraceGrounded(Category::MicroarchConcepts));
    EXPECT_FALSE(isTraceGrounded(Category::SemanticAnalysis));
    EXPECT_EQ(allCategories().size(), 11u);
}

// The parser's output is part of every cache key and every answer.
// These digests were recorded before the parser ranked names through
// name indexes; any change to what it extracts from these questions
// fails here.
TEST(ParserIdentityTest, SlotKeysMatchTheRecordedDigests)
{
    EXPECT_EQ(slotDigest(suiteTexts()), 0xb5e4aaa6956933feULL);
    ASSERT_EQ(perPcQuestions().size(), 609u);
    EXPECT_EQ(slotDigest(perPcQuestions()), 0xacc729fe05a7c121ULL);
    EXPECT_EQ(slotDigest(perAccessQuestions()), 0x80ed260e0638982fULL);
}

TEST(ParserIdentityTest, NameIndexRanksExactlyLikeRankNames)
{
    const text::HashEmbedder embedder(128);
    const auto workloads = sharedDb().workloads();
    const auto policies = sharedDb().policies();
    const text::NameIndex workload_index(workloads, embedder);
    const text::NameIndex policy_index(policies, embedder);
    auto questions = suiteTexts();
    questions.insert(questions.end(), perPcQuestions().begin(),
                     perPcQuestions().end());
    questions.insert(questions.end(), perAccessQuestions().begin(),
                     perAccessQuestions().end());
    for (const auto &text : questions) {
        const text::PreparedQuery prepared(text, embedder);
        expectSameRanking(workload_index.rank(prepared),
                          text::rankNames(text, workloads, embedder), text);
        expectSameRanking(policy_index.rank(prepared),
                          text::rankNames(text, policies, embedder), text);
    }
}
