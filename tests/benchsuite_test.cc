/**
 * @file
 * Tests for CacheMindBench: suite composition (Table 1), gold-answer
 * verification against the database, graders, and the evaluation
 * harness's aggregation; plus the pins that need the full default
 * database the suite is generated from (its digest, the statistics
 * expert on every table, parser identity).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "base/parallel.hh"
#include "base/random.hh"
#include "base/stats_util.hh"
#include "base/str.hh"
#include "benchsuite/generator.hh"
#include "benchsuite/harness.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "db/stats_expert.hh"
#include "replay_rows.hh"
#include "retrieval/context.hh"
#include "sim/llc_replay.hh"
#include "stream_render_reference.hh"
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

/** Streaming FNV-1a over the little-endian bytes of each value added. */
class Fnv1a
{
  public:
    template <typename T>
    void
    add(T v)
    {
        const auto bits = static_cast<std::uint64_t>(v);
        for (std::size_t b = 0; b < sizeof(T); ++b)
            byte(static_cast<std::uint8_t>(bits >> (8 * b)));
    }

    void
    add(const std::string &s)
    {
        add<std::uint64_t>(s.size());
        for (const char c : s)
            byte(static_cast<std::uint8_t>(c));
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    byte(std::uint8_t b)
    {
        h_ ^= b;
        h_ *= 0x100000001b3ULL;
    }

    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * One digest of a whole database: every entry's strings, every
 * columnar accessor of every row, and the reference-backed snapshot,
 * score and history columns of every 16th row.
 */
std::uint64_t
databaseDigest(const db::TraceDatabase &database)
{
    Fnv1a h;
    for (const auto &key : database.keys()) {
        const auto *entry = database.find(key);
        h.add(key);
        h.add(entry->workload);
        h.add(entry->policy);
        h.add(entry->metadata);
        h.add(entry->description);
        const db::TraceTable &t = entry->table;
        h.add<std::uint64_t>(t.size());
        for (std::size_t i = 0; i < t.size(); ++i) {
            h.add(t.pcAt(i));
            h.add(t.addressAt(i));
            h.add(t.setAt(i));
            h.add(t.isMissAt(i));
            h.add(t.bypassedAt(i));
            h.add(t.hasVictimAt(i));
            h.add(t.wrongEvictionAt(i));
            h.add(static_cast<std::uint8_t>(t.missTypeAt(i)));
            h.add(t.reuseDistanceAt(i));
            h.add(t.recencyAt(i));
            h.add(t.evictedReuseDistanceAt(i));
            h.add(t.evictedAddressAt(i));
            h.add(t.evictedPcAt(i));
            if (i % 16 != 0)
                continue;
            const db::AccessRow row = t.row(i);
            h.add<std::uint64_t>(row.current_cache_lines.size());
            for (const auto &line : row.current_cache_lines) {
                h.add(line.pc);
                h.add(line.address);
            }
            h.add<std::uint64_t>(row.cache_line_eviction_scores.size());
            for (const auto score : row.cache_line_eviction_scores)
                h.add(score);
            h.add<std::uint64_t>(row.recent_access_history.size());
            for (const auto &past : row.recent_access_history) {
                h.add(past.pc);
                h.add(past.address);
            }
        }
    }
    return h.value();
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

// Every answer is grounded in the default database, so its bytes are
// the build's contract. The digest was recorded from the one-thread
// build that allocated a fresh replay event per access. Equivalence
// tests across thread counts cannot catch a field that a reused
// event carries over from the previous access; this can.
TEST(DatabaseIdentityTest, DefaultDatabaseMatchesTheRecordedDigest)
{
    ASSERT_EQ(sharedDb().size(), 12u);
    EXPECT_EQ(databaseDigest(sharedDb()), 0xcb5b61ee9042b092ULL);
}

// renderRowLine and str::hex append instead of streaming; every row
// of a default table must render to the streamed bytes.
TEST(DatabaseIdentityTest, RowLinesMatchTheStreamRenderingOnADefaultTable)
{
    const auto *entry = sharedDb().find("astar", "belady");
    ASSERT_NE(entry, nullptr);
    const db::TraceTable &t = entry->table;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const db::AccessRow row = t.row(i);
        ASSERT_EQ(retrieval::renderRowLine(row), streamRowLine(row))
            << "row " << i;
        ASSERT_EQ(str::hex(row.memory_address),
                  streamHex(row.memory_address))
            << "row " << i;
    }
}

// The digest above reads the snapshot and scores of every 16th row.
// This replays every default (workload, policy) pair as the builder
// does and compares every row of its table with the event it came
// from, so every rebuilt snapshot is checked.
TEST(DatabaseIdentityTest, EveryRowMatchesItsReplayedEvent)
{
    const db::BuildOptions options;
    const std::size_t n_policies = options.policies.size();
    struct Workload
    {
        std::string name;
        std::vector<sim::LlcAccess> stream;
        sim::OracleInfo oracle;
    };
    std::vector<Workload> workloads(options.workloads.size());
    const std::size_t threads =
        std::max(std::thread::hardware_concurrency(), 1u);
    parallelFor(workloads.size(), threads, [&](std::size_t w) {
        const auto model = trace::makeWorkload(options.workloads[w]);
        workloads[w].name = model->info().name;
        workloads[w].stream = sim::captureLlcStream(model->generate(),
                                                    options.hierarchy);
        workloads[w].oracle = sim::computeOracle(workloads[w].stream);
    });

    std::vector<std::string> mismatch(workloads.size() * n_policies);
    std::vector<std::size_t> checked(mismatch.size(), 0);
    parallelFor(mismatch.size(), threads, [&](std::size_t p) {
        const Workload &w = workloads[p / n_policies];
        const policy::PolicyKind pk = options.policies[p % n_policies];
        const auto *entry =
            sharedDb().find(w.name, policy::policyName(pk));
        if (!entry) {
            mismatch[p] = "no table";
            return;
        }
        const std::uint32_t line_bytes = options.hierarchy.llc.line_bytes;
        sim::LlcReplayer replayer(options.hierarchy.llc,
                                  makeReplayPolicy(pk, w.stream, w.oracle));
        replayer.replay(
            w.stream, &w.oracle, [&](const sim::ReplayEvent &ev) {
                if (!mismatch[p].empty())
                    return;
                if (ev.index >= entry->table.size()) {
                    mismatch[p] = "more events than rows";
                    return;
                }
                mismatch[p] = rowMismatch(entry->table, ev, line_bytes);
                ++checked[p];
            });
    });
    std::size_t rows = 0;
    for (std::size_t p = 0; p < mismatch.size(); ++p) {
        const auto key = db::TraceDatabase::keyFor(
            workloads[p / n_policies].name,
            policy::policyName(options.policies[p % n_policies]));
        EXPECT_EQ(mismatch[p], "") << key;
        EXPECT_EQ(checked[p], sharedDb().find(key)->table.size()) << key;
        rows += checked[p];
    }
    EXPECT_EQ(rows, 1723348u);
}

namespace {

/**
 * StatsExpert's statistics as its original constructor computed them:
 * one std::map lookup per row for the PC, its accumulators and the
 * set. The body is that constructor's, verbatim but for the db::
 * qualifiers, so the dense-slot build can be pinned to it bit for
 * bit.
 */
struct MapBuiltStats
{
    struct PcAccum
    {
        stats::RunningStats reuse;
        stats::RunningStats evicted_reuse;
        stats::RunningStats recency;
    };

    std::map<std::uint64_t, db::PcStats> pc_stats_;
    std::map<std::uint32_t, db::SetStats> set_stats_;
    db::TraceSummary summary_;

    explicit MapBuiltStats(const db::TraceTable &table)
    {
        std::map<std::uint64_t, PcAccum> accum;

        std::vector<double> recency_samples;
        std::vector<double> miss_samples;
        recency_samples.reserve(table.size());
        miss_samples.reserve(table.size());

        for (std::size_t i = 0; i < table.size(); ++i) {
            const std::uint64_t pc = table.pcAt(i);
            db::PcStats &ps = pc_stats_[pc];
            PcAccum &pa = accum[pc];
            ps.pc = pc;
            ++ps.accesses;
            ++summary_.accesses;

            const bool miss = table.isMissAt(i);
            if (miss) {
                ++ps.misses;
                ++summary_.misses;
            } else {
                ++ps.hits;
            }
            switch (table.missTypeAt(i)) {
              case sim::MissType::Compulsory: ++summary_.compulsory; break;
              case sim::MissType::Capacity: ++summary_.capacity; break;
              case sim::MissType::Conflict: ++summary_.conflict; break;
              case sim::MissType::None: break;
            }
            if (table.bypassedAt(i))
                ++summary_.bypasses;
            if (table.hasVictimAt(i)) {
                ++ps.evictions_caused;
                ++summary_.evictions;
                if (table.wrongEvictionAt(i)) {
                    ++ps.wrong_evictions;
                    ++summary_.wrong_evictions;
                }
                const std::int64_t erd = table.evictedReuseDistanceAt(i);
                if (erd != db::kNoValue)
                    pa.evicted_reuse.push(static_cast<double>(erd));
            }

            const std::int64_t rd = table.reuseDistanceAt(i);
            if (rd != db::kNoValue) {
                pa.reuse.push(static_cast<double>(rd));
            } else {
                ++ps.never_reused;
            }
            const std::int64_t rec = table.recencyAt(i);
            if (rec != db::kNoValue) {
                pa.recency.push(static_cast<double>(rec));
                recency_samples.push_back(static_cast<double>(rec));
                miss_samples.push_back(miss ? 1.0 : 0.0);
            }

            db::SetStats &ss = set_stats_[table.setAt(i)];
            ss.set = table.setAt(i);
            ++ss.accesses;
            if (!miss)
                ++ss.hits;
        }

        for (auto &[pc, ps] : pc_stats_) {
            const PcAccum &pa = accum[pc];
            ps.mean_reuse_distance = pa.reuse.mean();
            ps.reuse_distance_stdev = pa.reuse.stdev();
            ps.mean_evicted_reuse_distance = pa.evicted_reuse.mean();
            ps.mean_recency = pa.recency.mean();
        }

        summary_.unique_pcs = pc_stats_.size();
        summary_.recency_miss_correlation =
            stats::pearson(recency_samples, miss_samples);
    }
};

/** A double's bit pattern: equal bits, not merely equal values. */
std::uint64_t
bitsOf(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

} // namespace

TEST(StatsExpertTest, DenseBuildMatchesTheMapBuildOnEveryDefaultTable)
{
    for (const auto &key : sharedDb().keys()) {
        const db::StatsExpert &got = *sharedDb().statsFor(key);
        const MapBuiltStats want(sharedDb().find(key)->table);

        const auto pcs = got.allPcStats();
        ASSERT_EQ(pcs.size(), want.pc_stats_.size()) << key;
        std::size_t k = 0;
        for (const auto &[pc, w] : want.pc_stats_) {
            const db::PcStats &g = pcs[k++];
            EXPECT_EQ(g.pc, w.pc) << key;
            EXPECT_EQ(g.accesses, w.accesses) << key << " " << pc;
            EXPECT_EQ(g.hits, w.hits) << key << " " << pc;
            EXPECT_EQ(g.misses, w.misses) << key << " " << pc;
            EXPECT_EQ(g.evictions_caused, w.evictions_caused) << key;
            EXPECT_EQ(g.wrong_evictions, w.wrong_evictions) << key;
            EXPECT_EQ(g.never_reused, w.never_reused) << key;
            EXPECT_EQ(bitsOf(g.mean_reuse_distance),
                      bitsOf(w.mean_reuse_distance))
                << key << " " << pc;
            EXPECT_EQ(bitsOf(g.reuse_distance_stdev),
                      bitsOf(w.reuse_distance_stdev))
                << key << " " << pc;
            EXPECT_EQ(bitsOf(g.mean_evicted_reuse_distance),
                      bitsOf(w.mean_evicted_reuse_distance))
                << key << " " << pc;
            EXPECT_EQ(bitsOf(g.mean_recency), bitsOf(w.mean_recency))
                << key << " " << pc;
        }

        const auto sets = got.allSetStats();
        ASSERT_EQ(sets.size(), want.set_stats_.size()) << key;
        k = 0;
        for (const auto &[set, w] : want.set_stats_) {
            const db::SetStats &g = sets[k++];
            EXPECT_EQ(g.set, w.set) << key;
            EXPECT_EQ(g.accesses, w.accesses) << key << " set " << set;
            EXPECT_EQ(g.hits, w.hits) << key << " set " << set;
        }

        const db::TraceSummary &g = got.summary();
        const db::TraceSummary &w = want.summary_;
        EXPECT_EQ(g.accesses, w.accesses) << key;
        EXPECT_EQ(g.misses, w.misses) << key;
        EXPECT_EQ(g.evictions, w.evictions) << key;
        EXPECT_EQ(g.wrong_evictions, w.wrong_evictions) << key;
        EXPECT_EQ(g.bypasses, w.bypasses) << key;
        EXPECT_EQ(g.compulsory, w.compulsory) << key;
        EXPECT_EQ(g.capacity, w.capacity) << key;
        EXPECT_EQ(g.conflict, w.conflict) << key;
        EXPECT_EQ(g.unique_pcs, w.unique_pcs) << key;
        EXPECT_EQ(bitsOf(g.recency_miss_correlation),
                  bitsOf(w.recency_miss_correlation))
            << key;
    }
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
