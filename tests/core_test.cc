/**
 * @file
 * Tests for the CacheMind v2 facade and chat sessions: Builder
 * construction, typed errors, grounded answers through the public
 * API, batched concurrent ask, engine statistics, and conversation
 * memory (including memory-sharpened retrieval for follow-ups).
 */

#include <gtest/gtest.h>

#include "base/stats_util.hh"
#include "base/str.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "retrieval/ranger.hh"
#include "retrieve_text.hh"

using namespace cachemind;
using namespace cachemind::core;

namespace {

const db::TraceDatabase &
sharedDb()
{
    static const db::TraceDatabase database = [] {
        db::BuildOptions options;
        options.workloads = {trace::WorkloadKind::Astar};
        options.policies = {policy::PolicyKind::Lru,
                            policy::PolicyKind::Belady};
        options.accesses_override = 50000;
        return db::buildDatabase(options);
    }();
    return database;
}

CacheMind
defaultEngine()
{
    return CacheMind::Builder(sharedDb()).build().expect("engine");
}

/** A spread of intents exercising retrieval, stats, and reasoning. */
std::vector<std::string>
suiteQuestions()
{
    const auto *entry = sharedDb().find("astar_evictions_lru");
    const std::uint64_t pc = entry->table.pcAt(0);
    return {
        "What is the miss rate for PC " + str::hex(pc) +
            " in the astar workload with LRU?",
        "Which policy has the lowest miss rate in the astar workload?",
        "List all unique PCs in the astar workload under LRU.",
        "Identify 3 hot and 3 cold sets by hit rate for the astar "
        "workload under LRU.",
        "How many times did PC " + str::hex(pc) +
            " appear in the astar workload under LRU?",
        "What is the mean reuse distance of PC " + str::hex(pc) +
            " in the astar workload under LRU?",
        "Why does Belady outperform LRU in the astar workload?",
        "What is a compulsory miss?",
    };
}

} // namespace

TEST(EngineTest, BuilderDefaultsToSieveAndGpt4o)
{
    auto engine = defaultEngine();
    EXPECT_EQ(engine.options().retriever, "sieve");
    EXPECT_EQ(engine.options().backend, "gpt-4o");
    EXPECT_STREQ(engine.retriever().name(), "sieve");
    EXPECT_EQ(engine.generator().name(), "gpt-4o");
}

TEST(EngineTest, AskReturnsGroundedResponse)
{
    auto engine = defaultEngine();
    const auto *entry = sharedDb().find("astar_evictions_lru");
    const std::uint64_t pc = entry->table.pcAt(0);
    auto result = engine.ask(
        "What is the miss rate for PC " + str::hex(pc) +
        " in the astar workload with LRU?");
    ASSERT_TRUE(result.ok());
    const auto &response = result.value();
    EXPECT_FALSE(response.text.empty());
    EXPECT_EQ(response.bundle.trace_key, "astar_evictions_lru");
    EXPECT_TRUE(response.answer.number.has_value());
}

TEST(EngineTest, BuilderSelectsRetrieverByName)
{
    auto engine = CacheMind::Builder(sharedDb())
                      .withRetriever("ranger")
                      .build()
                      .expect("ranger engine");
    EXPECT_STREQ(engine.retriever().name(), "ranger");
    auto result = engine.ask(
        "How many times did PC 0x409270 appear in the astar workload "
        "under LRU?");
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().bundle.total_is_exact);
}

TEST(EngineTest, BuilderNormalizesComponentNames)
{
    auto engine = CacheMind::Builder(sharedDb())
                      .withRetriever("  SiEvE ")
                      .withBackend(" GPT-4O")
                      .build()
                      .expect("normalized engine");
    EXPECT_EQ(engine.options().retriever, "sieve");
    EXPECT_EQ(engine.options().backend, "gpt-4o");
}

TEST(EngineTest, AskRejectsEmptyQuestion)
{
    auto engine = defaultEngine();
    auto result = engine.ask("   ");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, EngineErrorCode::EmptyQuestion);
    EXPECT_EQ(engine.stats().questions, 0u);
}

TEST(EngineTest, AskBatchMatchesSequentialAsk)
{
    const auto questions = suiteQuestions();

    auto sequential_engine = defaultEngine();
    std::vector<Response> expected;
    for (const auto &q : questions)
        expected.push_back(sequential_engine.ask(q).expect("ask"));

    auto batch_engine = CacheMind::Builder(sharedDb())
                            .withBatchWorkers(4)
                            .build()
                            .expect("batch engine");
    auto batch =
        batch_engine.askBatch(questions).expect("askBatch");
    ASSERT_EQ(batch.size(), expected.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(batch[i].text, expected[i].text) << "question " << i;
        EXPECT_EQ(batch[i].answer.number, expected[i].answer.number);
        EXPECT_EQ(batch[i].answer.chosen_policy,
                  expected[i].answer.chosen_policy);
        EXPECT_EQ(batch[i].answer.listed_values,
                  expected[i].answer.listed_values);
        EXPECT_EQ(batch[i].bundle.trace_key,
                  expected[i].bundle.trace_key);
    }
}

TEST(EngineTest, AskBatchIsDeterministicAcrossRuns)
{
    const auto questions = suiteQuestions();
    auto engine = CacheMind::Builder(sharedDb())
                      .withBatchWorkers(4)
                      .build()
                      .expect("engine");
    const auto a = engine.askBatch(questions).expect("first batch");
    const auto b = engine.askBatch(questions).expect("second batch");
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].text, b[i].text) << "question " << i;
}

TEST(EngineTest, AskBatchPreservesOrder)
{
    const auto questions = suiteQuestions();
    auto engine = CacheMind::Builder(sharedDb())
                      .withBatchWorkers(4)
                      .build()
                      .expect("engine");
    const auto batch = engine.askBatch(questions).expect("batch");
    ASSERT_EQ(batch.size(), questions.size());
    // Each response's bundle carries the parsed query it answered;
    // slot i must answer question i.
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(batch[i].bundle.parsed.raw, questions[i]);
}

TEST(EngineTest, AskBatchRejectsEmptyQuestion)
{
    auto engine = defaultEngine();
    auto result = engine.askBatch(
        std::vector<std::string>{"Which policy is best?", " "});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, EngineErrorCode::EmptyQuestion);
    EXPECT_NE(result.error().message.find("#1"), std::string::npos);
    EXPECT_EQ(engine.stats().questions, 0u);
}

TEST(EngineTest, AskBatchByteIdenticalCacheOnVsOff)
{
    // Repeated-slot batch: the suite three times over, so the shared
    // cache serves most questions from memoized bundles. Answers must
    // be byte-identical to a cache-off engine, question by question.
    const auto base = suiteQuestions();
    std::vector<std::string> questions;
    for (int round = 0; round < 3; ++round)
        questions.insert(questions.end(), base.begin(), base.end());

    auto cache_off = CacheMind::Builder(sharedDb())
                         .withBatchWorkers(4)
                         .withRetrievalCacheCapacity(0)
                         .build()
                         .expect("cache-off engine");
    auto cache_on = CacheMind::Builder(sharedDb())
                        .withBatchWorkers(4)
                        .withRetrievalCacheCapacity(4096)
                        .build()
                        .expect("cache-on engine");
    EXPECT_EQ(cache_off.retrievalCache(), nullptr);
    ASSERT_NE(cache_on.retrievalCache(), nullptr);

    const auto off = cache_off.askBatch(questions).expect("off batch");
    const auto on = cache_on.askBatch(questions).expect("on batch");
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        EXPECT_EQ(on[i].text, off[i].text) << "question " << i;
        EXPECT_EQ(on[i].answer.number, off[i].answer.number);
        EXPECT_EQ(on[i].answer.chosen_policy,
                  off[i].answer.chosen_policy);
        EXPECT_EQ(on[i].answer.listed_values,
                  off[i].answer.listed_values);
        EXPECT_EQ(on[i].bundle.trace_key, off[i].bundle.trace_key);
        // The rendered evidence covers every bundle field the
        // generator can read: byte-identical context, not just
        // byte-identical answers.
        EXPECT_EQ(on[i].bundle.render(), off[i].bundle.render())
            << "question " << i;
    }

    // The repeated rounds must have hit: 8 distinct questions were
    // asked 24 times.
    const auto stats = cache_on.stats();
    EXPECT_GT(stats.cache.hits, 0u);
    EXPECT_GT(stats.cache.hitRate(), 0.5);
    EXPECT_EQ(stats.cache.hits + stats.cache.misses,
              static_cast<std::uint64_t>(questions.size()));
    // Cache-off engines record no cache traffic at all.
    EXPECT_EQ(cache_off.stats().cache.hits +
                  cache_off.stats().cache.misses,
              0u);
}

TEST(EngineTest, TieredCacheByteIdenticalAndRecoversDemotions)
{
    // The demotion-churn scenario at engine level: a hot tier far
    // smaller than the working set (capacity 4) over a roomy
    // compressed secondary tier, so nearly every bundle is demoted
    // into codec form and later recovered by decode + re-promote.
    // Across all three retrievers, blocking and streaming, answers
    // must stay byte-identical to a cache-off engine — tiering
    // changes when evidence is assembled, never what is answered —
    // and the secondary tier must recover the round-2 recomputes the
    // tiny hot tier would otherwise pay.
    const auto *entry = sharedDb().find("astar_evictions_lru");
    const auto &pcs = entry->table.uniquePcsScan();
    std::vector<std::string> base;
    for (std::size_t k = 0; k < 8 && k < pcs.size(); ++k) {
        const std::string pc = str::hex(pcs[k]);
        const std::string where =
            " in the astar workload under LRU?";
        base.push_back("What is the miss rate for PC " + pc + where);
        base.push_back("How many times did PC " + pc + " appear" +
                       where);
        base.push_back("What is the mean reuse distance of PC " + pc +
                       where);
        base.push_back("What is the standard deviation of the reuse "
                       "distance of PC " + pc + where);
    }
    ASSERT_GE(base.size(), 16u) << "trace has too few distinct PCs";
    std::vector<std::string> questions;
    for (int round = 0; round < 2; ++round)
        questions.insert(questions.end(), base.begin(), base.end());
    const auto distinct = static_cast<std::uint64_t>(base.size());

    for (const char *retriever : {"sieve", "ranger", "llamaindex"}) {
        SCOPED_TRACE(retriever);
        auto off = CacheMind::Builder(sharedDb())
                       .withRetriever(retriever)
                       .withBatchWorkers(4)
                       .withRetrievalCacheCapacity(0)
                       .build()
                       .expect("cache-off engine");
        auto tiered = CacheMind::Builder(sharedDb())
                          .withRetriever(retriever)
                          .withBatchWorkers(4)
                          .withRetrievalCacheCapacity(4)
                          .withSecondaryCacheBytes(4u << 20)
                          .build()
                          .expect("tiered engine");

        const auto expect = off.askBatch(questions).expect("off");
        const auto got = tiered.askBatch(questions).expect("tiered");
        ASSERT_EQ(expect.size(), got.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].text, expect[i].text) << "question " << i;
            // Byte-identical evidence, not just byte-identical
            // answers: render() covers every field the generator can
            // read, so it also proves the codec round trip through
            // the secondary tier was exact.
            EXPECT_EQ(got[i].bundle.render(),
                      expect[i].bundle.render())
                << "question " << i;
        }

        // Every distinct slot was computed exactly once: round 2 was
        // served entirely from the tiers, and everything the 4-entry
        // hot tier had demoted came back from the secondary tier
        // instead of being recomputed.
        auto cache = tiered.retrievalCache();
        ASSERT_NE(cache, nullptr);
        const auto counters = cache->counters();
        const auto tiers = cache->tiered();
        EXPECT_EQ(counters.misses, distinct);
        EXPECT_EQ(counters.evictions, 0u);
        ASSERT_TRUE(tiers.secondary_enabled);
        const std::uint64_t would_recompute =
            distinct - tiers.hot.capacity;
        EXPECT_GT(tiers.secondary.hits, would_recompute / 2)
            << "secondary tier recovered under half of the would-be "
               "recomputes";
        EXPECT_GT(tiers.demotions, 0u);
        EXPECT_EQ(tiers.promotions, tiers.secondary.hits);
        EXPECT_LT(tiers.secondary.compressionRatio(), 1.0);
        // And the per-tier counters surface through EngineStats.
        EXPECT_EQ(tiered.stats().cache_tiers.secondary.hits,
                  tiers.secondary.hits);

        // Streaming rides the same tiers through peek/publish; the
        // streamed answer must match the cache-off stream's.
        for (std::size_t i = 0; i < 4; ++i) {
            auto s_off = off.askStream(base[i]).expect("off stream");
            auto s_on =
                tiered.askStream(base[i]).expect("tiered stream");
            std::string text_off, text_on;
            while (auto event = s_off.next())
                if (event->kind == StreamEvent::Kind::Done)
                    text_off = event->response->text;
            while (auto event = s_on.next())
                if (event->kind == StreamEvent::Kind::Done)
                    text_on = event->response->text;
            EXPECT_FALSE(text_on.empty());
            EXPECT_EQ(text_on, text_off) << "stream " << i;
        }
    }
}

TEST(EngineTest, CacheStatsAreSplitByRetriever)
{
    auto engine = defaultEngine();
    const auto q = suiteQuestions()[0];
    engine.ask(q).expect("miss");
    engine.ask(q).expect("hit");
    const auto stats = engine.stats();
    ASSERT_EQ(stats.cache_by_retriever.count("sieve"), 1u);
    const auto &sieve = stats.cache_by_retriever.at("sieve");
    EXPECT_EQ(sieve.misses, 1u);
    EXPECT_EQ(sieve.hits, 1u);
    EXPECT_DOUBLE_EQ(sieve.hitRate(), 0.5);
    EXPECT_EQ(stats.cache.hits, sieve.hits);
}

TEST(EngineTest, SlotEqualPhrasingsShareOneRetrieval)
{
    // Two phrasings of the same slots assemble the evidence bundle
    // once, yet each answer is keyed by its own raw text.
    auto engine = defaultEngine();
    const auto *entry = sharedDb().find("astar_evictions_lru");
    const std::uint64_t pc = entry->table.pcAt(0);
    const std::string a = "What is the miss rate for PC " +
                          str::hex(pc) +
                          " in the astar workload with LRU?";
    const std::string b = "For the astar workload under LRU, what "
                          "miss rate does PC " +
                          str::hex(pc) + " have?";
    const auto ra = engine.ask(a).expect("a");
    const auto rb = engine.ask(b).expect("b");
    const auto stats = engine.stats();
    EXPECT_EQ(stats.cache.misses, 1u);
    EXPECT_EQ(stats.cache.hits, 1u);
    // Same evidence, each response's bundle carries its own raw text.
    EXPECT_EQ(ra.bundle.trace_key, rb.bundle.trace_key);
    EXPECT_EQ(ra.bundle.parsed.raw, a);
    EXPECT_EQ(rb.bundle.parsed.raw, b);
    // And each answer matches a fresh single-question engine's.
    auto fresh = defaultEngine();
    EXPECT_EQ(rb.text, fresh.ask(b).expect("fresh").text);
}

TEST(EngineTest, AskParsedMatchesAsk)
{
    const auto questions = suiteQuestions();
    auto via_ask = defaultEngine();
    auto via_parsed = defaultEngine();
    for (const auto &q : questions) {
        const auto a = via_ask.ask(q).expect("ask");
        const auto b = via_parsed.askParsed(via_parsed.parser().parse(q))
                           .expect("askParsed");
        EXPECT_EQ(a.text, b.text) << q;
        EXPECT_EQ(a.bundle.render(), b.bundle.render()) << q;
    }
}

TEST(EngineTest, AskParsedRejectsBlankRaw)
{
    auto engine = defaultEngine();
    auto result = engine.askParsed(engine.parser().parse("  "));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, EngineErrorCode::EmptyQuestion);
}

TEST(EngineTest, SieveEvidenceWindowKnobPlumbsThroughBuilder)
{
    // ROADMAP "engine-level scenario configs": a Figure 5-style sweep
    // runs through the Builder instead of constructing SieveRetriever
    // directly.
    auto tight = CacheMind::Builder(sharedDb())
                     .withSieveEvidenceWindow(2)
                     .build()
                     .expect("tight engine");
    EXPECT_EQ(tight.options().retriever_params.at("evidence_window"),
              "2");
    const auto *entry = sharedDb().find("astar_evictions_lru");
    const std::uint64_t pc = entry->table.pcAt(0);
    const std::string q = "What is the miss rate for PC " +
                          str::hex(pc) +
                          " in the astar workload with LRU?";
    const auto bounded = tight.ask(q).expect("bounded");
    EXPECT_LE(bounded.bundle.rows.size(), 2u);

    auto stock = defaultEngine();
    const auto full = stock.ask(q).expect("full");
    EXPECT_GT(full.bundle.rows.size(), 2u);
}

TEST(EngineTest, RangerFidelityKnobPlumbsThroughBuilder)
{
    // ROADMAP "engine-level scenario configs": the Builder knob must
    // configure exactly what direct construction configures.
    const std::string q =
        "What is the average reuse distance of PC 0x409270 for the "
        "astar workload with LRU?";
    auto engine = CacheMind::Builder(sharedDb())
                      .withRetriever("ranger")
                      .withRangerFidelity(0.0)
                      .build()
                      .expect("low-fidelity ranger engine");
    retrieval::RangerConfig cfg;
    cfg.codegen_fidelity = 0.0;
    retrieval::RangerRetriever direct(sharedDb(), cfg);

    const auto via_engine = engine.ask(q).expect("engine ask");
    const auto via_direct = retrieveText(direct, sharedDb(), q);
    EXPECT_EQ(via_engine.bundle.render(), via_direct.render());
    EXPECT_EQ(via_engine.bundle.generated_code,
              via_direct.generated_code);
    // And the knob separates the cache fingerprint from a stock
    // ranger, so tuned engines never alias cached bundles.
    retrieval::RangerRetriever stock(sharedDb());
    EXPECT_NE(engine.retriever().cacheFingerprint(),
              stock.cacheFingerprint());
}

TEST(EngineTest, BuildThreadsKnobPlumbsThroughBuilder)
{
    auto engine = CacheMind::Builder(sharedDb())
                      .withBatchWorkers(4)
                      .withBuildThreads(3)
                      .build()
                      .expect("engine");
    EXPECT_EQ(engine.options().build_threads, 3u);
    EXPECT_EQ(engine.shards().size(), sharedDb().size());

    // The worker retrievers constructed concurrently on the
    // build_threads pool must answer byte-identically to a
    // sequential ask() loop.
    const auto questions = suiteQuestions();
    const auto batch = engine.askBatch(questions).expect("batch");
    auto sequential_engine = defaultEngine();
    ASSERT_EQ(batch.size(), questions.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(batch[i].text,
                  sequential_engine.ask(questions[i]).expect("ask").text)
            << "question " << i;
    }
}

TEST(EngineStatsTest, PercentileSortedEdgeCases)
{
    // The snapshot percentile path leans on these clamps: pin them.
    const std::vector<double> empty;
    EXPECT_EQ(stats::percentileSorted(empty, 50.0), 0.0);

    const std::vector<double> one{7.0};
    for (const double p : {-10.0, 0.0, 50.0, 100.0, 250.0})
        EXPECT_EQ(stats::percentileSorted(one, p), 7.0) << "p=" << p;

    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_EQ(stats::percentileSorted(xs, 0.0), 1.0);
    EXPECT_EQ(stats::percentileSorted(xs, -5.0), 1.0);
    EXPECT_EQ(stats::percentileSorted(xs, 100.0), 4.0);
    EXPECT_EQ(stats::percentileSorted(xs, 120.0), 4.0);
    EXPECT_NEAR(stats::percentileSorted(xs, 50.0), 2.5, 1e-12);
}

TEST(EngineTest, StatsCountQuestionsQualityAndLatency)
{
    const auto questions = suiteQuestions();
    auto engine = CacheMind::Builder(sharedDb())
                      .withBatchWorkers(4)
                      .build()
                      .expect("engine");
    engine.askBatch(questions).expect("batch");
    engine.ask(questions[0]).expect("ask");

    const auto stats = engine.stats();
    EXPECT_EQ(stats.questions, questions.size() + 1);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.quality_low + stats.quality_medium +
                  stats.quality_high,
              stats.questions);
    EXPECT_GT(stats.highQualityFraction(), 0.0);
    EXPECT_LE(stats.latency_p50_ms, stats.latency_p90_ms);
    EXPECT_LE(stats.latency_p90_ms, stats.latency_p99_ms);
    EXPECT_GT(stats.latency_mean_ms, 0.0);
}

TEST(ChatSessionTest, TranscriptAccumulates)
{
    auto engine = defaultEngine();
    ChatSession chat(engine);
    chat.ask("Which policy has the lowest miss rate in the astar "
             "workload?")
        .expect("turn 1");
    chat.ask("Identify 3 hot and 3 cold sets by hit rate for the "
             "astar workload under LRU.")
        .expect("turn 2");
    const auto transcript = chat.transcript();
    EXPECT_NE(transcript.find("User: Which policy"), std::string::npos);
    EXPECT_NE(transcript.find("Assistant:"), std::string::npos);
    EXPECT_EQ(chat.memory().totalTurns(), 2u);
}

TEST(ChatSessionTest, MemoryRecallsEarlierAnswers)
{
    auto engine = defaultEngine();
    ChatSession chat(engine);
    chat.ask("Which policy has the lowest miss rate in the astar "
             "workload?")
        .expect("turn");
    const auto recalled =
        chat.memory().recall("lowest miss rate policy astar");
    ASSERT_FALSE(recalled.empty());
    EXPECT_NE(recalled[0].find("miss rate"), std::string::npos);
}

TEST(ChatSessionTest, AnswersAreReproducibleAcrossSessions)
{
    auto e1 = defaultEngine();
    auto e2 = defaultEngine();
    ChatSession c1(e1);
    ChatSession c2(e2);
    const std::string q =
        "Which policy has the lowest miss rate in the astar workload?";
    EXPECT_EQ(c1.ask(q).expect("c1").text, c2.ask(q).expect("c2").text);
}

TEST(ChatSessionTest, RejectsBlankQuestionEvenWithMemory)
{
    auto engine = defaultEngine();
    ChatSession chat(engine);
    chat.ask("Which policy has the lowest miss rate in the astar "
             "workload?")
        .expect("turn 1");
    // Memory augmentation must not turn blank input into an
    // answerable fabricated query.
    auto blank = chat.ask("   ");
    ASSERT_FALSE(blank.ok());
    EXPECT_EQ(blank.error().code, EngineErrorCode::EmptyQuestion);
    EXPECT_EQ(chat.memory().totalTurns(), 1u);
}

TEST(ChatSessionTest, MemorySharpensUnderSpecifiedFollowUp)
{
    const auto *entry = sharedDb().find("astar_evictions_lru");
    const std::uint64_t pc = entry->table.pcAt(0);
    const std::string follow_up =
        "What is the miss rate for PC " + str::hex(pc) + "?";

    // Without conversation state the follow-up names no workload, so
    // retrieval cannot resolve a trace.
    auto bare_engine = defaultEngine();
    auto bare = bare_engine.ask(follow_up).expect("bare ask");
    EXPECT_TRUE(bare.bundle.trace_key.empty());

    // With memory of an earlier astar/LRU turn, the recalled facts
    // fill the missing slots *before* retrieval.
    auto engine = defaultEngine();
    ChatSession chat(engine);
    chat.ask("What is the miss rate for PC " + str::hex(pc) +
             " in the astar workload with LRU?")
        .expect("turn 1");
    auto sharpened = chat.ask(follow_up).expect("turn 2");
    EXPECT_EQ(sharpened.bundle.trace_key, "astar_evictions_lru");
    EXPECT_TRUE(sharpened.answer.number.has_value());
}

// --------------------------- cross-engine shared retrieval cache

TEST(EngineTest, SharedRetrievalCacheIsReusedAcrossEngines)
{
    // The multi-backend sweep pattern: engines differing only in
    // backend share one externally owned bundle cache, so the second
    // engine's retrieval is served from the first engine's work.
    auto shared_cache = std::make_shared<retrieval::RetrievalCache>(
        retrieval::RetrievalCache::Options{256});
    const auto questions = suiteQuestions();

    auto first = CacheMind::Builder(sharedDb())
                     .withBackend("gpt-4o")
                     .withSharedRetrievalCache(shared_cache)
                     .build()
                     .expect("first engine");
    auto second = CacheMind::Builder(sharedDb())
                      .withBackend("o3")
                      .withSharedRetrievalCache(shared_cache)
                      .build()
                      .expect("second engine");
    EXPECT_EQ(first.retrievalCache(), shared_cache.get());
    EXPECT_EQ(second.retrievalCache(), shared_cache.get());

    // Reference: an isolated engine with the same backend as second.
    auto isolated = CacheMind::Builder(sharedDb())
                        .withBackend("o3")
                        .build()
                        .expect("isolated engine");

    for (const auto &q : questions)
        (void)first.ask(q).expect("first ask");
    const auto first_stats = first.stats();
    EXPECT_GT(first_stats.cache.misses, 0u);

    for (const auto &q : questions) {
        const auto shared_resp = second.ask(q).expect("second ask");
        const auto isolated_resp = isolated.ask(q).expect("isolated");
        // Shared bundles must never change a single answer byte.
        EXPECT_EQ(shared_resp.text, isolated_resp.text) << q;
        EXPECT_EQ(shared_resp.bundle.render(),
                  isolated_resp.bundle.render())
            << q;
    }
    // Identical retriever fingerprints: every question the second
    // engine asked was served from the first engine's entries.
    const auto second_stats = second.stats();
    EXPECT_EQ(second_stats.cache.misses, 0u);
    EXPECT_EQ(second_stats.cache.hits, questions.size());
}

TEST(EngineStatsTest, IndexTotalsSurfaceThroughEngineStats)
{
    auto engine = defaultEngine();
    const auto *entry = sharedDb().find("astar_evictions_lru");
    const std::uint64_t pc = entry->table.pcAt(0);
    (void)engine
        .ask("What is the miss rate for PC " + str::hex(pc) +
             " in the astar workload with LRU?")
        .expect("ask");
    const auto stats = engine.stats();
    // Sieve's evidence slice went through the postings index: the
    // queried shard reports its build and the skipped scan work.
    EXPECT_GE(stats.index.shards_indexed, 1u);
    EXPECT_GT(stats.index.lookups, 0u);
    EXPECT_GT(stats.index.rows_skipped, 0u);
    EXPECT_GT(stats.index.build_ms_total, 0.0);
}
