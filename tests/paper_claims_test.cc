/**
 * @file
 * The paper's headline results, pinned through the serving engine on
 * the default database and question suite:
 *
 *  - Figure 8: per-category Sieve and Ranger scores with GPT-4o, and
 *    the crossover (Ranger wins the trace-grounded tier, Sieve the
 *    reasoning tier). The same scores come out of askBatch (the
 *    evaluation harness), of grading each askStream Done, and of a
 *    loopback server, whose done frames carry the engine's answers.
 *  - Figure 5: averaged over the five backends, accuracy rises from
 *    Low to Medium to High retrieval-context quality.
 *
 * Table 2's Belady >= LRU ordering is pinned in sim_test
 * (ReplayTest.BeladyNeverBelowLruHitRate).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchsuite/generator.hh"
#include "benchsuite/grader.hh"
#include "benchsuite/harness.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "retrieval/cache.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace cachemind;
using namespace cachemind::benchsuite;

namespace {

const db::TraceDatabase &
sharedDb()
{
    static const db::TraceDatabase database = db::buildDatabase();
    return database;
}

const std::vector<Question> &
sharedSuite()
{
    static const std::vector<Question> suite =
        BenchGenerator(sharedDb()).generate();
    return suite;
}

/** A GPT-4o engine with the default (enabled) retrieval cache. */
core::CacheMind
gpt4oEngine(const std::string &retriever)
{
    return core::CacheMind::Builder(sharedDb())
        .withRetriever(retriever)
        .withBackend("gpt-4o")
        .build()
        .expect("Figure 8 engine");
}

/** The suite evaluated through askBatch, once per retriever. */
const EvalResult &
evaluated(const std::string &retriever)
{
    static std::map<std::string, EvalResult> memo;
    auto it = memo.find(retriever);
    if (it == memo.end()) {
        auto engine = gpt4oEngine(retriever);
        it = memo.emplace(retriever,
                          EvalHarness(sharedSuite()).evaluate(engine))
                 .first;
    }
    return it->second;
}

/** Each suite question's askStream Done, once per retriever. */
const std::vector<core::Response> &
streamed(const std::string &retriever)
{
    static std::map<std::string, std::vector<core::Response>> memo;
    auto it = memo.find(retriever);
    if (it == memo.end()) {
        auto engine = gpt4oEngine(retriever);
        std::vector<core::Response> responses;
        for (const auto &q : sharedSuite())
            responses.push_back(
                engine.askStream(q.text).expect("askStream").wait());
        it = memo.emplace(retriever, std::move(responses)).first;
    }
    return it->second;
}

/** Figure 8 as bench_fig8_sieve_vs_ranger prints it, in percent. */
struct Figure8Row
{
    Category category;
    double sieve;
    double ranger;
};

const Figure8Row kFigure8[] = {
    {Category::HitMiss, 83.3, 83.3},
    {Category::MissRate, 90.0, 90.0},
    {Category::PolicyComparison, 60.0, 60.0},
    {Category::Count, 0.0, 100.0},
    {Category::Arithmetic, 30.0, 100.0},
    {Category::TrickQuestion, 80.0, 80.0},
};

/** Printed to one decimal: half a unit of the last digit. */
constexpr double kPrinted = 0.05;

} // namespace

TEST(PaperClaimsTest, Figure8ScoresAndCrossoverThroughTheEngine)
{
    const auto &sieve = evaluated("sieve");
    const auto &ranger = evaluated("ranger");
    ASSERT_EQ(sieve.records.size(), 100u);
    ASSERT_EQ(ranger.records.size(), 100u);
    for (const auto &row : kFigure8) {
        const char *name = categoryName(row.category);
        EXPECT_NEAR(sieve.by_category.at(row.category).pct(), row.sieve,
                    kPrinted)
            << name;
        EXPECT_NEAR(ranger.by_category.at(row.category).pct(),
                    row.ranger, kPrinted)
            << name;
    }
    // Tier totals: 50/75 and 62/75 correct; 107/125 and 89/125 points.
    EXPECT_NEAR(sieve.tgPct(), 100.0 * 50 / 75, 1e-9);
    EXPECT_NEAR(ranger.tgPct(), 100.0 * 62 / 75, 1e-9);
    EXPECT_NEAR(sieve.araPct(), 100.0 * 107 / 125, 1e-9);
    EXPECT_NEAR(ranger.araPct(), 100.0 * 89 / 125, 1e-9);

    // The crossover.
    EXPECT_GT(ranger.tgPct(), sieve.tgPct());
    EXPECT_GT(sieve.araPct(), ranger.araPct());
}

TEST(PaperClaimsTest, AskStreamGradesLikeTheHarness)
{
    for (const std::string retriever : {"sieve", "ranger"}) {
        const auto &result = evaluated(retriever);
        const auto &responses = streamed(retriever);
        ASSERT_EQ(responses.size(), sharedSuite().size());
        std::map<Category, CategoryScore> by_category;
        for (std::size_t i = 0; i < responses.size(); ++i) {
            const auto &q = sharedSuite()[i];
            const auto g = grade(q, responses[i].answer);
            CategoryScore &cs = by_category[q.category];
            cs.earned += g.score;
            cs.max += g.max;
            ++cs.questions;
            EXPECT_EQ(g.score, result.records[i].grade.score)
                << retriever << " " << q.text;
            EXPECT_EQ(responses[i].text, result.records[i].answer_text)
                << retriever << " " << q.text;
        }
        ASSERT_EQ(by_category.size(), result.by_category.size());
        for (const auto &[category, want] : result.by_category) {
            const auto &got = by_category.at(category);
            EXPECT_EQ(got.earned, want.earned) << categoryName(category);
            EXPECT_EQ(got.max, want.max) << categoryName(category);
            EXPECT_EQ(got.questions, want.questions)
                << categoryName(category);
        }
    }
}

TEST(PaperClaimsTest, ServedAnswersMatchTheEngine)
{
    // The grader reads structured answer fields that are not on the
    // wire, so the served path compares answer text instead.
    serve::Server server(sharedDb(), serve::ServeOptions{});
    ASSERT_TRUE(server.start());
    serve::LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(client.recvLine().has_value()); // hello

    std::size_t asked = 0;
    for (const std::string retriever : {"sieve", "ranger"}) {
        const auto &responses = streamed(retriever);
        for (std::size_t i = 0; i < sharedSuite().size(); ++i) {
            serve::Request req;
            req.id = std::to_string(asked++);
            req.question = sharedSuite()[i].text;
            req.retriever = retriever;
            req.backend = "gpt-4o";
            ASSERT_TRUE(client.sendLine(serve::renderRequest(req)));
            std::string answer;
            bool done = false;
            while (auto line = client.recvLine()) {
                const auto frame = serve::parseJsonObject(*line);
                ASSERT_TRUE(frame.has_value()) << *line;
                const std::string kind = frame->at("frame");
                ASSERT_NE(kind, "error") << *line;
                if (kind == "done") {
                    answer = frame->at("answer");
                    done = true;
                    break;
                }
            }
            ASSERT_TRUE(done) << retriever << " " << req.question;
            EXPECT_EQ(answer, responses[i].text)
                << retriever << " " << req.question;
        }
    }
    server.stop();
}

TEST(PaperClaimsTest, Figure5AccuracyRisesWithContextQuality)
{
    // bench_fig5_retrieval_quality's three retrieval regimes, pooled
    // per backend: dense retrieval (mostly Low-quality context), a
    // degraded Sieve (Medium) and the full Sieve (mostly High).
    struct Regime
    {
        const char *retriever;
        std::map<std::string, std::string> params;
        std::size_t batch_workers;
    };
    const Regime regimes[] = {
        {"llamaindex", {{"row_stride", "32"}}, 1},
        {"sieve",
         {{"evidence_window", "4"},
          {"listing_limit", "8"},
          {"degrade_filters", "true"}},
         4},
        {"sieve", {}, 4},
    };
    auto shared_cache = std::make_shared<retrieval::RetrievalCache>(
        retrieval::RetrievalCache::Options{1 << 14});
    const EvalHarness harness(sharedSuite());

    using retrieval::ContextQuality;
    const ContextQuality buckets[] = {
        ContextQuality::Low, ContextQuality::Medium, ContextQuality::High};
    double avg[3] = {0.0, 0.0, 0.0};
    for (const auto backend : llm::allBackends()) {
        EvalResult pooled;
        for (const auto &regime : regimes) {
            auto builder = core::CacheMind::Builder(sharedDb())
                               .withRetriever(regime.retriever)
                               .withBackend(llm::backendKey(backend))
                               .withBatchWorkers(regime.batch_workers)
                               .withSharedRetrievalCache(shared_cache);
            for (const auto &[key, value] : regime.params)
                builder.withRetrieverParam(key, value);
            auto engine = builder.build().expect("Figure 5 engine");
            const auto res = harness.evaluate(engine);
            pooled.records.insert(pooled.records.end(),
                                  res.records.begin(), res.records.end());
        }
        for (int b = 0; b < 3; ++b) {
            EXPECT_GT(pooled.qualityBucketCount(buckets[b]), 0u);
            avg[b] += pooled.qualityBucketPct(buckets[b]) /
                      static_cast<double>(llm::allBackends().size());
        }
    }
    EXPECT_NEAR(avg[0], 22.7, kPrinted);
    EXPECT_NEAR(avg[1], 49.4, kPrinted);
    EXPECT_NEAR(avg[2], 69.2, kPrinted);
    EXPECT_LT(avg[0], avg[1]);
    EXPECT_LT(avg[1], avg[2]);
}
