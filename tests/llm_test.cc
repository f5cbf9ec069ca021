/**
 * @file
 * Tests for the LLM layer: backend profiles, prompts, conversation
 * memory, the knowledge base, and the grounded generator's behaviour
 * contracts (parameterized across all five backends).
 */

#include <gtest/gtest.h>

#include "base/str.hh"
#include "db/builder.hh"
#include "llm/generator.hh"
#include "llm/knowledge.hh"
#include "llm/memory.hh"
#include "retrieval/ranger.hh"
#include "retrieval/sieve.hh"
#include "retrieve_text.hh"

using namespace cachemind;
using namespace cachemind::llm;

namespace {

const db::TraceDatabase &
sharedDb()
{
    static const db::TraceDatabase database = [] {
        db::BuildOptions options;
        options.workloads = {trace::WorkloadKind::Lbm,
                             trace::WorkloadKind::Mcf};
        options.policies = {policy::PolicyKind::Lru,
                            policy::PolicyKind::Belady};
        options.accesses_override = 50000;
        return db::buildDatabase(options);
    }();
    return database;
}

/** A hit/miss question with a known gold answer. */
struct GoldCase
{
    std::string question;
    bool is_miss;
};

GoldCase
goldHitMiss()
{
    const auto *entry = sharedDb().find("lbm_evictions_lru");
    const std::size_t i = 10;
    return GoldCase{
        "Does the memory access with PC " +
            str::hex(entry->table.pcAt(i)) + " and address " +
            str::hex(entry->table.addressAt(i)) +
            " result in a cache hit or cache miss for the lbm "
            "workload and LRU replacement policy?",
        entry->table.isMissAt(i)};
}

} // namespace

TEST(BackendTest, CatalogueIsComplete)
{
    EXPECT_EQ(allBackends().size(), 5u);
    for (const auto kind : allBackends()) {
        const auto &profile = profileFor(kind);
        EXPECT_FALSE(profile.name.empty());
        EXPECT_GT(profile.lookup, 0.0);
        EXPECT_LE(profile.lookup, 1.0);
        EXPECT_GE(profile.coverage, 0.0);
        EXPECT_LE(profile.coverage, 1.0);
        EXPECT_STREQ(backendName(kind), profile.name.c_str());
    }
}

TEST(BackendTest, ProfileOrderingMatchesPaperNarrative)
{
    const auto &gpt4o = profileFor(BackendKind::Gpt4o);
    const auto &gpt35 = profileFor(BackendKind::Gpt35Turbo);
    const auto &o3 = profileFor(BackendKind::O3);
    const auto &ft = profileFor(BackendKind::FinetunedGpt4oMini);
    // GPT-4o is the epistemically robust model.
    EXPECT_GT(gpt4o.skepticism, gpt35.skepticism);
    EXPECT_GT(gpt4o.skepticism, ft.skepticism);
    // o3 is the only backend with an engagement (coverage) gap.
    EXPECT_LT(o3.coverage, 1.0);
    EXPECT_DOUBLE_EQ(gpt4o.coverage, 1.0);
    // Fine-tuning raised context overreliance vs the base mini model.
    EXPECT_GT(ft.context_overreliance,
              profileFor(BackendKind::Gpt4oMini).context_overreliance);
}

TEST(PromptTest, RenderIncludesShotsAndQuestion)
{
    Prompt prompt;
    prompt.system = defaultSystemPrompt();
    prompt.shots = canonicalShots(ShotMode::FewShot);
    prompt.context = "CTX";
    prompt.question = "Q?";
    const auto text = prompt.render();
    EXPECT_NE(text.find("SYSTEM:"), std::string::npos);
    EXPECT_NE(text.find("EXAMPLE 1:"), std::string::npos);
    EXPECT_NE(text.find("EXAMPLE 3:"), std::string::npos);
    EXPECT_NE(text.find("Q?"), std::string::npos);
    EXPECT_TRUE(hasTrickShot(prompt.shots));
}

TEST(PromptTest, ShotModesProduceExpectedCounts)
{
    EXPECT_EQ(canonicalShots(ShotMode::ZeroShot).size(), 0u);
    EXPECT_EQ(canonicalShots(ShotMode::OneShot).size(), 1u);
    EXPECT_EQ(canonicalShots(ShotMode::FewShot).size(), 3u);
}

TEST(MemoryTest, SlidingBufferEvictsIntoSummary)
{
    MemoryConfig cfg;
    cfg.buffer_turns = 2;
    ConversationMemory memory(cfg);
    memory.addTurn("q1", "a1");
    memory.addTurn("q2", "a2");
    memory.addTurn("q3", "a3");
    EXPECT_EQ(memory.recentTurns().size(), 2u);
    EXPECT_EQ(memory.recentTurns().front().user, "q2");
    EXPECT_NE(memory.summary().find("q1"), std::string::npos);
    EXPECT_EQ(memory.totalTurns(), 3u);
}

TEST(MemoryTest, VectorRecallFindsRelevantFacts)
{
    ConversationMemory memory;
    memory.noteFact("PC 0x4037aa has a 99% miss rate in mcf");
    memory.noteFact("the lbm grid is swept twice per iteration");
    memory.noteFact("astar hot sets are 332 and 1424");
    const auto recalled = memory.recall("miss rate of PC 0x4037aa");
    ASSERT_FALSE(recalled.empty());
    EXPECT_NE(recalled[0].find("0x4037aa"), std::string::npos);
}

TEST(MemoryTest, RenderContextListsSections)
{
    ConversationMemory memory;
    memory.addTurn("what is the miss rate", "42 percent");
    const auto text = memory.renderContext("miss rate");
    EXPECT_NE(text.find("[Recent turns]"), std::string::npos);
    EXPECT_NE(text.find("[Recalled facts]"), std::string::npos);
}

TEST(KnowledgeTest, TopicsResolveFromTriggers)
{
    const auto *topic =
        topicFor("How does increasing cache size affect miss rate?");
    ASSERT_NE(topic, nullptr);
    EXPECT_EQ(topic->id, "cache-size-scaling");
    EXPECT_GE(topic->points.size(), 4u);
    EXPECT_EQ(topicFor("what is your favourite colour"), nullptr);
}

// ---------------------- generator contracts (parameterized backends)

class GeneratorParamTest : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(GeneratorParamTest, AnswersAreDeterministic)
{
    retrieval::SieveRetriever sieve(sharedDb());
    const GeneratorLlm gen(GetParam());
    const auto gold = goldHitMiss();
    const auto bundle = retrieveText(sieve, sharedDb(), gold.question);
    const auto a = gen.answer(bundle);
    const auto b = gen.answer(bundle);
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.says_hit, b.says_hit);
    EXPECT_EQ(a.engaged, b.engaged);
}

TEST_P(GeneratorParamTest, GroundedHitMissUsesTheRow)
{
    retrieval::SieveRetriever sieve(sharedDb());
    const GeneratorLlm gen(GetParam());
    const auto gold = goldHitMiss();
    const auto bundle = retrieveText(sieve, sharedDb(), gold.question);
    const auto answer = gen.answer(bundle);
    ASSERT_TRUE(answer.says_hit.has_value());
    // The verdict may be a profile-gated misread, but the answer must
    // cite the retrieved tuple, proving it consulted the row.
    ASSERT_GE(answer.evidence.size(), 1u);
    EXPECT_NE(answer.text.find("Cache"), std::string::npos);
}

TEST_P(GeneratorParamTest, ExactCountsAreAlwaysReported)
{
    retrieval::RangerRetriever ranger(sharedDb());
    const GeneratorLlm gen(GetParam());
    const auto *expert = sharedDb().statsFor("mcf_evictions_lru");
    const auto stats = expert->pcStats(0x4037aa);
    const auto bundle = retrieveText(
        ranger, sharedDb(),
        "How many times did PC 0x4037aa appear in the mcf workload "
        "under LRU?");
    const auto answer = gen.answer(bundle);
    ASSERT_TRUE(answer.number.has_value());
    EXPECT_DOUBLE_EQ(*answer.number,
                     static_cast<double>(stats->accesses));
}

TEST_P(GeneratorParamTest, WindowCountsUndercount)
{
    retrieval::SieveRetriever sieve(sharedDb());
    const GeneratorLlm gen(GetParam());
    const auto *expert = sharedDb().statsFor("mcf_evictions_lru");
    const auto stats = expert->pcStats(0x4037aa);
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "How many times did PC 0x4037aa appear in the mcf workload "
        "under LRU?");
    const auto answer = gen.answer(bundle);
    ASSERT_TRUE(answer.number.has_value());
    // The §6.1 counting failure: the window count is far below truth.
    EXPECT_LT(*answer.number,
              static_cast<double>(stats->accesses) / 10.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, GeneratorParamTest,
    ::testing::ValuesIn(allBackends()),
    [](const ::testing::TestParamInfo<BackendKind> &info) {
        std::string name = backendName(info.param);
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(GeneratorTest, Gpt4oRejectsTrickPremise)
{
    retrieval::SieveRetriever sieve(sharedDb());
    const GeneratorLlm gen(BackendKind::Gpt4o);
    // lbm PC asked about mcf: invalid premise.
    const auto *entry = sharedDb().find("lbm_evictions_lru");
    std::uint64_t lbm_only = 0;
    for (const auto pc : entry->table.uniquePcs()) {
        if (!sharedDb().find("mcf_evictions_lru")->table.containsPc(pc)) {
            lbm_only = pc;
            break;
        }
    }
    ASSERT_NE(lbm_only, 0u);
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "Does the memory access with PC " + str::hex(lbm_only) +
        " and address 0x1b73be82e3f result in a cache hit or cache "
        "miss for the mcf workload and LRU replacement policy?");
    ASSERT_TRUE(bundle.premise_violation);
    const auto answer = gen.answer(bundle);
    EXPECT_TRUE(answer.rejected_premise);
    EXPECT_NE(answer.text.find("TRICK"), std::string::npos);
}

TEST(GeneratorTest, Gpt35AnswersTrickWithoutRejecting)
{
    retrieval::SieveRetriever sieve(sharedDb());
    const GeneratorLlm gen(BackendKind::Gpt35Turbo);
    const auto *entry = sharedDb().find("lbm_evictions_lru");
    std::uint64_t lbm_only = 0;
    for (const auto pc : entry->table.uniquePcs()) {
        if (!sharedDb().find("mcf_evictions_lru")->table.containsPc(pc)) {
            lbm_only = pc;
            break;
        }
    }
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "Does the memory access with PC " + str::hex(lbm_only) +
        " and address 0x1b73be82e3f result in a cache hit or cache "
        "miss for the mcf workload and LRU replacement policy?");
    const auto answer = gen.answer(bundle);
    // skepticism = 0: GPT-3.5 never rejects; it hallucinates.
    EXPECT_FALSE(answer.rejected_premise);
}

TEST(GeneratorTest, ConceptAnswerDrawsFromKnowledgeBase)
{
    retrieval::SieveRetriever sieve(sharedDb());
    const GeneratorLlm gen(BackendKind::Gpt4o);
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "How does increasing cache size affect miss rate? Compare "
        "increasing the number of sets vs the number of ways.");
    const auto answer = gen.answer(bundle);
    ASSERT_TRUE(answer.engaged);
    EXPECT_GE(answer.evidence.size(), 2u);
    EXPECT_NE(answer.text.find("conflict"), std::string::npos);
}

TEST(GeneratorTest, CodeGenEmitsPython)
{
    retrieval::SieveRetriever sieve(sharedDb());
    const GeneratorLlm gen(BackendKind::Gpt4o);
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "Write code to compute the number of cache hits for PC "
        "0x4037aa and address 0x1b73be82e3f in the mcf workload under "
        "LRU.");
    const auto answer = gen.answer(bundle);
    EXPECT_NE(answer.text.find("```python"), std::string::npos);
    EXPECT_NE(answer.text.find("loaded_data"), std::string::npos);
    EXPECT_NE(answer.text.find("0x4037aa"), std::string::npos);
}

TEST(GeneratorTest, FewShotCopyingRequiresLowQualityContext)
{
    retrieval::SieveRetriever sieve(sharedDb());
    const GeneratorLlm gen(BackendKind::Gpt35Turbo); // overreliant
    GenerationOptions opts;
    opts.shot_mode = ShotMode::OneShot;
    // High-quality context: no copying even for overreliant models.
    const auto gold = goldHitMiss();
    const auto good_bundle = retrieveText(sieve, sharedDb(), gold.question);
    const auto answer = gen.answer(good_bundle, opts);
    EXPECT_FALSE(answer.copied_example);
}

TEST(GeneratorTest, DisengagedAnswerIsMarked)
{
    // Force disengagement: a profile with zero coverage.
    retrieval::SieveRetriever sieve(sharedDb());
    const GeneratorLlm o3(BackendKind::O3);
    // Scan reasoning questions until one hits the coverage gap; with
    // coverage = 0.6 over many question keys this must happen.
    bool saw_disengaged = false;
    for (int i = 0; i < 40 && !saw_disengaged; ++i) {
        const auto bundle = retrieveText(
            sieve, sharedDb(),
            "Why does Belady outperform LRU on PC 0x4037aa in the mcf "
            "workload? (variant " + std::to_string(i) + ")");
        const auto answer = o3.answer(bundle);
        if (!answer.engaged) {
            saw_disengaged = true;
            EXPECT_FALSE(answer.text.empty());
        }
    }
    EXPECT_TRUE(saw_disengaged);
}
