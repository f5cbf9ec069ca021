/**
 * @file
 * Tests for the v2 component registries: built-in self-registration,
 * plugging in custom retrievers/backends by name, duplicate-name
 * rejection, and typed Builder errors for unknown names.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "base/str.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "llm/registry.hh"
#include "retrieval/registry.hh"
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
        options.policies = {policy::PolicyKind::Lru};
        options.accesses_override = 30000;
        return db::buildDatabase(options);
    }();
    return database;
}

bool
contains(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

/**
 * Trivial custom retriever: echoes the question as its result text,
 * streamed as one "echo" evidence section.
 */
class EchoRetriever : public retrieval::Retriever
{
  public:
    const char *name() const override { return "echo-test"; }

    retrieval::ContextBundle
    retrieveParsed(const query::ParsedQuery &parsed,
                   retrieval::EvidenceSink &sink) override
    {
        retrieval::ContextBundle bundle;
        bundle.retriever = name();
        bundle.result_text = "echo: " + parsed.raw;
        if (sink.active())
            sink.emit("echo", bundle.result_text);
        return bundle;
    }
};

/** Register the custom components exactly once per process. */
void
registerCustomComponents()
{
    static const bool done = [] {
        retrieval::RetrieverRegistry::instance().add(
            "echo-test", [](const db::ShardSet &) {
                return std::make_unique<EchoRetriever>();
            });
        llm::CapabilityProfile perfect;
        perfect.name = "perfect-llm";
        perfect.lookup = perfect.rate_calc = perfect.comparison = 1.0;
        perfect.arithmetic = perfect.skepticism = 1.0;
        perfect.concept_knowledge = perfect.codegen = 1.0;
        perfect.causal = perfect.synthesis = perfect.semantic = 1.0;
        perfect.coverage = 1.0;
        perfect.context_overreliance = 0.0;
        llm::BackendRegistry::instance().add("perfect-llm", [perfect] {
            return std::make_unique<llm::GeneratorLlm>("perfect-llm",
                                                       perfect);
        });
        return true;
    }();
    (void)done;
}

} // namespace

TEST(RetrieverRegistryTest, BuiltinsSelfRegister)
{
    auto &registry = retrieval::RetrieverRegistry::instance();
    EXPECT_TRUE(registry.has("sieve"));
    EXPECT_TRUE(registry.has("ranger"));
    EXPECT_TRUE(registry.has("llamaindex"));
    const auto names = registry.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_TRUE(contains(names, "sieve"));
}

TEST(RetrieverRegistryTest, LookupIsCaseInsensitive)
{
    auto &registry = retrieval::RetrieverRegistry::instance();
    EXPECT_TRUE(registry.has(" Sieve "));
    auto retriever = registry.create("RANGER", sharedDb());
    ASSERT_NE(retriever, nullptr);
    EXPECT_STREQ(retriever->name(), "ranger");
}

TEST(RetrieverRegistryTest, DuplicateNameRejected)
{
    auto &registry = retrieval::RetrieverRegistry::instance();
    const bool added = registry.add(
        "sieve", [](const db::ShardSet &) {
            return std::make_unique<EchoRetriever>();
        });
    EXPECT_FALSE(added);
    // The original factory is untouched.
    auto retriever = registry.create("sieve", sharedDb());
    ASSERT_NE(retriever, nullptr);
    EXPECT_STREQ(retriever->name(), "sieve");
}

TEST(RetrieverRegistryTest, CustomRetrieverPlugsIntoEngine)
{
    registerCustomComponents();
    auto engine = CacheMind::Builder(sharedDb())
                      .withRetriever("echo-test")
                      .build()
                      .expect("echo engine");
    EXPECT_STREQ(engine.retriever().name(), "echo-test");
    auto response = engine.ask("Any question at all?").expect("ask");
    EXPECT_EQ(response.bundle.retriever, "echo-test");
    EXPECT_NE(response.bundle.result_text.find("echo: Any question"),
              std::string::npos);
}

TEST(RetrieverRegistryTest, CustomRetrieverStreamsWhatItEmits)
{
    // A custom retriever implements only retrieveParsed(parsed, sink):
    // its stream carries exactly the sections it emits, and Done is
    // byte-identical to a blocking ask.
    registerCustomComponents();
    auto engine = CacheMind::Builder(sharedDb())
                      .withRetriever("echo-test")
                      .build()
                      .expect("echo engine");
    const std::string question = "Any question at all?";
    const auto want = engine.ask(question).expect("ask");

    auto stream = engine.askStream(question).expect("askStream");
    std::vector<std::pair<std::string, std::string>> chunks;
    std::shared_ptr<const Response> got;
    while (auto event = stream.next()) {
        if (event->kind == StreamEvent::Kind::EvidenceChunk)
            chunks.emplace_back(event->label, event->text);
        if (event->kind == StreamEvent::Kind::Done)
            got = event->response;
    }
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->text, want.text);
    EXPECT_EQ(got->bundle.render(), want.bundle.render());
    EXPECT_EQ(got->answer.text, want.answer.text);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].first, "echo");
    EXPECT_EQ(chunks[0].second, "echo: " + question);
}

TEST(RetrieverRegistryTest, CreateAcceptsShardSubsetView)
{
    auto &registry = retrieval::RetrieverRegistry::instance();
    // Factories take a shard view, so a retriever can be scoped to a
    // subset (here one workload's shards) instead of a whole database.
    const db::ShardSet subset =
        sharedDb().shards().forWorkload("astar");
    ASSERT_FALSE(subset.empty());
    auto retriever = registry.create("sieve", subset);
    ASSERT_NE(retriever, nullptr);
    const auto bundle = retrieveText(
        *retriever, subset,
        "What is the miss rate in the astar workload under LRU?");
    EXPECT_EQ(bundle.trace_key, "astar_evictions_lru");
}

TEST(BackendRegistryTest, BuiltinsSelfRegister)
{
    auto &registry = llm::BackendRegistry::instance();
    for (const auto kind : llm::allBackends())
        EXPECT_TRUE(registry.has(llm::backendKey(kind)))
            << llm::backendKey(kind);
}

TEST(BackendRegistryTest, DuplicateNameRejected)
{
    auto &registry = llm::BackendRegistry::instance();
    const bool added = registry.add("gpt-4o", [] {
        return std::make_unique<llm::GeneratorLlm>(
            llm::BackendKind::Gpt35Turbo);
    });
    EXPECT_FALSE(added);
    auto generator = registry.create("gpt-4o");
    ASSERT_NE(generator, nullptr);
    EXPECT_EQ(generator->name(), "gpt-4o");
}

TEST(BackendRegistryTest, CustomBackendPlugsIntoEngine)
{
    registerCustomComponents();
    auto engine = CacheMind::Builder(sharedDb())
                      .withBackend("perfect-llm")
                      .build()
                      .expect("perfect-llm engine");
    EXPECT_EQ(engine.generator().name(), "perfect-llm");
    EXPECT_EQ(engine.generator().profile().lookup, 1.0);
    const auto *entry = sharedDb().find("astar_evictions_lru");
    auto response = engine.ask(
        "What is the miss rate for PC " +
        str::hex(entry->table.pcAt(0)) +
        " in the astar workload with LRU?");
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response.value().answer.number.has_value());
}

TEST(BuilderTest, UnknownRetrieverIsTypedError)
{
    auto result = CacheMind::Builder(sharedDb())
                      .withRetriever("no-such-retriever")
                      .build();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, EngineErrorCode::UnknownRetriever);
    // The message names the registered alternatives.
    EXPECT_NE(result.error().message.find("sieve"), std::string::npos);
    EXPECT_NE(errorMessage(result.error()).find("unknown-retriever"),
              std::string::npos);
}

TEST(BuilderTest, UnknownBackendIsTypedError)
{
    auto result = CacheMind::Builder(sharedDb())
                      .withBackend("no-such-backend")
                      .build();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, EngineErrorCode::UnknownBackend);
    EXPECT_NE(result.error().message.find("gpt-4o"), std::string::npos);
}

TEST(BuilderTest, ZeroBatchWorkersIsTypedError)
{
    auto result = CacheMind::Builder(sharedDb())
                      .withBatchWorkers(0)
                      .build();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, EngineErrorCode::InvalidOptions);
}
