/**
 * @file
 * Quickstart: build a small trace database, stand up a CacheMind
 * engine with the v2 fluent Builder, and ask trace-grounded questions
 * in natural language — one at a time, as a concurrent batch, and
 * once as a traced RequestContext whose per-stage span tree is
 * printed at the end.
 *
 *   $ ./example_quickstart
 */

#include <cstdio>

#include "core/cachemind.hh"
#include "db/builder.hh"
#include "obs/trace_export.hh"

using namespace cachemind;

int
main()
{
    // 1. Build the external database: simulate the mcf workload
    //    through the Table 2 hierarchy and annotate every LLC access
    //    under LRU and Belady's optimal policy.
    std::printf("Building trace database (mcf under LRU + Belady)"
                "...\n");
    db::BuildOptions options;
    options.workloads = {trace::WorkloadKind::Mcf};
    options.policies = {policy::PolicyKind::Lru,
                        policy::PolicyKind::Belady};
    options.accesses_override = 60000; // quick demo-sized trace
    const db::TraceDatabase database = db::buildDatabase(options);

    for (const auto &key : database.keys()) {
        std::printf("  %s: %zu rows\n", key.c_str(),
                    database.find(key)->table.size());
    }

    // 2. Create the engine: components are picked by registry name,
    //    and misconfiguration surfaces as a typed error instead of a
    //    silent default.
    auto engine = core::CacheMind::Builder(database)
                      .withRetriever("sieve")
                      .withBackend("gpt-4o")
                      .withShotMode(llm::ShotMode::ZeroShot)
                      .build()
                      .expect("building the CacheMind engine");

    // 3. Ask questions. Every answer is grounded in retrieved rows,
    //    statistics, and metadata from the database.
    const std::vector<std::string> questions = {
        "What is the miss rate for PC 0x4037aa in the mcf workload "
        "with LRU?",
        "Which policy has the lowest miss rate in the mcf workload?",
        "Why does Belady outperform LRU on PC 0x4037ba in the mcf "
        "workload?",
    };
    for (const auto &question : questions) {
        std::printf("\nQ: %s\n", question.c_str());
        auto result = engine.ask(question);
        if (!result.ok()) {
            std::printf("error: %s\n",
                        core::errorMessage(result.error()).c_str());
            continue;
        }
        const auto &response = result.value();
        std::printf("A: %s\n", response.text.c_str());
        std::printf("   [retriever=%s, trace=%s, %.2f ms]\n",
                    response.bundle.retriever.c_str(),
                    response.bundle.trace_key.c_str(),
                    response.bundle.retrieval_ms);
    }

    // 4. The same questions as one concurrent batch: answers are
    //    byte-identical to the sequential loop and keep their order.
    const auto batch = engine.askBatch(questions)
                           .expect("batched ask over the demo questions");
    std::printf("\n=== askBatch (%zu questions, up to %zu workers) "
                "===\n",
                batch.size(), engine.options().batch_workers);
    for (std::size_t i = 0; i < batch.size(); ++i)
        std::printf("A%zu: %.72s...\n", i, batch[i].text.c_str());

    const auto stats = engine.stats();
    std::printf("\nEngine stats: %llu questions, %llu batch(es), "
                "%.0f%% high-quality retrieval, p50=%.2f ms "
                "p99=%.2f ms\n",
                static_cast<unsigned long long>(stats.questions),
                static_cast<unsigned long long>(stats.batches),
                100.0 * stats.highQualityFraction(),
                stats.latency_ms.percentile(50.0),
                stats.latency_ms.percentile(99.0));
    // The batch re-asked the three sequential questions, so the
    // shared cross-question retrieval cache served their evidence
    // bundles without re-running retrieval.
    std::printf("Retrieval cache: %llu hits / %llu misses "
                "(%.0f%% hit rate)\n",
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.misses),
                100.0 * stats.cache.hitRate());

    // 5. The unified request surface: a RequestContext bundles the
    //    question, per-call options, a correlation id, and (with
    //    traced()) a per-stage span tree. The answer is byte-
    //    identical to the untraced ask — tracing never changes
    //    results, only records where the time went.
    core::RequestContext ctx(questions[0]);
    ctx.withRequestId("quickstart-1").traced();
    const auto traced = engine.ask(ctx).expect("traced ask");
    std::printf("\n=== traced ask (request_id=quickstart-1) ===\n");
    std::printf("A: %.72s...\n%s", traced.text.c_str(),
                obs::toText(*ctx.trace).c_str());
    return 0;
}
