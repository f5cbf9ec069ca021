/**
 * @file
 * Run CacheMindBench against a custom backend profile: shows how a
 * downstream user would plug a new "LLM" (here: a hypothetical
 * profile) into the evaluation harness and read per-category scores.
 *
 *   $ ./example_benchmark_your_llm
 */

#include <cstdio>

#include "benchsuite/generator.hh"
#include "benchsuite/harness.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"

using namespace cachemind;

int
main()
{
    std::printf("Building trace database...\n");
    db::BuildOptions options;
    options.workloads = {trace::WorkloadKind::Astar,
                         trace::WorkloadKind::Mcf};
    // Full-length traces: the question generator needs enough PC
    // diversity (Belady-vs-LRU gaps with >= 100 accesses) to fill
    // every category of even a reduced suite.
    const auto database = db::buildDatabase(options);

    // A reduced suite keeps the demo quick.
    benchsuite::SuiteComposition comp;
    comp.hit_miss = 10;
    comp.miss_rate = 5;
    comp.policy_comparison = 5;
    comp.count = 3;
    comp.arithmetic = 5;
    comp.trick = 2;
    comp.concepts = 3;
    comp.code_gen = 2;
    comp.policy_analysis = 2;
    comp.workload_analysis = 2;
    comp.semantic_analysis = 2;
    const benchsuite::BenchGenerator generator(database, 0x5eedULL,
                                               comp);
    const benchsuite::EvalHarness harness(generator.generate());
    std::printf("Suite: %zu questions.\n\n", harness.suite().size());

    // Engines are assembled by registry name; the whole suite runs
    // through the engine's batched ask() on its worker pool.
    for (const char *retriever_name : {"sieve", "ranger"}) {
        auto engine = core::CacheMind::Builder(database)
                          .withRetriever(retriever_name)
                          .withBackend("gpt-4o-mini")
                          .withBatchWorkers(4)
                          .build()
                          .expect("building the benchmark engine");
        const auto result = harness.evaluate(engine);
        std::printf("=== %s + GPT-4o-mini ===\n", retriever_name);
        for (const auto &[cat, score] : result.by_category) {
            std::printf("  %-28s %5.1f%% (%zu questions)\n",
                        benchsuite::categoryName(cat), score.pct(),
                        score.questions);
        }
        std::printf("  %-28s %5.1f%%\n", "weighted total",
                    result.weightedTotalPct());
        const auto stats = engine.stats();
        std::printf("  served %llu questions, p99 latency %.2f ms\n",
                    static_cast<unsigned long long>(stats.questions),
                    stats.latency_ms.percentile(99.0));
    }
    return 0;
}
