/**
 * @file
 * E6 (Figure 7): distribution of reasoning-tier rubric scores (0-5)
 * per backend with CacheMind-Sieve.
 *
 * Each backend is a Builder-configured Sieve engine evaluated through
 * askBatch, the same path serving uses. Retrieval does not depend on
 * the backend, so the five engines share one bundle cache and every
 * backend after the first retrieves for free.
 *
 * Expected shape (paper): o3 is bimodal — mass at 0 (disengaged) and
 * at 4-5 (engaged and strong) — while GPT-4o is consistently
 * competent (mass concentrated at 3-5) and GPT-3.5-Turbo / the
 * fine-tuned 4o-mini spread lower.
 */

#include <cstdio>
#include <memory>

#include "benchsuite/generator.hh"
#include "benchsuite/harness.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "retrieval/cache.hh"

using namespace cachemind;

int
main()
{
    std::printf("Building trace database...\n");
    const auto database = db::buildDatabase();
    const benchsuite::BenchGenerator generator(database);
    const benchsuite::EvalHarness harness(generator.generate());

    std::printf("\n=== Figure 7: ARA rubric score distribution "
                "(25 questions each) ===\n");
    std::printf("%-18s %6s %6s %6s %6s %6s %6s\n", "Backend", "0", "1",
                "2", "3", "4", "5");
    auto shared_cache = std::make_shared<retrieval::RetrievalCache>(
        retrieval::RetrievalCache::Options{1 << 14});
    for (const auto backend : llm::allBackends()) {
        auto engine = core::CacheMind::Builder(database)
                          .withRetriever("sieve")
                          .withBackend(llm::backendKey(backend))
                          .withSharedRetrievalCache(shared_cache)
                          .build()
                          .expect("building the Figure 7 engine");
        const auto res = harness.evaluate(engine);
        const auto hist = res.araScoreHistogram();
        std::printf("%-18s", llm::backendName(backend));
        for (const auto count : hist)
            std::printf(" %6zu", count);
        std::printf("\n");
    }
    std::printf("\nBimodality check: o3 concentrates at 0 and 4-5; "
                "GPT-4o has little mass below 3.\n");
    return 0;
}
