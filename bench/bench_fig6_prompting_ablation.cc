/**
 * @file
 * E5 (Figure 6 + §6.1 "One and Few-shot Prompting"): zero- vs one- vs
 * few-shot prompting for every backend (Sieve retrieval), plus the
 * rendered one-shot prompt itself.
 *
 * Expected shape (paper): overall accuracy barely moves; trick
 * questions improve with shots (the examples demonstrate premise
 * rejection); weak models with poor retrieval sometimes adopt the
 * example's context as their own and lose accuracy.
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

    // Show the canonical one-shot prompt (Figure 6).
    {
        llm::Prompt prompt;
        prompt.system = llm::defaultSystemPrompt();
        prompt.shots = llm::canonicalShots(llm::ShotMode::OneShot);
        prompt.context = "(retrieved context for the actual question)";
        prompt.question =
            "Does the memory access with PC 0x401dc9 and address "
            "0x47ea85d37f result in a cache hit or cache miss for the "
            "lbm workload and PARROT replacement policy?";
        std::printf("\n=== Figure 6: one-shot prompt ===\n%s\n",
                    prompt.render().c_str());
    }

    const llm::ShotMode modes[] = {llm::ShotMode::ZeroShot,
                                   llm::ShotMode::OneShot,
                                   llm::ShotMode::FewShot};

    // 15 Builder-configured engines (5 backends x 3 shot modes) share
    // one bundle cache: prompting changes generation, never
    // retrieval, so every engine after the first serves its evidence
    // from the shared cache.
    auto shared_cache = std::make_shared<retrieval::RetrievalCache>(
        retrieval::RetrievalCache::Options{1 << 14});

    std::printf("\n=== Prompting ablation (weighted total / trick "
                "accuracy) ===\n");
    std::printf("%-18s", "Backend");
    for (const auto mode : modes)
        std::printf(" %22s", llm::shotModeName(mode));
    std::printf("\n");
    for (const auto backend : llm::allBackends()) {
        std::printf("%-18s", llm::backendName(backend));
        for (const auto mode : modes) {
            auto engine = core::CacheMind::Builder(database)
                              .withRetriever("sieve")
                              .withBackend(llm::backendKey(backend))
                              .withShotMode(mode)
                              .withBatchWorkers(4)
                              .withSharedRetrievalCache(shared_cache)
                              .build()
                              .expect("building a Figure 6 engine");
            const auto res = harness.evaluate(engine);
            const auto trick = res.by_category.at(
                benchsuite::Category::TrickQuestion);
            std::printf("      %5.1f%% / %5.1f%%", res.weightedTotalPct(),
                        trick.pct());
        }
        std::printf("\n");
    }
    const auto cache_counters = shared_cache->counters();
    std::printf("\nShared cross-engine bundle cache: %llu hits / %llu "
                "misses across the 15-engine sweep.\n",
                static_cast<unsigned long long>(cache_counters.hits),
                static_cast<unsigned long long>(cache_counters.misses));
    std::printf("Shots barely move the totals but improve trick "
                "rejection; context-overreliant models can copy the "
                "example's context when retrieval is poor.\n");
    return 0;
}
