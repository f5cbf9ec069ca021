/**
 * @file
 * E7 (Figure 8): CacheMind-Sieve vs CacheMind-Ranger across the
 * trace-grounded categories (GPT-4o generator), plus the tier totals.
 *
 * Both retrievers run as Builder-configured engines evaluated through
 * askBatch, the same path serving uses; tests/paper_claims_test.cc
 * pins these numbers and the crossover.
 *
 * Expected shape (paper): Ranger ~89% vs Sieve ~67% on the
 * trace-grounded tier — Ranger executes programs over the full table,
 * so Count and Arithmetic flip from near-zero to near-perfect — while
 * the reasoning tier *crosses over* (Sieve ~85% vs Ranger ~65%):
 * Ranger's narrow computed results lack the descriptions, metadata,
 * and disassembly the reasoning rubric rewards.
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
    const auto database = db::buildDatabase();
    const benchsuite::BenchGenerator generator(database);
    const benchsuite::EvalHarness harness(generator.generate());

    const auto evaluate = [&](const char *retriever) {
        auto engine = core::CacheMind::Builder(database)
                          .withRetriever(retriever)
                          .withBackend("gpt-4o")
                          .build()
                          .expect("building the Figure 8 engine");
        return harness.evaluate(engine);
    };
    const auto res_sieve = evaluate("sieve");
    const auto res_ranger = evaluate("ranger");

    std::printf("\n=== Figure 8: retriever comparison (GPT-4o "
                "generator) ===\n");
    std::printf("%-28s %16s %16s\n", "Category", "CacheMind-Sieve",
                "CacheMind-Ranger");
    for (const auto cat : benchsuite::allCategories()) {
        if (!benchsuite::isTraceGrounded(cat))
            continue;
        const auto s = res_sieve.by_category.at(cat);
        const auto r = res_ranger.by_category.at(cat);
        std::printf("%-28s %15.1f%% %15.1f%%\n",
                    benchsuite::categoryName(cat), s.pct(), r.pct());
    }
    std::printf("%-28s %15.1f%% %15.1f%%\n", "TG total (75q)",
                res_sieve.tgPct(), res_ranger.tgPct());
    std::printf("%-28s %15.1f%% %15.1f%%\n", "ARA total (25q)",
                res_sieve.araPct(), res_ranger.araPct());
    std::printf("\nCrossover check: Ranger wins trace-grounded "
                "retrieval (%.1f%% vs %.1f%%), Sieve wins the "
                "reasoning tier (%.1f%% vs %.1f%%).\n",
                res_ranger.tgPct(), res_sieve.tgPct(),
                res_sieve.araPct(), res_ranger.araPct());
    return 0;
}
