/**
 * @file
 * Tests for the retrievers: Sieve's symbolic filtering, premise
 * checks, and evidence windows; Ranger's planning, execution, and
 * exact counting; the LlamaIndex baseline's characteristic failure;
 * cross-retriever properties (parameterized); and the tiered
 * cross-question RetrievalCache (LRU hot-tier eviction order, exact
 * capacity, secondary-tier demotion/promotion, codec round trips,
 * single-flight under a multi-thread hammer, cache-key discipline).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "base/random.hh"
#include "base/str.hh"
#include "db/builder.hh"
#include "query/parser.hh"
#include "retrieval/bundle_codec.hh"
#include "retrieval/cache.hh"
#include "retrieval/hot_tier.hh"
#include "retrieval/llamaindex.hh"
#include "retrieval/ranger.hh"
#include "retrieval/secondary_tier.hh"
#include "retrieval/sieve.hh"
#include "retrieve_text.hh"

using namespace cachemind;
using namespace cachemind::retrieval;

namespace {

const db::TraceDatabase &
sharedDb()
{
    static const db::TraceDatabase database = [] {
        db::BuildOptions options;
        options.workloads = {trace::WorkloadKind::Mcf,
                             trace::WorkloadKind::Astar};
        options.policies = {policy::PolicyKind::Lru,
                            policy::PolicyKind::Belady};
        options.accesses_override = 50000;
        return db::buildDatabase(options);
    }();
    return database;
}

/** First (pc, address, hit) triple of a trace for exact queries. */
struct KnownAccess
{
    std::uint64_t pc;
    std::uint64_t address;
    bool is_miss;
};

KnownAccess
knownAccess(const std::string &key, std::size_t row = 0)
{
    const auto *entry = sharedDb().find(key);
    return KnownAccess{entry->table.pcAt(row),
                       entry->table.addressAt(row),
                       entry->table.isMissAt(row)};
}

} // namespace

TEST(SieveTest, ExactTupleRetrievesMatchingRows)
{
    SieveRetriever sieve(sharedDb());
    const auto known = knownAccess("mcf_evictions_lru");
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "Does the memory access with PC " + str::hex(known.pc) +
        " and address " + str::hex(known.address) +
        " result in a cache hit or cache miss for the mcf workload "
        "and LRU replacement policy?");
    EXPECT_EQ(bundle.trace_key, "mcf_evictions_lru");
    ASSERT_FALSE(bundle.rows.empty());
    EXPECT_EQ(bundle.rows[0].program_counter, known.pc);
    EXPECT_EQ(bundle.rows[0].memory_address, known.address);
    EXPECT_EQ(bundle.rows[0].is_miss, known.is_miss);
    EXPECT_FALSE(bundle.premise_violation);
    EXPECT_EQ(assessQuality(bundle), ContextQuality::High);
}

TEST(SieveTest, EvidenceWindowIsBounded)
{
    SieveConfig cfg;
    cfg.evidence_window = 3;
    SieveRetriever sieve(sharedDb(), cfg);
    // The arc-scan PC has tens of thousands of rows.
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "What is the miss rate for PC 0x4037aa in the mcf workload "
        "with LRU?");
    EXPECT_LE(bundle.rows.size(), 3u);
    EXPECT_FALSE(bundle.total_is_exact); // Sieve cannot count
}

TEST(SieveTest, CrossWorkloadPremiseViolationDetected)
{
    SieveRetriever sieve(sharedDb());
    // astar's queue PC does not exist in mcf.
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "Does the memory access with PC 0x409538 and address "
        "0x1b73be82e3f result in a cache hit or cache miss for the "
        "mcf workload and LRU replacement policy?");
    EXPECT_TRUE(bundle.premise_violation);
    EXPECT_NE(bundle.premise_note.find("0x409538"), std::string::npos);
    EXPECT_NE(bundle.premise_note.find("astar"), std::string::npos);
    EXPECT_EQ(assessQuality(bundle), ContextQuality::High);
}

TEST(SieveTest, UnresolvedWorkloadYieldsLowQuality)
{
    SieveRetriever sieve(sharedDb());
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "What is the miss rate for PC 0x400512 in the gzip workload "
        "under LRU?");
    EXPECT_TRUE(bundle.trace_key.empty());
    EXPECT_EQ(assessQuality(bundle), ContextQuality::Low);
}

TEST(SieveTest, PolicyComparisonGathersAllPolicies)
{
    SieveRetriever sieve(sharedDb());
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "Which policy has the lowest miss rate in the mcf workload?");
    ASSERT_EQ(bundle.policy_numbers.size(), 2u); // lru + belady
    EXPECT_NE(bundle.policy_numbers[0].policy,
              bundle.policy_numbers[1].policy);
}

TEST(SieveTest, ExplainBundleIsRich)
{
    SieveRetriever sieve(sharedDb());
    const auto known = knownAccess("mcf_evictions_lru");
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "Why does Belady outperform LRU on PC " + str::hex(known.pc) +
        " in the mcf workload?");
    EXPECT_FALSE(bundle.metadata.empty());
    EXPECT_FALSE(bundle.workload_description.empty());
    EXPECT_FALSE(bundle.assembly.empty());
    EXPECT_TRUE(bundle.pc_stats.has_value());
    EXPECT_GE(bundle.policy_numbers.size(), 2u);
}

TEST(SieveTest, SetStatsQueriesReturnHotAndCold)
{
    SieveRetriever sieve(sharedDb());
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "Identify 5 hot and 5 cold sets by hit rate for the astar "
        "workload under LRU.");
    EXPECT_EQ(bundle.set_stats.size(), 10u);
}

TEST(RangerTest, GeneratesCodeAndComputesExactCount)
{
    RangerRetriever ranger(sharedDb());
    const auto *expert = sharedDb().statsFor("mcf_evictions_lru");
    const auto stats = expert->pcStats(0x4037aa);
    ASSERT_TRUE(stats.has_value());

    const auto bundle = retrieveText(
        ranger, sharedDb(),
        "How many times did PC 0x4037aa appear in the mcf workload "
        "under LRU?");
    EXPECT_TRUE(bundle.total_is_exact);
    EXPECT_EQ(bundle.total_matches, stats->accesses);
    EXPECT_NE(bundle.generated_code.find("mcf_evictions_lru"),
              std::string::npos);
    EXPECT_NE(bundle.generated_code.find("0x4037aa"),
              std::string::npos);
}

TEST(RangerTest, ArithmeticUsesExecutedProgram)
{
    RangerRetriever ranger(sharedDb());
    const auto bundle = retrieveText(
        ranger, sharedDb(),
        "What is the average evicted reuse distance of PC 0x4037aa "
        "for the mcf workload with LRU?");
    ASSERT_TRUE(bundle.computed.has_value());
    EXPECT_GT(*bundle.computed, 0.0);
}

TEST(RangerTest, PremiseDetectionOnEmptyExactMatch)
{
    RangerRetriever ranger(sharedDb());
    const auto bundle = retrieveText(
        ranger, sharedDb(),
        "Does the memory access with PC 0x409538 and address "
        "0x1b73be82e3f result in a cache hit or cache miss for the "
        "mcf workload and LRU replacement policy?");
    EXPECT_TRUE(bundle.premise_violation);
}

TEST(RangerTest, LowFidelityCorruptsPrograms)
{
    RangerConfig cfg;
    cfg.codegen_fidelity = 0.0; // always mis-generate
    RangerRetriever ranger(sharedDb(), cfg);
    const auto bundle = retrieveText(
        ranger, sharedDb(),
        "What is the average evicted reuse distance of PC 0x4037aa "
        "for the mcf workload with LRU?");
    // The corrupted program still runs but computes something else;
    // compare against the faithful value.
    RangerRetriever faithful(sharedDb());
    const auto good = retrieveText(
        faithful, sharedDb(),
        "What is the average evicted reuse distance of PC 0x4037aa "
        "for the mcf workload with LRU?");
    ASSERT_TRUE(good.computed.has_value());
    if (bundle.computed.has_value())
        EXPECT_NE(*bundle.computed, *good.computed);
}

TEST(RangerTest, ExplainBundleIsNarrow)
{
    RangerRetriever ranger(sharedDb());
    const auto known = knownAccess("mcf_evictions_lru");
    const auto bundle = retrieveText(
        ranger, sharedDb(),
        "Why does Belady outperform LRU on PC " + str::hex(known.pc) +
        " in the mcf workload?");
    // The §6.2 crossover mechanism: no descriptive context.
    EXPECT_TRUE(bundle.workload_description.empty());
    EXPECT_TRUE(bundle.assembly.empty());
    EXPECT_FALSE(bundle.pc_stats.has_value());
}

TEST(LlamaIndexTest, RetrievesPlausibleButImpreciseChunks)
{
    LlamaIndexConfig cfg;
    cfg.row_stride = 64; // keep the test fast
    LlamaIndexRetriever llama(sharedDb(), cfg);
    EXPECT_GT(llama.indexedChunks(), 100u);

    const auto known = knownAccess("mcf_evictions_lru", 5);
    const auto bundle = retrieveText(
        llama, sharedDb(),
        "Does the memory access with PC " + str::hex(known.pc) +
        " and address " + str::hex(known.address) +
        " result in a cache hit or cache miss for the mcf workload "
        "and LRU replacement policy?");
    // Dense retrieval returns *some* chunks but no structured rows.
    EXPECT_FALSE(bundle.result_text.empty());
    EXPECT_TRUE(bundle.rows.empty());
    EXPECT_FALSE(bundle.total_is_exact);
}

// ------------------------- cross-retriever parameterized properties

class RetrieverParamTest : public ::testing::TestWithParam<const char *>
{
  protected:
    std::unique_ptr<Retriever>
    make() const
    {
        const std::string which = GetParam();
        if (which == "sieve")
            return std::make_unique<SieveRetriever>(sharedDb());
        if (which == "ranger")
            return std::make_unique<RangerRetriever>(sharedDb());
        LlamaIndexConfig cfg;
        cfg.row_stride = 128;
        return std::make_unique<LlamaIndexRetriever>(sharedDb(), cfg);
    }
};

TEST_P(RetrieverParamTest, RetrievalIsDeterministic)
{
    auto r1 = make();
    auto r2 = make();
    const std::string q =
        "What is the miss rate for PC 0x4037aa in the mcf workload "
        "with LRU?";
    const auto a = retrieveText(*r1, sharedDb(), q);
    const auto b = retrieveText(*r2, sharedDb(), q);
    EXPECT_EQ(a.trace_key, b.trace_key);
    EXPECT_EQ(a.rows.size(), b.rows.size());
    EXPECT_EQ(a.result_text, b.result_text);
    EXPECT_EQ(a.computed.has_value(), b.computed.has_value());
}

TEST_P(RetrieverParamTest, RendersNonEmptyContext)
{
    auto retriever = make();
    const auto bundle = retrieveText(
        *retriever, sharedDb(),
        "Which policy has the lowest miss rate in the mcf workload?");
    EXPECT_FALSE(bundle.render().empty());
    EXPECT_EQ(bundle.retriever, std::string(GetParam()));
    EXPECT_GE(bundle.retrieval_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllRetrievers, RetrieverParamTest,
                         ::testing::Values("sieve", "ranger",
                                           "llamaindex"));

TEST(ContextBundleTest, RenderContainsKeySections)
{
    SieveRetriever sieve(sharedDb());
    const auto known = knownAccess("mcf_evictions_lru");
    const auto bundle = retrieveText(
        sieve, sharedDb(),
        "Does the memory access with PC " + str::hex(known.pc) +
        " and address " + str::hex(known.address) +
        " result in a cache hit or cache miss for the mcf workload "
        "and LRU replacement policy?");
    const auto text = bundle.render();
    EXPECT_NE(text.find("[Trace] mcf_evictions_lru"),
              std::string::npos);
    EXPECT_NE(text.find("[Trace slice]"), std::string::npos);
    EXPECT_NE(text.find(str::hex(known.pc)), std::string::npos);
}

TEST(ContextQualityTest, NamesAreStable)
{
    EXPECT_STREQ(contextQualityName(ContextQuality::Low), "Low");
    EXPECT_STREQ(contextQualityName(ContextQuality::Medium), "Medium");
    EXPECT_STREQ(contextQualityName(ContextQuality::High), "High");
}

// ------------------------------------ staged-pipeline entry points

namespace {

query::NlQueryParser
sharedParser()
{
    return query::NlQueryParser(sharedDb().workloads(),
                                sharedDb().policies());
}

/** A payload-free bundle tagged so tests can tell bundles apart. */
RetrievalCache::BundlePtr
taggedBundle(const std::string &tag)
{
    auto bundle = std::make_shared<ContextBundle>();
    bundle->result_text = tag;
    return bundle;
}

} // namespace

TEST(CacheKeyTest, SieveSharesAcrossPhrasingsOfTheSameSlots)
{
    SieveRetriever sieve(sharedDb());
    const auto parser = sharedParser();
    const auto a = parser.parse(
        "What is the miss rate for PC 0x4037aa in the mcf workload "
        "with LRU?");
    const auto b = parser.parse(
        "For the mcf workload under LRU, what miss rate does PC "
        "0x4037aa have?");
    ASSERT_EQ(a.slotKey(), b.slotKey());
    EXPECT_EQ(sieve.cacheKey(a), sieve.cacheKey(b));
    EXPECT_FALSE(sieve.cacheKey(a).empty());

    // Different slots must never alias.
    const auto c = parser.parse(
        "What is the miss rate for PC 0x4037ab in the mcf workload "
        "with LRU?");
    EXPECT_NE(sieve.cacheKey(a), sieve.cacheKey(c));
}

TEST(CacheKeyTest, ConfigChangesTheFingerprint)
{
    SieveRetriever stock(sharedDb());
    SieveConfig tuned_cfg;
    tuned_cfg.evidence_window = 3;
    SieveRetriever tuned(sharedDb(), tuned_cfg);
    // A differently tuned retriever assembles different evidence for
    // the same slots; the fingerprints must keep them apart.
    EXPECT_NE(stock.cacheFingerprint(), tuned.cacheFingerprint());

    RangerRetriever faithful(sharedDb());
    RangerConfig low_cfg;
    low_cfg.codegen_fidelity = 0.5;
    RangerRetriever low(sharedDb(), low_cfg);
    EXPECT_NE(faithful.cacheFingerprint(), low.cacheFingerprint());
}

TEST(CacheKeyTest, RawDependentRetrieversKeyOnRawText)
{
    const auto parser = sharedParser();
    const auto a = parser.parse(
        "What is the miss rate for PC 0x4037aa in the mcf workload "
        "with LRU?");
    const auto b = parser.parse(
        "For the mcf workload under LRU, what miss rate does PC "
        "0x4037aa have?");
    ASSERT_EQ(a.slotKey(), b.slotKey());

    // Dense retrieval embeds the raw text: paraphrases never share.
    LlamaIndexConfig llama_cfg;
    llama_cfg.row_stride = 128;
    LlamaIndexRetriever llama(sharedDb(), llama_cfg);
    EXPECT_NE(llama.cacheKey(a), llama.cacheKey(b));

    // Ranger below full fidelity keys its mis-generation draws on the
    // raw text, so slot-equal paraphrases must not share either.
    RangerConfig low_cfg;
    low_cfg.codegen_fidelity = 0.5;
    RangerRetriever low(sharedDb(), low_cfg);
    EXPECT_NE(low.cacheKey(a), low.cacheKey(b));
    RangerRetriever faithful(sharedDb());
    EXPECT_EQ(faithful.cacheKey(a), faithful.cacheKey(b));
}

// --------------------------------------------- RetrievalCache unit

TEST(RetrievalCacheTest, HitReturnsTheSharedBundle)
{
    RetrievalCache cache(RetrievalCache::Options{/*capacity=*/8});
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return taggedBundle("v");
    };
    const auto first = cache.getOrCompute("k", compute);
    RetrievalCache::Outcome outcome;
    const auto second = cache.getOrCompute("k", compute, &outcome);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(first.get(), second.get()); // the same immutable bundle
    EXPECT_TRUE(outcome.hit);
    const auto counters = cache.counters();
    EXPECT_EQ(counters.hits, 1u);
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.evictions, 0u);
}

TEST(RetrievalCacheTest, LruHotTierEvictsLeastRecentlyUsed)
{
    // LRU order at the tier level: a hit makes the key the most
    // recent, so inserts past capacity evict exactly the keys that
    // went longest without one, oldest first.
    HotTier lru(/*capacity=*/3);
    for (const char *key : {"a", "b", "c"})
        EXPECT_TRUE(lru.insert(key, taggedBundle(key)).empty());
    ASSERT_TRUE(lru.lookup("a"));
    const auto first = lru.insert("d", taggedBundle("d"));
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].key, "b");
    EXPECT_EQ(first[0].value->result_text, "b");
    const auto second = lru.insert("e", taggedBundle("e"));
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].key, "c");
    EXPECT_TRUE(lru.lookup("a"));

    HotTier tier(/*capacity=*/2);
    EXPECT_EQ(tier.insert("a", taggedBundle("a")).size(), 0u);
    for (int i = 0; i < 16; ++i) {
        // Re-hit "a" before every insert: it is the most recent entry
        // when the newcomer needs room, so the eviction takes the
        // previous newcomer instead.
        const auto hit = tier.lookup("a");
        ASSERT_TRUE(hit);
        EXPECT_EQ(hit->result_text, "a");
        const auto displaced =
            tier.insert("k" + std::to_string(i),
                        taggedBundle("k" + std::to_string(i)));
        for (const auto &d : displaced)
            EXPECT_NE(d.key, "a");
        EXPECT_LE(tier.entries(), 2u);
    }
    EXPECT_TRUE(tier.lookup("a"));
    const auto stats = tier.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.insertions, 17u);
    EXPECT_EQ(stats.evictions, 15u);
}

TEST(RetrievalCacheTest, ExactCapacityIsNeverExceeded)
{
    // The hot tier's budget is exact: occupancy never passes
    // `capacity`.
    constexpr std::size_t kCapacity = 5;
    RetrievalCache cache(RetrievalCache::Options{kCapacity});
    for (int i = 0; i < 50; ++i) {
        const std::string key = "key-" + std::to_string(i);
        cache.getOrCompute(key, [&] { return taggedBundle(key); });
        EXPECT_LE(cache.size(), kCapacity) << "after insert " << i;
    }
    EXPECT_EQ(cache.size(), kCapacity);
    EXPECT_EQ(cache.counters().evictions, 50u - kCapacity);
    EXPECT_EQ(cache.tiered().hot.entries, kCapacity);
}

TEST(RetrievalCacheTest, SecondaryTierRecoversHotEvictions)
{
    // Hot tier of 2 over a roomy secondary: bundles demoted out of
    // the hot tier land in the secondary in codec form, so re-getting
    // every key decodes + re-promotes instead of recomputing — zero
    // recomputes across the whole second pass.
    RetrievalCache::Options options;
    options.capacity = 2;
    options.secondary_capacity_bytes = 1u << 20;
    RetrievalCache cache(options);
    std::map<std::string, int> computes;
    const auto get = [&](const std::string &key) {
        return cache.getOrCompute(key, [&] {
            ++computes[key];
            return taggedBundle(key);
        });
    };
    constexpr int kKeys = 10;
    for (int i = 0; i < kKeys; ++i)
        get("key-" + std::to_string(i));
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < kKeys; ++i) {
            const std::string key = "key-" + std::to_string(i);
            const auto bundle = get(key);
            ASSERT_TRUE(bundle);
            EXPECT_EQ(bundle->result_text, key);
            EXPECT_EQ(computes[key], 1) << key;
        }
    }
    const auto tiers = cache.tiered();
    EXPECT_TRUE(tiers.secondary_enabled);
    EXPECT_LE(tiers.hot.entries, 2u);
    EXPECT_GE(tiers.secondary.hits, static_cast<std::uint64_t>(kKeys));
    EXPECT_EQ(tiers.promotions, tiers.secondary.hits);
    EXPECT_GE(tiers.demotions, tiers.secondary.hits);
    // Nothing ever left the cache: the secondary absorbed every
    // demotion, so cache-level evictions stayed at zero.
    EXPECT_EQ(cache.counters().evictions, 0u);
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
}

TEST(RetrievalCacheTest, SecondaryTierByteBudgetIsExact)
{
    // The secondary tier budgets encoded bytes exactly: occupancy
    // never exceeds the budget, oversized entries are rejected.
    SecondaryTier tier(/*capacity_bytes=*/4096);
    auto big = std::make_shared<ContextBundle>();
    big->result_text.assign(8192, 'x');
    const auto rejected = tier.insert("big", big);
    ASSERT_EQ(rejected.size(), 1u);
    EXPECT_EQ(rejected[0].key, "big");
    EXPECT_EQ(tier.stats().rejected, 1u);

    for (int i = 0; i < 64; ++i) {
        auto bundle = std::make_shared<ContextBundle>();
        bundle->result_text.assign(200, static_cast<char>('a' + i % 26));
        tier.insert("k" + std::to_string(i), bundle);
        EXPECT_LE(tier.bytes(), 4096u);
    }
    EXPECT_GT(tier.stats().evictions, 0u);
}

TEST(RetrievalCacheTest, CapacityZeroDisablesCaching)
{
    RetrievalCache cache(RetrievalCache::Options{/*capacity=*/0});
    EXPECT_FALSE(cache.enabled());
    int computes = 0;
    for (int i = 0; i < 3; ++i) {
        RetrievalCache::Outcome outcome;
        cache.getOrCompute(
            "k",
            [&] {
                ++computes;
                return taggedBundle("v");
            },
            &outcome);
        EXPECT_FALSE(outcome.hit);
    }
    EXPECT_EQ(computes, 3);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(RetrievalCacheTest, HotKeyHammerIsSingleFlight)
{
    // 8 threads hammer one hot slot key. The bundle must be computed
    // exactly once — concurrent misses coalesce onto the in-flight
    // computation — and every thread must see the same bundle. Run
    // under TSan in CI to keep shared-cache races from regressing.
    RetrievalCache cache(RetrievalCache::Options{/*capacity=*/64});
    constexpr int kThreads = 8;
    constexpr int kIters = 200;
    std::atomic<int> computes{0};
    std::atomic<int> mismatches{0};
    const auto compute = [&] {
        computes.fetch_add(1);
        // Widen the in-flight window so late arrivals actually wait.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return taggedBundle("hot");
    };

    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                const auto bundle =
                    cache.getOrCompute("hot-slot", compute);
                if (!bundle || bundle->result_text != "hot")
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &t : pool)
        t.join();

    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(mismatches.load(), 0);
    const auto counters = cache.counters();
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.hits,
              static_cast<std::uint64_t>(kThreads) * kIters - 1);
}

TEST(RetrievalCacheTest, DistinctKeysUnderConcurrency)
{
    // Multi-key hammer: every key computes exactly once and keeps its
    // own bundle.
    RetrievalCache cache(RetrievalCache::Options{/*capacity=*/256});
    constexpr int kThreads = 8;
    constexpr int kKeys = 32;
    std::atomic<int> computes{0};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < kKeys; ++i) {
                const std::string key = "key-" + std::to_string(i);
                const auto bundle = cache.getOrCompute(key, [&, key] {
                    computes.fetch_add(1);
                    return taggedBundle(key);
                });
                if (!bundle || bundle->result_text != key)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &t : pool)
        t.join();
    EXPECT_EQ(computes.load(), kKeys);
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
}

TEST(RetrievalCacheTest, TieredChurnHammerStaysByteIdentical)
{
    // 8 threads over 32 keys against a 4-entry hot tier and a
    // secondary small enough to lose entries: constant demotion /
    // promotion / eviction churn. The byte-identity contract must
    // hold through all of it — every lookup returns the key's own
    // bundle, bit for bit, no matter which tier served it. Runs under
    // TSan and ASan in CI.
    RetrievalCache::Options options;
    options.capacity = 4;
    options.secondary_capacity_bytes = 8u << 10;
    RetrievalCache cache(options);
    constexpr int kThreads = 8;
    constexpr int kOps = 400;
    constexpr int kKeys = 32;
    const auto bundleFor = [](const std::string &key) {
        auto bundle = std::make_shared<ContextBundle>();
        bundle->result_text = key;
        // Bulk so a handful of bundles overflows the secondary.
        bundle->function_code.assign(1024, 'x');
        return std::shared_ptr<const ContextBundle>(std::move(bundle));
    };
    std::atomic<int> mismatches{0};
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            Rng rng(0xC0FFEEull + static_cast<std::uint64_t>(t));
            for (int i = 0; i < kOps; ++i) {
                const std::string key =
                    "key-" + std::to_string(rng.nextBelow(kKeys));
                std::shared_ptr<const ContextBundle> bundle;
                if (rng.nextBool(0.7)) {
                    bundle = cache.getOrCompute(
                        key, [&] { return bundleFor(key); });
                } else {
                    // The streaming protocol: peek, retrieve on our
                    // own on a miss, publish.
                    bundle = cache.peek(key);
                    if (!bundle) {
                        bundle = bundleFor(key);
                        cache.publish(key, bundle);
                    }
                }
                if (!bundle || bundle->result_text != key ||
                    bundle->function_code !=
                        std::string(1024, 'x'))
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &t : pool)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    const auto tiers = cache.tiered();
    EXPECT_LE(tiers.hot.entries, 4u);
    EXPECT_LE(tiers.secondary.bytes, 8u << 10);
    // The workload must actually have churned through the seam.
    EXPECT_GT(tiers.demotions, 0u);
    EXPECT_GT(tiers.promotions, 0u);
    EXPECT_GT(cache.counters().evictions, 0u);
}

// ------------------------------------------------- bundle codec

namespace {

std::string
randomCodecString(Rng &rng, std::size_t max_len)
{
    std::string s;
    const std::size_t len = rng.nextBelow(max_len + 1);
    s.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
        s.push_back(static_cast<char>(rng.nextBelow(256)));
    return s;
}

double
randomCodecDouble(Rng &rng)
{
    switch (rng.nextBelow(6)) {
    case 0:
        return std::nan("");
    case 1:
        return std::numeric_limits<double>::infinity();
    case 2:
        return -std::numeric_limits<double>::infinity();
    case 3:
        return -0.0;
    case 4:
        return 0.0;
    default:
        return (rng.nextDouble() - 0.5) * 1e12;
    }
}

db::PcStats
randomPcStats(Rng &rng)
{
    db::PcStats s;
    s.pc = rng.next();
    s.accesses = rng.next();
    s.hits = rng.next();
    s.misses = rng.next();
    s.evictions_caused = rng.next();
    s.wrong_evictions = rng.next();
    s.never_reused = rng.next();
    s.mean_reuse_distance = randomCodecDouble(rng);
    s.reuse_distance_stdev = randomCodecDouble(rng);
    s.mean_evicted_reuse_distance = randomCodecDouble(rng);
    s.mean_recency = randomCodecDouble(rng);
    return s;
}

db::AccessRow
randomRow(Rng &rng, const std::vector<std::string> &shared_strings)
{
    db::AccessRow r;
    r.index = rng.next();
    r.program_counter = rng.next();
    r.memory_address = rng.next();
    r.cache_set_id = static_cast<std::uint32_t>(rng.next());
    r.is_miss = rng.nextBool(0.5);
    r.bypassed = rng.nextBool(0.2);
    r.miss_type = static_cast<sim::MissType>(rng.nextBelow(4));
    r.has_victim = rng.nextBool(0.5);
    r.evicted_address = rng.next();
    r.accessed_reuse_distance = rng.nextRange(-1, 1 << 20);
    r.accessed_recency = rng.nextRange(-1, 1 << 20);
    r.evicted_reuse_distance = rng.nextRange(-1, 1 << 20);
    r.wrong_eviction = rng.nextBool(0.3);
    // Rows of a slice repeat source strings constantly — draw from a
    // shared pool so the string table's dedupe is exercised.
    const auto pick = [&]() -> const std::string & {
        return shared_strings[rng.nextBelow(shared_strings.size())];
    };
    r.recency_text = pick();
    r.function_name = pick();
    r.function_code = pick();
    r.assembly_code = pick();
    const std::size_t lines = rng.nextBelow(5);
    for (std::size_t i = 0; i < lines; ++i)
        r.current_cache_lines.push_back(
            db::PcAddr{rng.next(), rng.next()});
    const std::size_t scores = rng.nextBelow(5);
    for (std::size_t i = 0; i < scores; ++i)
        r.cache_line_eviction_scores.push_back(rng.next());
    const std::size_t hist = rng.nextBelow(5);
    for (std::size_t i = 0; i < hist; ++i)
        r.recent_access_history.push_back(
            db::PcAddr{rng.next(), rng.next()});
    return r;
}

ContextBundle
randomBundle(Rng &rng)
{
    std::vector<std::string> shared_strings;
    for (int i = 0; i < 6; ++i)
        shared_strings.push_back(randomCodecString(rng, 64));

    ContextBundle b;
    b.retriever = randomCodecString(rng, 16);
    b.parsed.intent =
        static_cast<query::QueryIntent>(rng.nextBelow(14));
    if (rng.nextBool(0.5))
        b.parsed.pc = rng.next();
    if (rng.nextBool(0.5))
        b.parsed.address = rng.next();
    if (rng.nextBool(0.5))
        b.parsed.set_id = static_cast<std::uint32_t>(rng.next());
    for (std::size_t i = rng.nextBelow(3); i > 0; --i)
        b.parsed.workloads.push_back(randomCodecString(rng, 12));
    for (std::size_t i = rng.nextBelow(3); i > 0; --i)
        b.parsed.policies.push_back(randomCodecString(rng, 12));
    b.parsed.agg = static_cast<query::AggKind>(rng.nextBelow(6));
    b.parsed.field = static_cast<query::FieldKind>(rng.nextBelow(6));
    b.parsed.top_n = static_cast<std::size_t>(rng.nextBelow(100));
    b.parsed.raw = randomCodecString(rng, 120);
    b.trace_key = randomCodecString(rng, 32);
    for (std::size_t i = rng.nextBelow(8); i > 0; --i)
        b.rows.push_back(randomRow(rng, shared_strings));
    b.total_matches = static_cast<std::size_t>(rng.next());
    b.total_is_exact = rng.nextBool(0.5);
    if (rng.nextBool(0.5))
        b.pc_stats = randomPcStats(rng);
    for (std::size_t i = rng.nextBelow(4); i > 0; --i)
        b.pc_stats_list.push_back(randomPcStats(rng));
    for (std::size_t i = rng.nextBelow(4); i > 0; --i) {
        db::SetStats s;
        s.set = static_cast<std::uint32_t>(rng.next());
        s.accesses = rng.next();
        s.hits = rng.next();
        b.set_stats.push_back(s);
    }
    for (std::size_t i = rng.nextBelow(4); i > 0; --i) {
        PolicyNumber p;
        p.policy = randomCodecString(rng, 12);
        p.value = randomCodecDouble(rng);
        p.samples = rng.next();
        b.policy_numbers.push_back(p);
    }
    b.policy_numbers_label = randomCodecString(rng, 24);
    b.metadata = randomCodecString(rng, 200);
    b.workload_description = randomCodecString(rng, 200);
    b.policy_description = randomCodecString(rng, 200);
    b.function_name = randomCodecString(rng, 32);
    b.function_code = randomCodecString(rng, 200);
    b.assembly = randomCodecString(rng, 200);
    for (std::size_t i = rng.nextBelow(10); i > 0; --i)
        b.values.push_back(rng.next());
    b.values_complete = rng.nextBool(0.5);
    if (rng.nextBool(0.5))
        b.computed = randomCodecDouble(rng);
    b.generated_code = randomCodecString(rng, 200);
    b.result_text = randomCodecString(rng, 200);
    b.premise_violation = rng.nextBool(0.2);
    b.premise_note = randomCodecString(rng, 64);
    b.retrieval_ms = randomCodecDouble(rng);
    return b;
}

/** Bit-exact double compare (NaN-safe). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

} // namespace

TEST(BundleCodecTest, RoundTripIsByteExactOverRandomBundles)
{
    // Property test: decode(encode(b)) reproduces every field of b,
    // including NaN/infinity payload bits and render() output, and
    // re-encoding the decoded bundle reproduces the exact bytes —
    // which pins every field jointly, in order.
    Rng rng(0xB17E5ull);
    for (int iter = 0; iter < 40; ++iter) {
        const ContextBundle original = randomBundle(rng);
        const std::string encoded = encodeBundle(original);
        const auto decoded = decodeBundle(encoded);
        ASSERT_TRUE(decoded.has_value()) << "iter " << iter;
        EXPECT_EQ(encodeBundle(*decoded), encoded) << "iter " << iter;

        // Spot checks on top of the re-encode identity.
        EXPECT_EQ(decoded->retriever, original.retriever);
        EXPECT_EQ(decoded->parsed.raw, original.parsed.raw);
        EXPECT_EQ(decoded->parsed.slotKey(),
                  original.parsed.slotKey());
        EXPECT_EQ(decoded->trace_key, original.trace_key);
        ASSERT_EQ(decoded->rows.size(), original.rows.size());
        for (std::size_t i = 0; i < original.rows.size(); ++i) {
            EXPECT_EQ(decoded->rows[i].assembly_code,
                      original.rows[i].assembly_code);
            EXPECT_EQ(decoded->rows[i].recent_access_history,
                      original.rows[i].recent_access_history);
        }
        EXPECT_EQ(decoded->pc_stats.has_value(),
                  original.pc_stats.has_value());
        if (original.pc_stats)
            EXPECT_TRUE(
                sameBits(decoded->pc_stats->mean_reuse_distance,
                         original.pc_stats->mean_reuse_distance));
        EXPECT_EQ(decoded->values, original.values);
        EXPECT_EQ(decoded->computed.has_value(),
                  original.computed.has_value());
        if (original.computed)
            EXPECT_TRUE(sameBits(*decoded->computed,
                                 *original.computed));
        EXPECT_TRUE(
            sameBits(decoded->retrieval_ms, original.retrieval_ms));
        EXPECT_EQ(decoded->render(), original.render());
    }
}

TEST(BundleCodecTest, CompressesRepeatedStrings)
{
    // The string table is the compression: a slice whose rows repeat
    // their source strings must encode far smaller than the decoded
    // footprint.
    ContextBundle b;
    b.retriever = "sieve";
    db::AccessRow row;
    row.function_name = "spec_qbmv_mult";
    row.function_code = std::string(512, 'c');
    row.assembly_code = std::string(512, 'a');
    row.recency_text = "first access to this address";
    for (int i = 0; i < 64; ++i) {
        row.index = static_cast<std::uint64_t>(i);
        b.rows.push_back(row);
    }
    const std::string encoded = encodeBundle(b);
    EXPECT_LT(encoded.size() * 10, approxBundleBytes(b));
    const auto decoded = decodeBundle(encoded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->render(), b.render());
}

TEST(BundleCodecTest, MalformedInputDecodesToNullopt)
{
    Rng rng(0xDEADull);
    const ContextBundle original = randomBundle(rng);
    const std::string encoded = encodeBundle(original);
    // Every strict prefix is truncated mid-field somewhere: reads are
    // sequential and consume the whole buffer, so all must fail
    // cleanly (treated as a cache miss), never crash.
    for (std::size_t len = 0; len < encoded.size(); ++len)
        EXPECT_FALSE(decodeBundle(encoded.substr(0, len)).has_value())
            << "prefix " << len;
    // Wrong magic / version.
    std::string bad = encoded;
    bad[0] = 'X';
    EXPECT_FALSE(decodeBundle(bad).has_value());
    bad = encoded;
    bad[2] = static_cast<char>(0x7F);
    EXPECT_FALSE(decodeBundle(bad).has_value());
}

// ------------------------------------ indexed vs scan execution

TEST(IndexedRetrievalTest, SieveBundlesByteIdenticalToScanPath)
{
    // The postings index is a pure execution strategy: bundles must
    // be byte-identical to the pre-index scan path for every intent
    // that touches filters or listings.
    SieveConfig scan_cfg;
    scan_cfg.use_index = false;
    SieveRetriever indexed(sharedDb());
    SieveRetriever scanner(sharedDb(), scan_cfg);
    const auto known = knownAccess("mcf_evictions_lru");
    const std::vector<std::string> questions = {
        "What is the miss rate for PC " + str::hex(known.pc) +
            " in the mcf workload with LRU?",
        "Does the memory access with PC " + str::hex(known.pc) +
            " and address " + str::hex(known.address) +
            " result in a cache hit or cache miss for the mcf "
            "workload under LRU?",
        "How many times did PC " + str::hex(known.pc) +
            " appear in the mcf workload under LRU?",
        "List all unique PCs in the mcf workload under LRU.",
        "For mcf and LRU, could you list the unique cache sets in "
        "ascending order?",
        "What is the miss rate for PC 0xdeadbeef in the mcf workload "
        "with LRU?", // premise violation path
        "Why does Belady outperform LRU in the mcf workload?",
    };
    for (const auto &q : questions) {
        const auto a = retrieveText(indexed, sharedDb(), q);
        const auto b = retrieveText(scanner, sharedDb(), q);
        EXPECT_EQ(a.render(), b.render()) << q;
        EXPECT_EQ(a.premise_note, b.premise_note) << q;
        EXPECT_EQ(a.values, b.values) << q;
        EXPECT_EQ(a.total_matches, b.total_matches) << q;
    }
    // The execution knob is config like any other: fingerprinted.
    EXPECT_NE(indexed.cacheFingerprint(), scanner.cacheFingerprint());
}

TEST(IndexedRetrievalTest, RangerBundlesByteIdenticalToScanPath)
{
    RangerConfig scan_cfg;
    scan_cfg.use_index = false;
    RangerRetriever indexed(sharedDb());
    RangerRetriever scanner(sharedDb(), scan_cfg);
    const auto known = knownAccess("mcf_evictions_lru");
    const std::vector<std::string> questions = {
        "What is the miss rate for PC " + str::hex(known.pc) +
            " in the mcf workload with LRU?",
        "How many times did PC " + str::hex(known.pc) +
            " appear in the mcf workload under LRU?",
        "What is the average reuse distance of PC " +
            str::hex(known.pc) + " for the mcf workload with LRU?",
        "What is the standard deviation of the reuse distance of PC " +
            str::hex(known.pc) + " in the mcf workload under LRU?",
        "Does the memory access with PC " + str::hex(known.pc) +
            " and address " + str::hex(known.address) +
            " result in a cache hit or cache miss for the mcf "
            "workload under LRU?",
        "Which policy has the lowest miss rate in the mcf workload?",
        "List all unique PCs in the mcf workload under LRU.",
    };
    for (const auto &q : questions) {
        const auto a = retrieveText(indexed, sharedDb(), q);
        const auto b = retrieveText(scanner, sharedDb(), q);
        EXPECT_EQ(a.render(), b.render()) << q;
        EXPECT_EQ(a.generated_code, b.generated_code) << q;
        EXPECT_EQ(a.result_text, b.result_text) << q;
        ASSERT_EQ(a.computed.has_value(), b.computed.has_value()) << q;
        if (a.computed) {
            EXPECT_EQ(*a.computed, *b.computed) << q; // bit-exact
        }
    }
    EXPECT_NE(indexed.cacheFingerprint(), scanner.cacheFingerprint());
}
