/**
 * @file
 * Unit tests for the replacement policies against a small cache.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "policy/basic_policies.hh"
#include "policy/mlp.hh"
#include "policy/mockingjay.hh"
#include "policy/parrot.hh"
#include "policy/rrip_policies.hh"
#include "sim/cache.hh"
#include "sim/llc_replay.hh"

using namespace cachemind;
using namespace cachemind::policy;
using namespace cachemind::sim;

namespace {

/** Drive a tiny cache with a line sequence; returns hit flags. */
std::vector<bool>
driveLines(Cache &cache, const std::vector<std::uint64_t> &lines,
           const std::vector<std::uint64_t> &next_uses = {})
{
    std::vector<bool> hits;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        AccessInfo info;
        info.pc = 0x400000 + lines[i] * 4;
        info.address = lines[i] * 64;
        info.line = lines[i];
        info.access_index = i;
        if (i < next_uses.size())
            info.next_use = next_uses[i];
        hits.push_back(cache.access(info).hit);
    }
    return hits;
}

CacheConfig
tinyConfig(std::uint32_t sets = 1, std::uint32_t ways = 2)
{
    CacheConfig cfg;
    cfg.name = "tiny";
    cfg.sets = sets;
    cfg.ways = ways;
    cfg.latency = 1;
    return cfg;
}

} // namespace

TEST(LruPolicyTest, EvictsLeastRecentlyUsed)
{
    Cache cache(tinyConfig(), std::make_unique<LruPolicy>());
    // Lines 1,2 fill; touching 1 makes 2 the LRU victim for 3.
    const auto hits = driveLines(cache, {1, 2, 1, 3, 1, 2});
    const std::vector<bool> expect = {false, false, true,
                                      false, true, false};
    EXPECT_EQ(hits, expect);
}

TEST(LruPolicyTest, ScoreGrowsWithAge)
{
    Cache cache(tinyConfig(1, 4), std::make_unique<LruPolicy>());
    driveLines(cache, {1, 2, 3, 4});
    std::vector<std::uint64_t> scores;
    cache.setScores(0, scores);
    // Way 0 holds the oldest line -> largest evictability score.
    EXPECT_GT(scores[0], scores[3]);
}

TEST(FifoPolicyTest, IgnoresHits)
{
    Cache cache(tinyConfig(), std::make_unique<FifoPolicy>());
    // FIFO: touching 1 does NOT save it; 1 was inserted first.
    const auto hits = driveLines(cache, {1, 2, 1, 3, 1});
    const std::vector<bool> expect = {false, false, true, false, false};
    EXPECT_EQ(hits, expect);
}

TEST(RandomPolicyTest, AlwaysPicksValidWay)
{
    Cache cache(tinyConfig(4, 2), std::make_unique<RandomPolicy>());
    std::vector<std::uint64_t> lines;
    for (std::uint64_t i = 0; i < 400; ++i)
        lines.push_back(i * 4); // all map to set 0
    driveLines(cache, lines);
    EXPECT_EQ(cache.stats().accesses, 400u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(BeladyPolicyTest, EvictsFarthestNextUse)
{
    Cache cache(tinyConfig(), std::make_unique<BeladyPolicy>(false));
    // Access pattern: 1 (next use 4), 2 (next use far), 3 (never) ...
    // With 2 ways, inserting 3 must evict 2 (next use 100) vs 1 (4).
    std::vector<std::uint64_t> lines = {1, 2, 3, 1};
    std::vector<std::uint64_t> next = {4, 100, kNoNextUse, kNoNextUse};
    const auto hits = driveLines(cache, lines, next);
    EXPECT_FALSE(hits[2]);
    EXPECT_TRUE(hits[3]); // line 1 survived because 2 was farther
}

TEST(BeladyPolicyTest, BypassesDeadOnArrival)
{
    Cache cache(tinyConfig(), std::make_unique<BeladyPolicy>(true));
    // Fill with lines re-used soon; a never-re-used line must bypass.
    std::vector<std::uint64_t> lines = {1, 2, 9, 1, 2};
    std::vector<std::uint64_t> next = {3, 4, kNoNextUse, 10, 11};
    const auto hits = driveLines(cache, lines, next);
    EXPECT_EQ(cache.stats().bypasses, 1u);
    EXPECT_TRUE(hits[3]);
    EXPECT_TRUE(hits[4]);
}

TEST(BeladyPolicyTest, OptimalBeatsLruOnAdversarialPattern)
{
    // Cyclic pattern over ways+1 lines is LRU's worst case.
    std::vector<std::uint64_t> lines;
    for (int rep = 0; rep < 40; ++rep)
        for (std::uint64_t l = 0; l < 3; ++l)
            lines.push_back(l);

    // Compute next uses.
    std::vector<std::uint64_t> next(lines.size(), kNoNextUse);
    std::map<std::uint64_t, std::size_t> seen;
    for (std::size_t i = lines.size(); i-- > 0;) {
        if (seen.count(lines[i]))
            next[i] = seen[lines[i]];
        seen[lines[i]] = i;
    }

    Cache lru(tinyConfig(), std::make_unique<LruPolicy>());
    Cache opt(tinyConfig(), std::make_unique<BeladyPolicy>(true));
    driveLines(lru, lines, next);
    driveLines(opt, lines, next);
    EXPECT_EQ(lru.stats().hits, 0u); // classic LRU thrash
    EXPECT_GT(opt.stats().hits, lines.size() / 2);
}

TEST(SrripPolicyTest, HitPromotesToNearRrpv)
{
    Cache cache(tinyConfig(1, 2), std::make_unique<SrripPolicy>());
    driveLines(cache, {1, 2, 1});
    std::vector<std::uint64_t> scores;
    cache.setScores(0, scores);
    EXPECT_EQ(scores[0], 0u); // line 1 promoted on hit
    EXPECT_GT(scores[1], 0u);
}

TEST(SrripPolicyTest, ScanResistance)
{
    // A reused pair plus a one-shot scan: SRRIP keeps the pair longer
    // than LRU does.
    std::vector<std::uint64_t> lines;
    for (int i = 0; i < 30; ++i) {
        lines.push_back(1);
        lines.push_back(2);
        lines.push_back(100 + i); // scan line, never reused
    }
    Cache srrip(tinyConfig(1, 4), std::make_unique<SrripPolicy>());
    Cache lru(tinyConfig(1, 4), std::make_unique<LruPolicy>());
    driveLines(srrip, lines);
    driveLines(lru, lines);
    EXPECT_GE(srrip.stats().hits, lru.stats().hits);
}

TEST(DrripPolicyTest, RunsAndDuels)
{
    Cache cache(CacheConfig{"d", 64, 4, 64, 1, 8},
                std::make_unique<DrripPolicy>());
    std::vector<std::uint64_t> lines;
    cachemind::Rng rng(3);
    for (int i = 0; i < 5000; ++i)
        lines.push_back(rng.nextBelow(512));
    driveLines(cache, lines);
    EXPECT_EQ(cache.stats().accesses, 5000u);
    EXPECT_GT(cache.stats().hits, 0u);
}

TEST(DipPolicyTest, BipInsertionLimitsScanDamage)
{
    // Working set of 4 lines in a 4-way set + long scan. DIP should
    // retain more of the working set than plain LRU.
    std::vector<std::uint64_t> lines;
    for (int rep = 0; rep < 200; ++rep) {
        for (std::uint64_t l = 0; l < 3; ++l)
            lines.push_back(l);
        lines.push_back(1000 + rep); // scan
    }
    Cache dip(tinyConfig(1, 4), std::make_unique<DipPolicy>());
    Cache lru(tinyConfig(1, 4), std::make_unique<LruPolicy>());
    driveLines(dip, lines);
    driveLines(lru, lines);
    EXPECT_GE(dip.stats().hits, lru.stats().hits);
}

TEST(ShipPolicyTest, LearnsDeadSignatures)
{
    Cache cache(tinyConfig(1, 4), std::make_unique<ShipPolicy>());
    // Scan PC inserts lines that never hit; reused PC inserts lines
    // that hit. After warmup the reused lines should survive scans.
    std::uint64_t idx = 0;
    auto access = [&](std::uint64_t pc, std::uint64_t line) {
        AccessInfo info;
        info.pc = pc;
        info.line = line;
        info.address = line * 64;
        info.access_index = idx++;
        return cache.access(info).hit;
    };
    int reuse_hits = 0;
    for (int rep = 0; rep < 300; ++rep) {
        reuse_hits += access(0xAAA, 1);
        reuse_hits += access(0xAAA, 2);
        access(0xBBB, 5000 + rep); // scan, never reused
    }
    // LRU-equivalent would still hit most of the time in 4 ways, but
    // SHiP must not be *worse* than half after learning.
    EXPECT_GT(reuse_hits, 300);
}

TEST(ParrotModelTest, PredictsFromTraining)
{
    ParrotTrainer trainer;
    for (std::uint64_t i = 0; i < 100; ++i)
        trainer.observe(0x1111, i, i + 16); // constant rd 16
    for (std::uint64_t i = 0; i < 100; ++i)
        trainer.observe(0x2222, i, kNoNextUse); // never reused
    const ParrotModel model = trainer.finish();
    EXPECT_NEAR(model.predict(0x1111), 17.0, 2.0);
    EXPECT_GT(model.predict(0x2222), 1e5);
    EXPECT_DOUBLE_EQ(model.predict(0x9999), model.default_rd);
}

TEST(ParrotPolicyTest, EvictsPredictedDeadLines)
{
    ParrotTrainer trainer;
    for (std::uint64_t i = 0; i < 64; ++i)
        trainer.observe(0xA, i, i + 4); // hot PC
    for (std::uint64_t i = 0; i < 64; ++i)
        trainer.observe(0xD, i, kNoNextUse); // dead PC
    auto policy = std::make_unique<ParrotPolicy>(trainer.finish());
    Cache cache(tinyConfig(1, 2), std::move(policy));

    std::uint64_t idx = 0;
    auto access = [&](std::uint64_t pc, std::uint64_t line) {
        AccessInfo info;
        info.pc = pc;
        info.line = line;
        info.address = line * 64;
        info.access_index = idx++;
        return cache.access(info).hit;
    };
    access(0xA, 1);
    access(0xA, 2);
    // Dead-PC line should bypass (both residents predicted sooner).
    access(0xD, 3);
    EXPECT_EQ(cache.stats().bypasses, 1u);
    EXPECT_TRUE(access(0xA, 1));
    EXPECT_TRUE(access(0xA, 2));
}

TEST(MlpPolicyTest, TinyMlpLearnsSeparableRule)
{
    TinyMlp net(7);
    // Rule: feature 0 decides the label.
    std::array<float, kMlpInputs> pos{};
    std::array<float, kMlpInputs> neg{};
    pos[0] = 1.0f;
    neg[0] = -1.0f;
    for (int i = 0; i < 400; ++i) {
        net.train(pos, 1.0f);
        net.train(neg, 0.0f);
    }
    EXPECT_GT(net.forward(pos), 0.8);
    EXPECT_LT(net.forward(neg), 0.2);
}

TEST(MlpPolicyTest, RunsOnRandomStream)
{
    Cache cache(CacheConfig{"m", 16, 4, 64, 1, 8},
                std::make_unique<MlpPolicy>());
    std::vector<std::uint64_t> lines;
    cachemind::Rng rng(5);
    for (int i = 0; i < 4000; ++i)
        lines.push_back(rng.nextBelow(256));
    driveLines(cache, lines);
    EXPECT_EQ(cache.stats().accesses, 4000u);
    EXPECT_GT(cache.stats().hits, 0u);
}

TEST(MockingjayTest, RdpTdConvergence)
{
    MockingjayConfig cfg;
    ReuseDistancePredictor rdp(cfg);
    EXPECT_EQ(rdp.predict(0x1), cfg.default_rd);
    for (int i = 0; i < 100; ++i)
        rdp.train(0x1, 64);
    EXPECT_NEAR(rdp.predict(0x1), 64, 8);
}

TEST(MockingjayTest, TrainingFilterBlocksOtherPcs)
{
    MockingjayConfig cfg;
    cfg.sample_every = 1;
    MockingjayPolicy pol(cfg);
    pol.setTrainingFilter({0xAAAA});
    pol.configure(4, 2);

    AccessInfo info;
    info.pc = 0xBBBB;
    info.line = 8; // set 0
    for (int i = 0; i < 50; ++i) {
        info.access_index = static_cast<std::uint64_t>(i);
        pol.onInsert(0, 0, info);
    }
    // Only the filtered PC may enter the RDP; 0xBBBB must not.
    EXPECT_EQ(pol.rdp().size(), 0u);
}

TEST(MockingjayTest, EndToEndBeatsRandomOnRegularReuse)
{
    // Periodic reuse pattern: Mockingjay's RDP should learn it.
    std::vector<std::uint64_t> lines;
    for (int rep = 0; rep < 400; ++rep) {
        for (std::uint64_t l = 0; l < 6; ++l)
            lines.push_back(l * 16); // 6 lines, same set, period 6
        lines.push_back(10000 + rep * 16); // scan line
    }
    MockingjayConfig cfg;
    cfg.sample_every = 1;
    Cache mj(tinyConfig(1, 8),
             std::make_unique<MockingjayPolicy>(cfg));
    Cache rnd(tinyConfig(1, 8), std::make_unique<RandomPolicy>());
    driveLines(mj, lines);
    driveLines(rnd, lines);
    EXPECT_GT(mj.stats().hits, rnd.stats().hits);
}

TEST(PolicyFactoryTest, NamesRoundTrip)
{
    for (PolicyKind kind : allPolicies()) {
        PolicyKind parsed;
        ASSERT_TRUE(policyKindFromName(policyName(kind), parsed));
        EXPECT_EQ(parsed, kind);
        auto pol = makePolicy(kind);
        ASSERT_NE(pol, nullptr);
        EXPECT_STREQ(pol->name(), policyName(kind));
        EXPECT_FALSE(policyDescription(kind).empty());
    }
}

TEST(PolicyFactoryTest, AcceptsAliases)
{
    PolicyKind kind;
    EXPECT_TRUE(policyKindFromName("OPT", kind));
    EXPECT_EQ(kind, PolicyKind::Belady);
    EXPECT_TRUE(policyKindFromName("Optimal", kind));
    EXPECT_EQ(kind, PolicyKind::Belady);
    EXPECT_FALSE(policyKindFromName("no-such-policy", kind));
}
