/**
 * @file
 * Property-based invariants that every replacement policy must
 * satisfy, driven over randomized access streams and parameterized
 * across the whole policy zoo (TEST_P sweeps).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "base/random.hh"
#include "policy/basic_policies.hh"
#include "policy/parrot.hh"
#include "policy/replacement.hh"
#include "replay_rows.hh"
#include "sim/cache.hh"
#include "sim/llc_replay.hh"
#include "trace/workload.hh"

using namespace cachemind;
using namespace cachemind::policy;
using namespace cachemind::sim;

namespace {

/** Random line stream with a tunable locality mix. */
std::vector<LlcAccess>
randomStream(std::uint64_t seed, std::size_t n, std::uint64_t lines)
{
    Rng rng(seed);
    std::vector<LlcAccess> out;
    out.reserve(n);
    std::uint64_t hot = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t line;
        if (rng.nextBool(0.5)) {
            line = hot % 64; // hot working set
            ++hot;
        } else {
            line = 64 + rng.nextBelow(lines);
        }
        out.push_back(LlcAccess{0x400000 + (line % 37) * 4, line * 64,
                                line, trace::AccessType::Load});
    }
    return out;
}

} // namespace

class PolicyPropertyTest : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(PolicyPropertyTest, InvariantHitAfterFillWithoutEviction)
{
    // With more ways than distinct lines, everything eventually hits.
    auto pol = makePolicy(GetParam());
    Cache under_test(CacheConfig{"p", 2, 8, 64, 1, 4}, std::move(pol));
    for (std::uint64_t rep = 0; rep < 4; ++rep) {
        for (std::uint64_t line = 0; line < 8; ++line) {
            AccessInfo info;
            info.pc = 0x400;
            info.line = line;
            info.address = line * 64;
            info.access_index = rep * 8 + line;
            info.next_use = info.access_index + 8;
            under_test.access(info);
        }
    }
    // 8 lines over 2 sets x 8 ways: after the cold pass all hit
    // (policies may bypass, so allow bypasses but no thrash).
    const auto &stats = under_test.stats();
    EXPECT_GE(stats.hits + stats.bypasses, 8u * 3 - 8);
}

TEST_P(PolicyPropertyTest, VictimAlwaysInRangeOnRandomStream)
{
    // The Cache asserts victim-way range internally; surviving a
    // large random stream without tripping CM_ASSERT is the check.
    auto pol = makePolicy(GetParam());
    Cache cache(CacheConfig{"p", 16, 4, 64, 1, 4}, std::move(pol));
    const auto stream = randomStream(42, 20000, 4096);
    const auto oracle = computeOracle(stream);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        AccessInfo info;
        info.pc = stream[i].pc;
        info.address = stream[i].address;
        info.line = stream[i].line;
        info.access_index = i;
        info.next_use = oracle.next_use[i];
        cache.access(info);
    }
    EXPECT_EQ(cache.stats().accesses, stream.size());
    EXPECT_EQ(cache.stats().hits + cache.stats().misses,
              stream.size());
}

TEST_P(PolicyPropertyTest, StatsAreInternallyConsistent)
{
    auto pol = makePolicy(GetParam());
    Cache cache(CacheConfig{"p", 8, 2, 64, 1, 4}, std::move(pol));
    const auto stream = randomStream(7, 8000, 512);
    const auto oracle = computeOracle(stream);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        AccessInfo info;
        info.pc = stream[i].pc;
        info.line = stream[i].line;
        info.address = stream[i].address;
        info.access_index = i;
        info.next_use = oracle.next_use[i];
        cache.access(info);
    }
    const auto &s = cache.stats();
    // Evictions + bypasses never exceed misses; fills = misses -
    // bypasses; evictions <= fills.
    EXPECT_LE(s.bypasses, s.misses);
    EXPECT_LE(s.evictions, s.misses - s.bypasses);
    EXPECT_NEAR(s.missRate() + s.hitRate(), 1.0, 1e-12);
}

TEST_P(PolicyPropertyTest, DeterministicAcrossRuns)
{
    auto run = [this] {
        auto pol = makePolicy(GetParam());
        Cache cache(CacheConfig{"p", 16, 4, 64, 1, 4}, std::move(pol));
        const auto stream = randomStream(99, 10000, 2048);
        const auto oracle = computeOracle(stream);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            AccessInfo info;
            info.pc = stream[i].pc;
            info.line = stream[i].line;
            info.address = stream[i].address;
            info.access_index = i;
            info.next_use = oracle.next_use[i];
            cache.access(info);
        }
        return cache.stats().hits;
    };
    EXPECT_EQ(run(), run());
}

TEST_P(PolicyPropertyTest, NeverWorseThanRandomByALot)
{
    // Sanity floor: on a half-hot stream every policy — including an
    // untrained PARROT and the online learners mid-convergence —
    // should stay within a constant factor of the random baseline.
    auto replay = [](std::unique_ptr<ReplacementPolicy> pol) {
        LlcReplayer rep(CacheConfig{"p", 16, 8, 64, 1, 4},
                        std::move(pol));
        const auto stream = randomStream(5, 30000, 8192);
        const auto oracle = computeOracle(stream);
        return rep.replay(stream, &oracle, nullptr).hitRate();
    };
    const double baseline = replay(std::make_unique<RandomPolicy>());
    const double candidate = replay(makePolicy(GetParam()));
    EXPECT_GT(candidate, baseline * 0.35);
}

TEST_P(PolicyPropertyTest, TableRowsMatchReplayedEvents)
{
    // The trace database stores or derives a policy's scores as its
    // scoreRule() says. Every row of a table set up as the builder
    // sets one up must equal its replay event, on the half-hot random
    // stream and on an mcf stream, with 16 ways as in the database.
    const CacheConfig llc{"llc", 64, 16, 64, 26, 64};
    const auto mcf = trace::makeWorkload(trace::WorkloadKind::Mcf);
    for (const auto &stream : {randomStream(11, 20000, 4096),
                               captureLlcStream(mcf->generate(20000))}) {
        const auto oracle = computeOracle(stream);
        replayChecked(llc, makeReplayPolicy(GetParam(), stream, oracle),
                      stream, oracle);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyPropertyTest,
    ::testing::ValuesIn(allPolicies()),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        return std::string(policyName(info.param));
    });

TEST(BeladyOptimalityTest, DominatesEveryOnlinePolicyOnEveryWorkload)
{
    // The defining property of the oracle, checked end to end.
    for (const auto wk : trace::allWorkloads()) {
        const auto t = trace::makeWorkload(wk)->generate(40000);
        const auto stream = captureLlcStream(t);
        const auto oracle = computeOracle(stream);
        const CacheConfig llc{"llc", 256, 16, 64, 26, 64};

        LlcReplayer opt(llc, std::make_unique<BeladyPolicy>());
        const double opt_rate =
            opt.replay(stream, &oracle, nullptr).hitRate();

        for (const auto pk :
             {PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Ship,
              PolicyKind::Mlp, PolicyKind::Random}) {
            LlcReplayer online(llc, makePolicy(pk));
            const double rate =
                online.replay(stream, &oracle, nullptr).hitRate();
            EXPECT_GE(opt_rate + 1e-9, rate)
                << trace::workloadName(wk) << " vs "
                << policyName(pk);
        }
    }
}
