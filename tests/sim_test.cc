/**
 * @file
 * Tests for the cache, hierarchy, oracle passes, and annotated replay.
 */

#include <gtest/gtest.h>

#include <memory>

#include "policy/basic_policies.hh"
#include "sim/core_model.hh"
#include "sim/hierarchy.hh"
#include "sim/llc_replay.hh"
#include "trace/workload.hh"

using namespace cachemind;
using namespace cachemind::sim;
using namespace cachemind::policy;

namespace {

AccessInfo
mkAccess(std::uint64_t line, std::uint64_t idx, std::uint64_t pc = 0x400)
{
    AccessInfo info;
    info.pc = pc;
    info.line = line;
    info.address = line * 64;
    info.access_index = idx;
    return info;
}

} // namespace

TEST(CacheTest, HitAfterFill)
{
    Cache c(CacheConfig{"c", 4, 2, 64, 1, 4},
            std::make_unique<LruPolicy>());
    EXPECT_FALSE(c.access(mkAccess(5, 0)).hit);
    EXPECT_TRUE(c.access(mkAccess(5, 1)).hit);
    EXPECT_TRUE(c.probe(5));
    EXPECT_FALSE(c.probe(9));
}

TEST(CacheTest, EvictionReportsVictim)
{
    Cache c(CacheConfig{"c", 1, 1, 64, 1, 4},
            std::make_unique<LruPolicy>());
    c.access(mkAccess(1, 0, 0xAA));
    const auto res = c.access(mkAccess(2, 1, 0xBB));
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evicted_line, 1u);
    EXPECT_EQ(res.evicted_pc, 0xAAu);
    EXPECT_EQ(res.evicted_last_index, 0u);
}

TEST(CacheTest, DirtyEvictionSignalsWriteback)
{
    Cache c(CacheConfig{"c", 1, 1, 64, 1, 4},
            std::make_unique<LruPolicy>());
    auto store = mkAccess(1, 0);
    store.type = trace::AccessType::Store;
    c.access(store);
    const auto res = c.access(mkAccess(2, 1));
    EXPECT_TRUE(res.evicted_dirty);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(CacheTest, ExternalBypassFilter)
{
    Cache c(CacheConfig{"c", 1, 2, 64, 1, 4},
            std::make_unique<LruPolicy>());
    c.setBypassFilter([](std::uint64_t pc) { return pc == 0xDEAD; });
    c.access(mkAccess(1, 0, 0xDEAD));
    EXPECT_EQ(c.stats().bypasses, 1u);
    EXPECT_FALSE(c.probe(1));
    c.access(mkAccess(2, 1, 0xBEEF));
    EXPECT_TRUE(c.probe(2));
}

TEST(CacheTest, InvalidateAndMarkDirty)
{
    Cache c(CacheConfig{"c", 2, 2, 64, 1, 4},
            std::make_unique<LruPolicy>());
    c.access(mkAccess(4, 0));
    c.markDirty(4);
    EXPECT_TRUE(c.invalidate(4));
    EXPECT_FALSE(c.probe(4));
    EXPECT_FALSE(c.invalidate(4));
}

TEST(CacheTest, SetMappingModuloSets)
{
    Cache c(CacheConfig{"c", 8, 1, 64, 1, 4},
            std::make_unique<LruPolicy>());
    EXPECT_EQ(c.setOf(0), 0u);
    EXPECT_EQ(c.setOf(9), 1u);
    EXPECT_EQ(c.setOf(16), 0u);
}

TEST(HierarchyTest, Table2Defaults)
{
    const auto cfg = defaultHierarchyConfig();
    EXPECT_EQ(cfg.l1d.capacityBytes(), 32u * 1024);
    EXPECT_EQ(cfg.l2.capacityBytes(), 512u * 1024);
    EXPECT_EQ(cfg.llc.capacityBytes(), 2u * 1024 * 1024);
    EXPECT_EQ(cfg.llc.sets, 2048u);
    EXPECT_EQ(cfg.llc.ways, 16u);
    const auto desc = describeConfig(cfg);
    EXPECT_NE(desc.find("2048 sets"), std::string::npos);
    EXPECT_NE(desc.find("LLC"), std::string::npos);
}

TEST(HierarchyTest, L1FiltersRepeatedAccesses)
{
    Hierarchy h(defaultHierarchyConfig(),
                std::make_unique<LruPolicy>());
    int llc_seen = 0;
    h.setLlcObserver([&](std::uint64_t, std::uint64_t,
                         trace::AccessType) { ++llc_seen; });
    for (int i = 0; i < 100; ++i)
        h.access(0x400, 0x1000, trace::AccessType::Load);
    EXPECT_EQ(llc_seen, 1); // only the cold miss escapes L1/L2
    EXPECT_EQ(h.l1d().stats().hits, 99u);
}

TEST(HierarchyTest, LatencyAccumulatesThroughLevels)
{
    Hierarchy h(defaultHierarchyConfig(),
                std::make_unique<LruPolicy>());
    const auto miss = h.access(0x400, 0x2000, trace::AccessType::Load);
    EXPECT_EQ(miss.level, ServiceLevel::Dram);
    EXPECT_EQ(miss.latency, 4u + 12 + 26 + 160);
    const auto hit = h.access(0x400, 0x2000, trace::AccessType::Load);
    EXPECT_EQ(hit.level, ServiceLevel::L1);
    EXPECT_EQ(hit.latency, 4u);
}

TEST(OracleTest, NextPrevUse)
{
    std::vector<LlcAccess> s;
    const std::uint64_t lines[] = {1, 2, 1, 3, 2, 1};
    for (std::uint64_t i = 0; i < 6; ++i)
        s.push_back(LlcAccess{0x4, lines[i] * 64, lines[i],
                              trace::AccessType::Load});
    const auto o = computeOracle(s);
    EXPECT_EQ(o.next_use[0], 2u);
    EXPECT_EQ(o.next_use[1], 4u);
    EXPECT_EQ(o.next_use[2], 5u);
    EXPECT_EQ(o.next_use[3], kNoNextUse);
    EXPECT_EQ(o.prev_use[0], kNoPrevUse);
    EXPECT_EQ(o.prev_use[2], 0u);
    EXPECT_EQ(o.prev_use[4], 1u);
    EXPECT_EQ(o.prev_use[5], 2u);
}

TEST(OracleTest, StackDistanceCountsDistinctLines)
{
    std::vector<LlcAccess> s;
    const std::uint64_t lines[] = {1, 2, 3, 1, 2, 2};
    for (std::uint64_t i = 0; i < 6; ++i)
        s.push_back(LlcAccess{0x4, lines[i] * 64, lines[i],
                              trace::AccessType::Load});
    const auto o = computeOracle(s);
    // 1 at idx 3: lines {2,3} between -> distance 2.
    EXPECT_EQ(o.stack_distance[3], 2u);
    // 2 at idx 4: lines {3,1} between -> 2.
    EXPECT_EQ(o.stack_distance[4], 2u);
    // 2 at idx 5: nothing between -> 0.
    EXPECT_EQ(o.stack_distance[5], 0u);
    EXPECT_EQ(o.stack_distance[0], kNoPrevUse);
}

TEST(ReplayTest, AnnotationsMatchOracle)
{
    std::vector<LlcAccess> s;
    const std::uint64_t lines[] = {1, 2, 3, 1, 2, 3, 1};
    for (std::uint64_t i = 0; i < 7; ++i)
        s.push_back(LlcAccess{0x400 + lines[i], lines[i] * 64,
                              lines[i], trace::AccessType::Load});
    const auto oracle = computeOracle(s);

    LlcReplayer rep(CacheConfig{"llc", 1, 2, 64, 1, 4},
                    std::make_unique<LruPolicy>());
    std::vector<ReplayEvent> events;
    rep.replay(s, &oracle,
               [&events](const ReplayEvent &ev) { events.push_back(ev); });

    ASSERT_EQ(events.size(), 7u);
    EXPECT_EQ(events[0].miss_type, MissType::Compulsory);
    EXPECT_FALSE(events[0].hit);
    EXPECT_EQ(events[0].reuse_distance, 3u);
    EXPECT_EQ(events[0].recency, kNoPrevUse);
    // Access 3 (line 1 again): with 2 ways LRU, line 1 was evicted
    // by line 3 at access 2 -> miss with recency 3.
    EXPECT_FALSE(events[3].hit);
    EXPECT_EQ(events[3].recency, 3u);
    // Victim of event 2 is line 1 (LRU), which is needed at index 3:
    EXPECT_TRUE(events[2].has_victim);
    EXPECT_EQ(events[2].evicted_line, 1u);
    EXPECT_EQ(events[2].evicted_last_index, 0u); // line 1's last touch
    EXPECT_EQ(events[2].evicted_reuse_distance, 1u);
    EXPECT_TRUE(events[2].wrong_eviction); // 3 reused at 5, 1 at 3
}

TEST(ReplayTest, SnapshotCapturesResidentLines)
{
    std::vector<LlcAccess> s;
    const std::uint64_t lines[] = {1, 2, 3};
    for (std::uint64_t i = 0; i < 3; ++i)
        s.push_back(LlcAccess{0x100 + lines[i], lines[i] * 64,
                              lines[i], trace::AccessType::Load});
    const auto oracle = computeOracle(s);
    LlcReplayer rep(CacheConfig{"llc", 1, 4, 64, 1, 4},
                    std::make_unique<LruPolicy>());
    std::vector<ReplayEvent> events;
    rep.replay(s, &oracle,
               [&events](const ReplayEvent &ev) { events.push_back(ev); });
    EXPECT_TRUE(events[0].snapshot.empty());
    ASSERT_EQ(events[2].snapshot.size(), 2u);
    EXPECT_EQ(events[2].snapshot[0].line, 1u);
    EXPECT_EQ(events[2].snapshot[0].pc, 0x101u);
    // Each entry names the access that last touched it.
    EXPECT_EQ(events[2].snapshot[0].last_index, 0u);
    EXPECT_EQ(events[2].snapshot[1].last_index, 1u);
    EXPECT_EQ(events[2].scores.size(), 4u);
}

TEST(ReplayTest, BeladyNeverBelowLruHitRate)
{
    // Belady must dominate LRU on any stream (with bypass allowed).
    auto model = trace::makeWorkload(trace::WorkloadKind::Astar, 99);
    const auto t = model->generate(40000);
    const auto stream = captureLlcStream(t);
    ASSERT_GT(stream.size(), 1000u);
    const auto oracle = computeOracle(stream);

    CacheConfig llc{"llc", 256, 16, 64, 26, 64};
    LlcReplayer lru(llc, std::make_unique<LruPolicy>());
    LlcReplayer opt(llc, std::make_unique<BeladyPolicy>());
    const auto s_lru = lru.replay(stream, &oracle, nullptr);
    const auto s_opt = opt.replay(stream, &oracle, nullptr);
    EXPECT_GE(s_opt.hitRate(), s_lru.hitRate());
}

TEST(ReplayTest, MissClassification)
{
    // Cache: 4 sets x 2 ways = 8 lines total.
    const CacheConfig llc{"llc", 4, 2, 64, 1, 4};

    std::vector<LlcAccess> s;
    auto push = [&s](std::uint64_t line) {
        s.push_back(
            LlcAccess{0x4, line * 64, line, trace::AccessType::Load});
    };
    // Round 1: 16 distinct lines (compulsory), then revisit line 0:
    // stack distance 15 >= 8 -> capacity miss.
    for (std::uint64_t l = 0; l < 16; ++l)
        push(l);
    push(0);
    // Conflict: three lines in set 1 (1, 5, 9) cycled with nothing
    // else between -> stack distance 2 < 8, still misses in 2 ways.
    push(1);
    push(5);
    push(9);
    push(1);

    const auto oracle = computeOracle(s);
    LlcReplayer rep(llc, std::make_unique<LruPolicy>());
    std::vector<ReplayEvent> events;
    rep.replay(s, &oracle,
               [&events](const ReplayEvent &ev) { events.push_back(ev); });

    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(events[i].miss_type, MissType::Compulsory);
    ASSERT_EQ(events.size(), 21u);
    EXPECT_EQ(events[16].miss_type, MissType::Capacity);
    EXPECT_EQ(events[20].miss_type, MissType::Conflict);
}

TEST(CoreModelTest, IpcFallsWithMissRate)
{
    // A tight reuse loop has near-ideal IPC; a streaming loop does not.
    trace::Trace hot("hot");
    trace::Trace cold("cold");
    for (std::uint64_t i = 0; i < 20000; ++i) {
        hot.push(i * 4, 0x400, 0x1000 + (i % 4) * 64);
        cold.push(i * 4, 0x400, 0x100000 + i * 64);
    }
    hot.setInstructions(20000 * 4);
    cold.setInstructions(20000 * 4);

    const auto s_hot = runTrace(hot, defaultHierarchyConfig(),
                                std::make_unique<LruPolicy>());
    const auto s_cold = runTrace(cold, defaultHierarchyConfig(),
                                 std::make_unique<LruPolicy>());
    EXPECT_GT(s_hot.ipc, 2.0);
    EXPECT_LT(s_cold.ipc, 0.5);
    EXPECT_GT(s_hot.ipc, s_cold.ipc * 4);
}

TEST(CoreModelTest, PrefetchWarmsWithoutStall)
{
    trace::Trace with_pf("pf");
    trace::Trace without_pf("nopf");
    // Each address is prefetched well before its demand load.
    std::uint64_t id = 0;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        with_pf.push(id++, 0x500, 0x200000 + (i + 8) * 64,
                     trace::AccessType::Prefetch);
        with_pf.push(id++, 0x400, 0x200000 + i * 64);
        without_pf.push(id++, 0x400, 0x200000 + i * 64);
    }
    with_pf.setInstructions(id);
    without_pf.setInstructions(id);
    const auto s_pf = runTrace(with_pf, defaultHierarchyConfig(),
                               std::make_unique<LruPolicy>());
    const auto s_np = runTrace(without_pf, defaultHierarchyConfig(),
                               std::make_unique<LruPolicy>());
    EXPECT_GT(s_pf.ipc, s_np.ipc);
}

TEST(ParrotBuilderTest, TrainsOnStream)
{
    auto model = trace::makeWorkload(trace::WorkloadKind::Lbm, 7);
    const auto t = model->generate(20000);
    const auto stream = captureLlcStream(t);
    const auto oracle = computeOracle(stream);
    const auto parrot = ParrotModelBuilder::train(stream, oracle);
    EXPECT_TRUE(parrot.trained());
    EXPECT_GT(parrot.table.size(), 3u);
}
