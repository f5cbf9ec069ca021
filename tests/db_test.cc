/**
 * @file
 * Tests for the trace database: table storage round-trip, the
 * row-reference snapshot, derived score, victim and history columns
 * against the replay events they came from, the append check on a
 * policy's score rule, statistics expert, metadata strings,
 * end-to-end building, shard views, the thread safety of the lazy
 * expert and postings-index caches, the index-vs-reference-scan
 * equivalence of filters and listings, and the byte-identical
 * equivalence of the parallel build to the sequential one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "db/builder.hh"
#include "db/database.hh"
#include "db/index.hh"
#include "db/shard.hh"
#include "db/stats_expert.hh"
#include "db/table.hh"
#include "replay_rows.hh"

using namespace cachemind;
using namespace cachemind::db;

namespace {

std::uint64_t
tinyPc(std::uint64_t i)
{
    return (i % 2) ? 0xB00 : 0xA00;
}

std::uint64_t
tinyAddress(std::uint64_t i)
{
    return 0x1000 + (i % 3) * 64;
}

/**
 * Small hand-built table: 2 PCs, 3 lines in 3 sets of 4 ways, mixed
 * hits and misses. Like a real replay, every snapshot entry and the
 * victim name the earlier row that last touched their line, and each
 * set's one line sits in way 0 (ReplayEvent::way's default).
 */
TraceTable
makeTinyTable()
{
    TraceTable t;
    t.setLineBytes(64);
    t.setHistoryLen(4);
    t.setWays(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        sim::ReplayEvent ev;
        ev.index = i;
        ev.pc = tinyPc(i);
        ev.address = tinyAddress(i);
        ev.line = ev.address / 64;
        ev.set = static_cast<std::uint32_t>(ev.line % 4);
        ev.hit = i >= 3;             // first three accesses miss
        ev.miss_type = ev.hit ? sim::MissType::None
                              : sim::MissType::Compulsory;
        ev.reuse_distance = (i < 9) ? 3 : policy::kNoNextUse;
        ev.recency = (i >= 3) ? 3 : sim::kNoPrevUse;
        if (i == 5) {
            // Row 0's line, last touched by PC 0xA00.
            ev.has_victim = true;
            ev.evicted_line = tinyAddress(0) / 64;
            ev.evicted_pc = tinyPc(0);
            ev.evicted_last_index = 0;
            ev.evicted_reuse_distance = 2;
            ev.wrong_eviction = true;
        }
        // A hit finds its line resident, last touched three rows ago.
        if (ev.hit) {
            ev.snapshot = {
                sim::SnapshotEntry{tinyPc(i - 3), ev.line, i - 3}};
        }
        ev.scores = {1, 2, 3, 4};
        t.append(ev);
    }
    return t;
}

/**
 * Table with the given address per row (PCs alternate 0xA00 and
 * 0xB00, as in makeTinyTable): for address orders a real replay
 * rarely produces.
 */
TraceTable
makeAddressTable(const std::vector<std::uint64_t> &addresses)
{
    TraceTable t;
    t.setLineBytes(64);
    for (std::uint64_t i = 0; i < addresses.size(); ++i) {
        sim::ReplayEvent ev;
        ev.index = i;
        ev.pc = tinyPc(i);
        ev.address = addresses[i];
        ev.line = ev.address / 64;
        ev.set = static_cast<std::uint32_t>(ev.line % 4);
        ev.hit = i % 3 != 0;
        t.append(ev);
    }
    return t;
}

} // namespace

TEST(TraceTableTest, ColumnarRoundTrip)
{
    const auto t = makeTinyTable();
    ASSERT_EQ(t.size(), 10u);
    EXPECT_EQ(t.pcAt(0), 0xA00u);
    EXPECT_EQ(t.pcAt(1), 0xB00u);
    EXPECT_TRUE(t.isMissAt(0));
    EXPECT_FALSE(t.isMissAt(5));
    EXPECT_EQ(t.missTypeAt(0), sim::MissType::Compulsory);
    EXPECT_EQ(t.reuseDistanceAt(0), 3);
    EXPECT_EQ(t.reuseDistanceAt(9), kNoValue);
    EXPECT_EQ(t.recencyAt(0), kNoValue);
    EXPECT_EQ(t.recencyAt(4), 3);
}

TEST(TraceTableTest, VictimColumns)
{
    const auto t = makeTinyTable();
    EXPECT_TRUE(t.hasVictimAt(5));
    EXPECT_FALSE(t.hasVictimAt(4));
    EXPECT_EQ(t.evictedAddressAt(5), 0x1000u);
    EXPECT_EQ(t.evictedAddressAt(4), 0u);
    EXPECT_EQ(t.evictedPcAt(5), 0xA00u);
    EXPECT_TRUE(t.wrongEvictionAt(5));
    EXPECT_EQ(t.evictedReuseDistanceAt(5), 2);
}

TEST(TraceTableTest, MembershipChecks)
{
    const auto t = makeTinyTable();
    EXPECT_TRUE(t.containsPc(0xA00));
    EXPECT_TRUE(t.containsPc(0xB00));
    EXPECT_FALSE(t.containsPc(0xC00));
    // An address's presence is a one-row filter on either path.
    const std::uint64_t present = 0x1000, absent = 0x9999;
    EXPECT_EQ(t.filter(nullptr, &present, 1).size(), 1u);
    EXPECT_EQ(t.filterScan(nullptr, &present, 1).size(), 1u);
    EXPECT_TRUE(t.filter(nullptr, &absent, 1).empty());
    EXPECT_TRUE(t.filterScan(nullptr, &absent, 1).empty());
}

TEST(TraceTableTest, FilterByPcAndAddress)
{
    const auto t = makeTinyTable();
    const std::uint64_t pc = 0xA00;
    const auto rows = t.filter(&pc, nullptr);
    EXPECT_EQ(rows.size(), 5u);
    const std::uint64_t addr = 0x1000;
    const auto rows2 = t.filter(&pc, &addr);
    for (const auto i : rows2) {
        EXPECT_EQ(t.pcAt(i), pc);
        EXPECT_EQ(t.addressAt(i), addr);
    }
    const std::uint64_t missing = 0xdead;
    EXPECT_TRUE(t.filter(&missing, nullptr).empty());
    EXPECT_EQ(t.filter(&pc, nullptr, 2).size(), 2u);
}

TEST(TraceTableTest, RowMaterialisation)
{
    const auto t = makeTinyTable();
    const auto row5 = t.row(5);
    EXPECT_EQ(row5.index, 5u);
    EXPECT_EQ(row5.program_counter, 0xB00u);
    EXPECT_FALSE(row5.is_miss);
    EXPECT_TRUE(row5.has_victim);
    EXPECT_EQ(row5.evicted_address, 0x1000u);
    ASSERT_EQ(row5.current_cache_lines.size(), 1u);
    EXPECT_EQ(row5.current_cache_lines[0].pc, 0xA00u);
    EXPECT_EQ(row5.current_cache_lines[0].address, 0x1080u);
    EXPECT_EQ(row5.cache_line_eviction_scores.size(), 4u);
    // The history is accesses 1-4, most recent last.
    const std::vector<PcAddr> window = {{0xB00, 0x1040},
                                        {0xA00, 0x1080},
                                        {0xB00, 0x1000},
                                        {0xA00, 0x1040}};
    EXPECT_EQ(row5.recent_access_history, window);
    // Early rows see only the accesses before them.
    EXPECT_TRUE(t.row(0).recent_access_history.empty());
    EXPECT_EQ(t.row(2).recent_access_history,
              (std::vector<PcAddr>{{0xA00, 0x1000}, {0xB00, 0x1040}}));
}

TEST(TraceTableTest, RecencyText)
{
    const auto t = makeTinyTable();
    EXPECT_EQ(t.recencyTextAt(0), "first access");
    EXPECT_EQ(t.recencyTextAt(4), "very recent");
}

TEST(TraceTableTest, UniquePcsSorted)
{
    const auto t = makeTinyTable();
    const auto pcs = t.uniquePcs();
    ASSERT_EQ(pcs.size(), 2u);
    EXPECT_EQ(pcs[0], 0xA00u);
    EXPECT_EQ(pcs[1], 0xB00u);
}

TEST(StatsExpertTest, PcAggregates)
{
    const auto t = makeTinyTable();
    const StatsExpert expert(t);
    const auto a = expert.pcStats(0xA00);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->accesses, 5u);
    EXPECT_EQ(a->misses, 2u); // accesses 0 and 2 miss
    EXPECT_NEAR(a->missRate(), 0.4, 1e-12);
    EXPECT_FALSE(expert.pcStats(0xDEAD).has_value());
}

TEST(StatsExpertTest, SummaryTotals)
{
    const auto t = makeTinyTable();
    const StatsExpert expert(t);
    const auto &s = expert.summary();
    EXPECT_EQ(s.accesses, 10u);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.wrong_evictions, 1u);
    EXPECT_EQ(s.unique_pcs, 2u);
    EXPECT_NEAR(s.missRate(), 0.3, 1e-12);
}

TEST(StatsExpertTest, MetadataStringContainsHeadlines)
{
    const auto t = makeTinyTable();
    const StatsExpert expert(t);
    const auto meta = buildMetadataString(expert);
    EXPECT_NE(meta.find("10 total accesses"), std::string::npos);
    EXPECT_NE(meta.find("3 total misses"), std::string::npos);
    EXPECT_NE(meta.find("30.00% miss rate"), std::string::npos);
    EXPECT_NE(meta.find("wrong evictions"), std::string::npos);
    EXPECT_NE(meta.find("correlation"), std::string::npos);
}

TEST(DatabaseTest, KeyFormat)
{
    EXPECT_EQ(TraceDatabase::keyFor("lbm", "lru"), "lbm_evictions_lru");
}

TEST(DatabaseTest, EndToEndSingleBuild)
{
    const auto db = buildSingleDatabase(trace::WorkloadKind::Microbench,
                                        policy::PolicyKind::Lru, 40000);
    ASSERT_EQ(db.size(), 1u);
    const auto *entry = db.find("microbench", "lru");
    ASSERT_NE(entry, nullptr);
    EXPECT_GT(entry->table.size(), 1000u);
    EXPECT_NE(entry->metadata.find("total accesses"),
              std::string::npos);
    EXPECT_NE(entry->description.find("LRU"), std::string::npos);
    // The dominant chase PC must be present with assembly context.
    EXPECT_TRUE(entry->table.containsPc(0x400512));
    const auto rows = [&] {
        const std::uint64_t pc = 0x400512;
        return entry->table.filter(&pc, nullptr, 1);
    }();
    ASSERT_FALSE(rows.empty());
    // Source context is per PC, from the table's symbol table.
    const auto row = entry->table.row(rows[0]);
    const auto *symbols = entry->table.symbols();
    ASSERT_NE(symbols, nullptr);
    EXPECT_EQ(symbols->functionName(row.program_counter), "chase");
    EXPECT_NE(symbols->assemblyAround(row.program_counter).find("chase"),
              std::string::npos);
}

TEST(DatabaseTest, StatsForIsCachedAndCorrect)
{
    const auto db = buildSingleDatabase(trace::WorkloadKind::Microbench,
                                        policy::PolicyKind::Lru, 30000);
    const auto *expert =
        db.statsFor(TraceDatabase::keyFor("microbench", "lru"));
    ASSERT_NE(expert, nullptr);
    EXPECT_EQ(expert,
              db.statsFor(TraceDatabase::keyFor("microbench", "lru")));
    EXPECT_GT(expert->summary().accesses, 0u);
    EXPECT_EQ(db.statsFor("nonexistent_key"), nullptr);
}

TEST(DatabaseTest, WorkloadAndPolicyEnumeration)
{
    BuildOptions opts;
    opts.workloads = {trace::WorkloadKind::Microbench};
    opts.policies = {policy::PolicyKind::Lru,
                     policy::PolicyKind::Belady};
    opts.accesses_override = 20000;
    const auto db = buildDatabase(opts);
    EXPECT_EQ(db.size(), 2u);
    const auto ws = db.workloads();
    ASSERT_EQ(ws.size(), 1u);
    EXPECT_EQ(ws[0], "microbench");
    const auto ps = db.policies();
    ASSERT_EQ(ps.size(), 2u);
    EXPECT_EQ(ps[0], "belady");
    EXPECT_EQ(ps[1], "lru");
}

TEST(DatabaseTest, BeladyEntryHasNoWrongEvictions)
{
    const auto db = buildSingleDatabase(trace::WorkloadKind::Microbench,
                                        policy::PolicyKind::Belady,
                                        30000);
    const auto *expert =
        db.statsFor(TraceDatabase::keyFor("microbench", "belady"));
    ASSERT_NE(expert, nullptr);
    EXPECT_EQ(expert->summary().wrong_evictions, 0u);
}

TEST(StatsExpertTest, HotColdSetsOnRealTrace)
{
    const auto db = buildSingleDatabase(trace::WorkloadKind::Astar,
                                        policy::PolicyKind::Lru, 60000);
    const auto *expert =
        db.statsFor(TraceDatabase::keyFor("astar", "lru"));
    ASSERT_NE(expert, nullptr);
    const auto hot = expert->hottestSets(5);
    const auto cold = expert->coldestSets(5);
    ASSERT_EQ(hot.size(), 5u);
    ASSERT_EQ(cold.size(), 5u);
    EXPECT_GT(hot.front().hitRate(), cold.front().hitRate());
}

TEST(StatsExpertTest, TopPcsOrdering)
{
    const auto db = buildSingleDatabase(trace::WorkloadKind::Mcf,
                                        policy::PolicyKind::Lru, 60000);
    const auto *expert =
        db.statsFor(TraceDatabase::keyFor("mcf", "lru"));
    const auto top = expert->topPcs(3, StatsExpert::PcOrder::MissCount);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_GE(top[0].misses, top[1].misses);
    EXPECT_GE(top[1].misses, top[2].misses);
}

TEST(TraceTableTest, HistoryIsThePrecedingRows)
{
    const auto db = buildSingleDatabase(trace::WorkloadKind::Mcf,
                                        policy::PolicyKind::Lru, 20000);
    const auto &t = db.find("mcf", "lru")->table;
    const std::size_t history_len = BuildOptions{}.history_len;
    ASSERT_GT(t.size(), history_len);
    for (std::size_t i = 0; i < t.size(); ++i) {
        std::vector<PcAddr> expected;
        for (std::size_t j = i - std::min(i, history_len); j < i; ++j)
            expected.push_back(PcAddr{t.pcAt(j), t.addressAt(j)});
        ASSERT_EQ(t.row(i).recent_access_history, expected)
            << "row " << i;
    }
}

namespace {

/** One load per (pc, line) pair, at the line's first byte. */
std::vector<sim::LlcAccess>
lineStream(const std::vector<std::pair<std::uint64_t, std::uint64_t>>
               &pc_lines)
{
    std::vector<sim::LlcAccess> stream;
    for (const auto &[pc, line] : pc_lines)
        stream.push_back(sim::LlcAccess{pc, line * 64, line,
                                        trace::AccessType::Load});
    return stream;
}

} // namespace

TEST(TraceTableTest, RowReferencesMatchReplayedEvents)
{
    // A small LLC so that sets fill and lines are evicted often.
    sim::CacheConfig llc = sim::defaultHierarchyConfig().llc;
    llc.sets = 64;
    llc.ways = 4;
    const auto stream = sim::captureLlcStream(
        trace::makeWorkload(trace::WorkloadKind::Mcf)->generate(20000));
    const auto oracle = sim::computeOracle(stream);
    for (const auto pk :
         {policy::PolicyKind::Lru, policy::PolicyKind::Belady,
          policy::PolicyKind::Parrot, policy::PolicyKind::Mlp}) {
        const TraceTable t = replayChecked(
            llc, makeReplayPolicy(pk, stream, oracle), stream, oracle);
        std::size_t victims = 0;
        for (std::size_t i = 0; i < t.size(); ++i)
            victims += t.hasVictimAt(i) ? 1 : 0;
        // Belady bypasses most dead fills; every policy still evicts.
        EXPECT_GT(victims, 100u) << policy::policyName(pk);
    }
}

TEST(TraceTableTest, SnapshotRebuildEdgeCases)
{
    sim::CacheConfig llc = sim::defaultHierarchyConfig().llc;
    llc.sets = 2;
    llc.ways = 4;
    // Even lines map to set 0, odd lines to set 1. PC 0xBAD's misses
    // are bypassed. In set 0: four fills (line 0 first), two bypassed
    // misses between two touches of line 2, then line 0, the set's
    // first access and the oldest line, is never touched again while
    // the others are hit, so LRU evicts it with line 10. Set 1 never
    // fills: line 1 is hit over and over.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> accesses = {
        {0xA0, 0}, {0xA1, 2}, {0xA2, 4}, {0xA3, 6},   // rows 0-3
        {0xA0, 1},                                    // row 4
        {0xBAD, 8}, {0xA4, 2}, {0xBAD, 12}, {0xA5, 2}, // rows 5-8
    };
    for (int k = 0; k < 12; ++k) {
        accesses.push_back({0xB0 + static_cast<std::uint64_t>(k), 1});
        accesses.push_back(
            {0xC0, 4 + 2 * static_cast<std::uint64_t>(k % 2)});
    }
    accesses.push_back({0xD0, 10}); // evicts line 0
    accesses.push_back({0xD1, 3});  // set 1's second line
    const auto stream = lineStream(accesses);
    const auto oracle = sim::computeOracle(stream);
    const TraceTable t = replayChecked(
        llc, policy::makePolicy(policy::PolicyKind::Lru), stream, oracle,
        [](std::uint64_t pc) { return pc == 0xBAD; });

    // Each set's first access sees an empty set.
    EXPECT_TRUE(t.row(0).current_cache_lines.empty());
    EXPECT_TRUE(t.row(4).current_cache_lines.empty());
    // Bypassed rows leave the set as it was.
    ASSERT_TRUE(t.bypassedAt(5));
    ASSERT_TRUE(t.bypassedAt(7));
    const std::vector<PcAddr> before_bypass = {
        {0xA0, 0}, {0xA1, 128}, {0xA2, 256}, {0xA3, 384}};
    EXPECT_EQ(t.row(5).current_cache_lines, before_bypass);
    EXPECT_EQ(t.row(6).current_cache_lines, before_bypass);
    const std::vector<PcAddr> after_hit = {
        {0xA0, 0}, {0xA4, 128}, {0xA2, 256}, {0xA3, 384}};
    EXPECT_EQ(t.row(7).current_cache_lines, after_hit);
    EXPECT_EQ(t.row(8).current_cache_lines, after_hit);
    // The full set's oldest line is still the set's first access.
    const std::size_t evicting = 9 + 2 * 12;
    ASSERT_EQ(t.pcAt(evicting), 0xD0u);
    EXPECT_EQ(t.row(evicting).current_cache_lines[0], (PcAddr{0xA0, 0}));
    EXPECT_TRUE(t.hasVictimAt(evicting));
    EXPECT_EQ(t.evictedPcAt(evicting), 0xA0u);
    // Set 1 still holds one line, last touched by the latest of its
    // twelve hits (row 31, PC 0xBB).
    ASSERT_EQ(t.pcAt(evicting + 1), 0xD1u);
    EXPECT_EQ(t.row(evicting + 1).current_cache_lines,
              (std::vector<PcAddr>{{0xBB, 64}}));
}

TEST(TraceTableTest, SnapshotRebuildWithOneWay)
{
    // Direct-mapped: every set holds one line, and every miss to a
    // full set evicts it.
    sim::CacheConfig llc = sim::defaultHierarchyConfig().llc;
    llc.sets = 4;
    llc.ways = 1;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> accesses;
    for (std::uint64_t k = 0; k < 40; ++k)
        accesses.push_back({0x100 + k, (k * 7) % 12});
    const auto stream = lineStream(accesses);
    const auto oracle = sim::computeOracle(stream);
    const TraceTable t = replayChecked(
        llc, policy::makePolicy(policy::PolicyKind::Lru), stream, oracle);
    std::size_t victims = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_LE(t.row(i).current_cache_lines.size(), 1u);
        victims += t.hasVictimAt(i) ? 1 : 0;
    }
    EXPECT_GT(victims, 20u);
}

TEST(TraceTableDeathTest, AppendRejectsScoresThatBreakTheirRule)
{
    // LRU's scores age by one per access, but an access a bypass
    // filter turns away never reaches the policy and does not tick its
    // clock. One set of two ways: rows 0 and 1 fill it, row 2 is
    // turned away, and at row 3 way 0 reads 1 where the rule gives 2.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const sim::CacheConfig llc{"llc", 1, 2, 64, 26, 64};
    const auto stream =
        lineStream({{0xA0, 0}, {0xA1, 2}, {0xBAD, 4}, {0xA0, 0}});
    const auto oracle = sim::computeOracle(stream);
    const auto replay = [&](bool filter) {
        TraceTable t;
        auto pol = policy::makePolicy(policy::PolicyKind::Lru);
        setUpTable(t, llc, *pol, stream.size(), 0);
        sim::LlcReplayer replayer(llc, std::move(pol));
        if (filter) {
            replayer.cache().setBypassFilter(
                [](std::uint64_t pc) { return pc == 0xBAD; });
        }
        replayer.replay(stream, &oracle, [&](const sim::ReplayEvent &ev) {
            t.append(ev);
        });
        return t.size();
    };
    EXPECT_EQ(replay(false), stream.size());
    EXPECT_DEATH(replay(true),
                 "row 3: way 0 scores 1 where its policy's score rule "
                 "gives 2");
}

namespace {

/**
 * Deterministic digest of every columnar field plus a sample of fully
 * materialised rows (string columns included) — byte-identical tables
 * produce byte-identical digests.
 */
std::string
tableFingerprint(const TraceTable &t)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < t.size(); ++i) {
        os << t.pcAt(i) << ',' << t.addressAt(i) << ',' << t.setAt(i)
           << ',' << t.isMissAt(i) << t.bypassedAt(i)
           << t.hasVictimAt(i) << t.wrongEvictionAt(i) << ','
           << static_cast<int>(t.missTypeAt(i)) << ','
           << t.reuseDistanceAt(i) << ',' << t.recencyAt(i) << ','
           << t.evictedReuseDistanceAt(i) << ','
           << t.evictedAddressAt(i) << ',' << t.evictedPcAt(i) << '\n';
        if (i % 97 == 0) {
            const auto row = t.row(i);
            if (t.symbols())
                os << t.symbols()->functionName(row.program_counter);
            os << '|' << row.recency_text << '|';
            for (const auto &h : row.recent_access_history)
                os << h.pc << ':' << h.address << ' ';
            os << '|';
            for (const auto &l : row.current_cache_lines)
                os << l.pc << ':' << l.address << ' ';
            os << '|';
            for (const auto score : row.cache_line_eviction_scores)
                os << score << ' ';
            os << '\n';
        }
    }
    return os.str();
}

} // namespace

TEST(DatabaseTest, StatsForIsThreadSafeOnOverlappingKeys)
{
    BuildOptions opts;
    opts.workloads = {trace::WorkloadKind::Microbench};
    opts.policies = {policy::PolicyKind::Lru,
                     policy::PolicyKind::Belady};
    opts.accesses_override = 20000;
    const auto db = buildDatabase(opts);
    const auto keys = db.keys();
    ASSERT_EQ(keys.size(), 2u);

    // Hammer statsFor from 8 threads on overlapping (and identical)
    // keys: every observation must be the key's one expert.
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kIters = 200;
    std::vector<std::vector<const StatsExpert *>> seen(kThreads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t iter = 0; iter < kIters; ++iter) {
                for (const auto &key : keys)
                    seen[t].push_back(db.statsFor(key));
            }
        });
    }
    for (auto &t : pool)
        t.join();

    for (std::size_t t = 0; t < kThreads; ++t) {
        ASSERT_EQ(seen[t].size(), kIters * keys.size());
        for (std::size_t i = 0; i < seen[t].size(); ++i) {
            ASSERT_NE(seen[t][i], nullptr);
            EXPECT_EQ(seen[t][i], db.statsFor(keys[i % keys.size()]));
        }
    }
}

TEST(DatabaseTest, EnumerationsAreSortedAndDeduplicated)
{
    BuildOptions opts;
    // Insertion order deliberately not alphabetical.
    opts.workloads = {trace::WorkloadKind::Microbench,
                      trace::WorkloadKind::Astar};
    opts.policies = {policy::PolicyKind::Lru, policy::PolicyKind::Belady,
                     policy::PolicyKind::Mlp};
    opts.accesses_override = 20000;
    const auto db = buildDatabase(opts);
    ASSERT_EQ(db.size(), 6u);

    // Each workload appears in 3 entries and each policy in 2, but
    // the enumerations are deduplicated and sorted.
    const std::vector<std::string> want_ws{"astar", "microbench"};
    EXPECT_EQ(db.workloads(), want_ws);
    const std::vector<std::string> want_ps{"belady", "lru", "mlp"};
    EXPECT_EQ(db.policies(), want_ps);
    const auto shards = db.shards();
    EXPECT_EQ(shards.workloads(), want_ws);
    EXPECT_EQ(shards.policies(), want_ps);
}

TEST(ShardTest, ShardViewExposesEntryStatsAndSymbols)
{
    const auto db = buildSingleDatabase(trace::WorkloadKind::Microbench,
                                        policy::PolicyKind::Lru, 20000);
    const auto view = db.shard("microbench", "lru");
    ASSERT_TRUE(view.valid());
    EXPECT_EQ(view.key(), "microbench_evictions_lru");
    EXPECT_EQ(&view.entry(), db.find("microbench", "lru"));
    EXPECT_EQ(&view.table(), &db.find("microbench", "lru")->table);
    EXPECT_EQ(view.stats(), db.statsFor("microbench_evictions_lru"));
    EXPECT_EQ(view.symbols(), db.symbolsFor("microbench"));

    const auto missing = db.shard("no_such_key");
    EXPECT_FALSE(missing.valid());
    EXPECT_EQ(missing.stats(), nullptr);
    EXPECT_EQ(missing.symbols(), nullptr);
}

TEST(ShardTest, ShardSetSubsetsByWorkload)
{
    BuildOptions opts;
    opts.workloads = {trace::WorkloadKind::Microbench,
                      trace::WorkloadKind::Astar};
    opts.policies = {policy::PolicyKind::Lru,
                     policy::PolicyKind::Belady};
    opts.accesses_override = 20000;
    const auto db = buildDatabase(opts);

    const ShardSet all = db.shards();
    EXPECT_EQ(all.size(), 4u);
    EXPECT_EQ(all.keys(), db.keys());
    EXPECT_EQ(all.statsFor("astar_evictions_lru"),
              db.statsFor("astar_evictions_lru"));

    const ShardSet micro = all.forWorkload("microbench");
    EXPECT_EQ(micro.size(), 2u);
    EXPECT_EQ(micro.workloads(),
              std::vector<std::string>{"microbench"});
    const std::vector<std::string> want_ps{"belady", "lru"};
    EXPECT_EQ(micro.policies(), want_ps);
    EXPECT_NE(micro.find("microbench", "lru"), nullptr);
    EXPECT_EQ(micro.find("astar", "lru"), nullptr);
    EXPECT_FALSE(micro.shard("astar_evictions_lru").valid());

    EXPECT_TRUE(all.forWorkload("no_such_workload").empty());
}

// ----------------------------------------------- postings index

TEST(TraceIndexTest, FilterMatchesReferenceScanOnRandomQueries)
{
    // Property test: indexed filter() must be byte-identical to the
    // reference scan over randomized (pc, address, limit) queries,
    // including keys absent from the table.
    const auto db = buildSingleDatabase(trace::WorkloadKind::Mcf,
                                        policy::PolicyKind::Lru, 50000);
    const auto *entry = db.find("mcf", "lru");
    const TraceTable &t = entry->table;
    const auto pcs = t.uniquePcsScan();
    ASSERT_FALSE(pcs.empty());

    std::mt19937_64 rng(0xfeedULL);
    for (int iter = 0; iter < 400; ++iter) {
        const bool with_pc = rng() % 4 != 0;
        const bool with_addr = rng() % 2 == 0;
        if (!with_pc && !with_addr)
            continue;
        // 1 in 5 keys is absent from the table on purpose.
        std::uint64_t pc = rng() % 5 == 0
                               ? 0xdead0000 + (rng() % 64)
                               : pcs[rng() % pcs.size()];
        std::uint64_t addr = rng() % 5 == 0
                                 ? 0x1234000 + (rng() % 64)
                                 : t.addressAt(rng() % t.size());
        const std::size_t limits[] = {0, 1, 7, 64};
        const std::size_t limit = limits[rng() % 4];

        const auto indexed = t.filter(with_pc ? &pc : nullptr,
                                      with_addr ? &addr : nullptr,
                                      limit);
        const auto scanned = t.filterScan(with_pc ? &pc : nullptr,
                                          with_addr ? &addr : nullptr,
                                          limit);
        ASSERT_EQ(indexed, scanned)
            << "iter=" << iter << " pc=" << with_pc << ":" << pc
            << " addr=" << with_addr << ":" << addr
            << " limit=" << limit;
    }
}

TEST(TraceIndexTest, EveryAddressOfARealTraceFiltersLikeTheScan)
{
    // astar revisits its addresses up to hundreds of times, so a sort
    // that lost the row order within one address would show here.
    const auto db = buildSingleDatabase(trace::WorkloadKind::Astar,
                                        policy::PolicyKind::Lru);
    const TraceTable &t = db.find("astar", "lru")->table;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
        expected;
    for (std::size_t i = 0; i < t.size(); ++i)
        expected[t.addressAt(i)].push_back(static_cast<std::uint32_t>(i));
    const auto pcs = t.uniquePcsScan();

    std::size_t longest = 0, untouched_checks = 0;
    for (const auto &[address, rows] : expected) {
        longest = std::max(longest, rows.size());
        ASSERT_EQ(t.filter(nullptr, &address), rows) << address;
        ASSERT_EQ(t.filter(nullptr, &address, 1),
                  std::vector<std::uint32_t>{rows.front()})
            << address;

        // A PC that touched the address gets exactly its own rows.
        const std::uint64_t toucher = t.pcAt(rows.back());
        std::vector<std::uint32_t> toucher_rows;
        for (const auto r : rows) {
            if (t.pcAt(r) == toucher)
                toucher_rows.push_back(r);
        }
        ASSERT_EQ(t.filter(&toucher, &address), toucher_rows) << address;

        // A PC that never touched it gets nothing.
        for (const auto pc : pcs) {
            const bool touched =
                std::any_of(rows.begin(), rows.end(), [&](auto r) {
                    return t.pcAt(r) == pc;
                });
            if (!touched) {
                ASSERT_TRUE(t.filter(&pc, &address).empty()) << address;
                ++untouched_checks;
                break;
            }
        }
    }
    EXPECT_GT(longest, 100u);
    EXPECT_GT(untouched_checks, 0u);
}

TEST(TraceIndexTest, AddressFilterMatchesScanOnRadixEdgeKeys)
{
    // The index sorts addresses by 11-bit digits and skips a digit no
    // address varies in. Edge keys: the extremes, pairs that differ
    // only in bit 0, bit 63 or the first or last bit of a digit (each
    // pair alone in its table, so only that bit varies), one address
    // on every row (no digit varies), and a descending run.
    const std::uint64_t base = 0x5a5a5a5a5a5a5a40ULL;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs = {
        {0, ~0ULL}, {base, base ^ 1}, {base, base ^ (1ULL << 63)}};
    for (unsigned shift = 0; shift < 64; shift += 11) {
        pairs.emplace_back(base, base ^ (1ULL << shift));
        pairs.emplace_back(
            base, base ^ (1ULL << std::min(shift + 10, 63u)));
    }
    std::vector<std::vector<std::uint64_t>> tables;
    std::vector<std::uint64_t> every_key;
    for (const auto &[lo, hi] : pairs) {
        tables.push_back({hi, lo, lo, hi, lo, hi, hi});
        every_key.push_back(lo);
        every_key.push_back(hi);
    }
    // Every key at once, twice, the second time in reverse row order.
    const std::vector<std::uint64_t> reversed(every_key.rbegin(),
                                              every_key.rend());
    every_key.insert(every_key.end(), reversed.begin(), reversed.end());
    tables.push_back(every_key);
    tables.emplace_back(9, base);
    std::vector<std::uint64_t> descending;
    for (std::uint64_t i = 0; i < 40; ++i)
        descending.push_back((40 - i) * 0x10000000040ULL);
    tables.push_back(descending);

    for (const auto &addresses : tables) {
        const TraceTable t = makeAddressTable(addresses);
        std::vector<std::uint64_t> probes = addresses;
        probes.push_back(base + 64); // absent
        probes.push_back(1);         // absent
        const std::uint64_t pcs[] = {0xA00, 0xB00, 0xC00};
        for (const auto address : probes) {
            for (const std::size_t limit : {0, 1, 2}) {
                ASSERT_EQ(t.filter(nullptr, &address, limit),
                          t.filterScan(nullptr, &address, limit))
                    << address << " limit " << limit;
                for (const auto &pc : pcs) {
                    ASSERT_EQ(t.filter(&pc, &address, limit),
                              t.filterScan(&pc, &address, limit))
                        << address << " pc " << pc << " limit "
                        << limit;
                }
            }
        }
        ASSERT_NE(t.indexIfBuilt(), nullptr);
    }
}

TEST(TraceIndexTest, PerKeyCountsMatchStatsExpert)
{
    const auto t = makeTinyTable();
    const TraceIndex &idx = t.index();
    const StatsExpert expert(t);

    EXPECT_EQ(idx.rows(), t.size());
    EXPECT_EQ(idx.totals().accesses, expert.summary().accesses);
    EXPECT_EQ(idx.totals().misses, expert.summary().misses);
    EXPECT_EQ(idx.totals().evictions, expert.summary().evictions);

    for (const auto pc : t.uniquePcsScan()) {
        const auto id = t.pcIdOf(pc);
        ASSERT_TRUE(id.has_value());
        const IndexKeyCounts *c = idx.pcCounts(*id);
        ASSERT_NE(c, nullptr);
        const auto ps = expert.pcStats(pc);
        ASSERT_TRUE(ps.has_value());
        EXPECT_EQ(c->accesses, ps->accesses) << pc;
        EXPECT_EQ(c->misses, ps->misses) << pc;
        EXPECT_EQ(c->hits(), ps->hits) << pc;
        // Postings lengths agree with the counters.
        EXPECT_EQ(idx.pcPostings(*id).size(), c->accesses) << pc;
    }
    for (const auto &ss : expert.allSetStats()) {
        const IndexKeyCounts *c = idx.setCounts(ss.set);
        ASSERT_NE(c, nullptr);
        EXPECT_EQ(c->accesses, ss.accesses);
        EXPECT_EQ(c->hits(), ss.hits);
        EXPECT_EQ(idx.setPostings(ss.set).size(), c->accesses);
    }
    EXPECT_EQ(idx.setCounts(0xffff), nullptr);
    EXPECT_TRUE(idx.setPostings(0xffff).empty());
}

TEST(TraceIndexTest, UniqueListingsAreCachedAndMatchScan)
{
    const auto t = makeTinyTable();
    EXPECT_EQ(t.uniquePcs(), t.uniquePcsScan());
    EXPECT_EQ(t.uniqueSets(), t.uniqueSetsScan());
    // Cached: repeated calls return the same build-time vector.
    EXPECT_EQ(&t.uniquePcs(), &t.uniquePcs());
    EXPECT_EQ(&t.uniqueSets(), &t.uniqueSets());
}

TEST(TraceIndexTest, KernelIntersectionAgainstNaive)
{
    // The skewed-pair case the galloping kernel is built for, run
    // through the chunked containers and the adaptive selector.
    std::mt19937_64 rng(0x5eedULL);
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<std::uint32_t> a, b;
        const std::size_t na = 1 + rng() % 8;
        const std::size_t nb = 1 + rng() % 512;
        for (std::size_t i = 0; i < na; ++i)
            a.push_back(rng() % 600);
        for (std::size_t i = 0; i < nb; ++i)
            b.push_back(rng() % 600);
        for (auto *v : {&a, &b}) {
            std::sort(v->begin(), v->end());
            v->erase(std::unique(v->begin(), v->end()), v->end());
        }
        std::vector<std::uint32_t> naive;
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(naive));
        PostingsStore sa, sb;
        sa.appendKey(a.data(), a.size());
        sb.appendKey(b.data(), b.size());
        std::vector<std::uint32_t> out;
        intersectLists(sa.list(0), sb.list(0), 0, out);
        EXPECT_EQ(out, naive) << iter;
        // Limit early-exit keeps the prefix.
        if (naive.size() > 1) {
            naive.resize(1);
            intersectLists(sa.list(0), sb.list(0), 1, out);
            EXPECT_EQ(out, naive) << iter;
        }
    }
}

TEST(TraceIndexTest, LazyBuildIsThreadSafeAndStable)
{
    // TSan-covered hammer: concurrent readers racing to trigger the
    // lazy per-shard index build must all observe one index (same
    // pattern — and same CI job — as the statsFor expert hammer).
    BuildOptions opts;
    opts.workloads = {trace::WorkloadKind::Microbench};
    opts.policies = {policy::PolicyKind::Lru,
                     policy::PolicyKind::Belady};
    opts.accesses_override = 20000;
    const auto db = buildDatabase(opts);
    const ShardSet shards = db.shards();
    const auto keys = shards.keys();

    // Before anyone touches it, no shard reports a built index.
    EXPECT_EQ(shards.indexTotals().shards_indexed, 0u);

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kIters = 100;
    std::vector<std::vector<const TraceIndex *>> seen(kThreads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t iter = 0; iter < kIters; ++iter) {
                for (const auto &key : keys) {
                    const auto view = shards.shard(key);
                    seen[t].push_back(view.index());
                    // Exercise reads through the fresh index too.
                    const auto &table = view.table();
                    const std::uint64_t pc = table.pcAt(iter % 7);
                    const auto rows = table.filter(&pc, nullptr, 3);
                    if (!rows.empty())
                        seen[t].back()->noteLookup(rows.size());
                }
            }
        });
    }
    for (auto &t : pool)
        t.join();

    for (std::size_t t = 0; t < kThreads; ++t) {
        ASSERT_EQ(seen[t].size(), kIters * keys.size());
        for (std::size_t i = 0; i < seen[t].size(); ++i) {
            ASSERT_NE(seen[t][i], nullptr);
            EXPECT_EQ(seen[t][i],
                      shards.indexFor(keys[i % keys.size()]));
        }
    }

    const auto totals = shards.indexTotals();
    EXPECT_EQ(totals.shards_indexed, keys.size());
    EXPECT_GT(totals.lookups, 0u);
    EXPECT_GT(totals.rows_skipped, 0u);
}

TEST(BuilderTest, ParallelBuildIsByteIdenticalAcrossThreadCounts)
{
    BuildOptions opts;
    opts.workloads = {trace::WorkloadKind::Microbench,
                      trace::WorkloadKind::Astar};
    opts.policies = {policy::PolicyKind::Lru,
                     policy::PolicyKind::Belady,
                     policy::PolicyKind::Parrot};
    opts.accesses_override = 20000;

    opts.build_threads = 1;
    const auto reference = buildDatabase(opts);
    const auto ref_keys = reference.keys();
    ASSERT_EQ(ref_keys.size(), 6u);

    for (const std::size_t threads : {2u, 8u}) {
        opts.build_threads = threads;
        const auto parallel = buildDatabase(opts);
        ASSERT_EQ(parallel.keys(), ref_keys)
            << "threads=" << threads;
        for (const auto &key : ref_keys) {
            const auto *a = reference.find(key);
            const auto *b = parallel.find(key);
            ASSERT_NE(b, nullptr) << key;
            EXPECT_EQ(a->workload, b->workload) << key;
            EXPECT_EQ(a->policy, b->policy) << key;
            EXPECT_EQ(a->metadata, b->metadata) << key;
            EXPECT_EQ(a->description, b->description) << key;
            ASSERT_EQ(a->table.size(), b->table.size()) << key;
            EXPECT_EQ(tableFingerprint(a->table),
                      tableFingerprint(b->table))
                << key << " threads=" << threads;
        }
    }
}

TEST(ShardTest, WarmIndexesMatchesLazyBuildAndIsIdempotent)
{
    BuildOptions opts;
    opts.workloads = {trace::WorkloadKind::Microbench};
    opts.policies = {policy::PolicyKind::Lru,
                     policy::PolicyKind::Belady};
    opts.accesses_override = 20000;

    // Two byte-identical databases: one warmed up front, one indexed
    // lazily by queries. Warm-up must change when indexes are built,
    // never what they contain.
    const auto warm_db = buildDatabase(opts);
    const auto lazy_db = buildDatabase(opts);
    const ShardSet warm = warm_db.shards();
    const ShardSet lazy = lazy_db.shards();
    const auto keys = warm.keys();

    EXPECT_EQ(warm.indexTotals().shards_indexed, 0u);
    EXPECT_EQ(warm.warmIndexes(4), keys.size());
    EXPECT_EQ(warm.indexTotals().shards_indexed, keys.size());
    // Idempotent: a second pass finds nothing to build.
    EXPECT_EQ(warm.warmIndexes(4), 0u);

    for (const auto &key : keys) {
        const auto *wt = &warm.find(key)->table;
        const auto *lt = &lazy.find(key)->table;
        for (std::size_t k = 0; k < 5; ++k) {
            const std::uint64_t pc = wt->pcAt(k * 97 % wt->size());
            // The lazy side builds its index on first filter; both
            // sides must return identical row sets.
            EXPECT_EQ(wt->filter(&pc, nullptr, 16),
                      lt->filter(&pc, nullptr, 16))
                << key;
        }
        EXPECT_EQ(wt->uniquePcs(), lt->uniquePcs()) << key;
        EXPECT_EQ(wt->uniqueSets(), lt->uniqueSets()) << key;
    }
    EXPECT_EQ(lazy.indexTotals().shards_indexed, keys.size());
}

TEST(ShardTest, WarmIndexesWhileQueryingIsThreadSafe)
{
    // TSan-covered hammer: a parallel warm-up pass racing readers
    // that themselves trigger lazy builds. Every build still runs
    // under its shard's once_flag, so all observers agree on one
    // index per shard.
    BuildOptions opts;
    opts.workloads = {trace::WorkloadKind::Microbench};
    opts.policies = {policy::PolicyKind::Lru,
                     policy::PolicyKind::Belady};
    opts.accesses_override = 20000;
    const auto db = buildDatabase(opts);
    const ShardSet shards = db.shards();
    const auto keys = shards.keys();

    constexpr std::size_t kReaders = 4;
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kReaders; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t iter = 0; iter < 50; ++iter) {
                for (const auto &key : keys) {
                    const auto &table = shards.find(key)->table;
                    const std::uint64_t pc =
                        table.pcAt((t * 31 + iter) % table.size());
                    const auto rows = table.filter(&pc, nullptr, 4);
                    EXPECT_FALSE(rows.empty());
                }
            }
        });
    }
    // Warm from the main thread while the readers hammer.
    shards.warmIndexes(4);
    for (auto &t : pool)
        t.join();

    EXPECT_EQ(shards.indexTotals().shards_indexed, keys.size());
    for (const auto &key : keys)
        EXPECT_NE(shards.indexFor(key), nullptr) << key;
}
