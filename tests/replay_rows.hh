/**
 * @file
 * Test helpers: replay a stream under a policy as the database builder
 * does, and compare a trace table's row with the replay event it was
 * appended from, field by field, the rebuilt snapshot and the derived
 * scores included.
 */

#ifndef CACHEMIND_TESTS_REPLAY_ROWS_HH
#define CACHEMIND_TESTS_REPLAY_ROWS_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "db/builder.hh"
#include "db/table.hh"
#include "policy/parrot.hh"
#include "sim/llc_replay.hh"

/** Policy `pk` as the database builder makes it: Parrot trained. */
inline std::unique_ptr<cachemind::policy::ReplacementPolicy>
makeReplayPolicy(cachemind::policy::PolicyKind pk,
                 const std::vector<cachemind::sim::LlcAccess> &stream,
                 const cachemind::sim::OracleInfo &oracle)
{
    using namespace cachemind;
    if (pk != policy::PolicyKind::Parrot)
        return policy::makePolicy(pk);
    return std::make_unique<policy::ParrotPolicy>(
        sim::ParrotModelBuilder::train(stream, oracle));
}

/** How row `ev.index` of `t` differs from its event, or "". */
inline std::string
rowMismatch(const cachemind::db::TraceTable &t,
            const cachemind::sim::ReplayEvent &ev, std::uint32_t line_bytes)
{
    using namespace cachemind;
    const db::AccessRow row = t.row(ev.index);
    std::vector<db::PcAddr> lines;
    for (const auto &entry : ev.snapshot)
        lines.push_back(db::PcAddr{entry.pc, entry.line * line_bytes});
    std::vector<std::uint64_t> scores;
    for (const auto score : ev.scores)
        scores.push_back(std::min<std::uint64_t>(score, 0xffffffffULL));
    const auto distance = [](std::uint64_t v) {
        return v == policy::kNoNextUse ? db::kNoValue
                                       : static_cast<std::int64_t>(v);
    };
    const char *field =
        row.program_counter != ev.pc           ? "pc"
        : row.memory_address != ev.address     ? "address"
        : row.cache_set_id != ev.set           ? "set"
        : row.is_miss == ev.hit                ? "hit"
        : row.bypassed != ev.bypassed          ? "bypassed"
        : row.miss_type != ev.miss_type        ? "miss type"
        : row.has_victim != ev.has_victim      ? "victim"
        : row.evicted_address !=
                (ev.has_victim ? ev.evicted_line * line_bytes : 0)
            ? "evicted address"
        : t.evictedPcAt(ev.index) != (ev.has_victim ? ev.evicted_pc : 0)
            ? "evicted pc"
        : row.accessed_reuse_distance != distance(ev.reuse_distance)
            ? "reuse distance"
        : row.accessed_recency != distance(ev.recency) ? "recency"
        : row.evicted_reuse_distance !=
                distance(ev.evicted_reuse_distance)
            ? "evicted reuse distance"
        : row.wrong_eviction != ev.wrong_eviction ? "wrong eviction"
        : row.current_cache_lines != lines        ? "cache lines"
        : row.cache_line_eviction_scores != scores ? "scores"
                                                   : nullptr;
    return field ? "row " + std::to_string(ev.index) + ": " + field
                 : std::string();
}

/**
 * Replay `stream` on `llc` into a table set up as the database builder
 * sets up each of its tables, and check every row against its event.
 */
inline cachemind::db::TraceTable
replayChecked(const cachemind::sim::CacheConfig &llc,
              std::unique_ptr<cachemind::policy::ReplacementPolicy> pol,
              const std::vector<cachemind::sim::LlcAccess> &stream,
              const cachemind::sim::OracleInfo &oracle,
              std::function<bool(std::uint64_t)> bypass = nullptr)
{
    using namespace cachemind;
    db::TraceTable t;
    db::setUpTable(t, llc, *pol, stream.size(),
                   db::BuildOptions{}.history_len);
    sim::LlcReplayer replayer(llc, std::move(pol));
    if (bypass) {
        // The builder never filters. Accesses a filter turns away never
        // reach the policy, so they do not tick LRU's clock and its
        // scores stop aging by one per access: store them instead.
        t.setScoreRule(policy::ScoreRule::None);
        replayer.cache().setBypassFilter(std::move(bypass));
    }
    // A row's snapshot and scores depend only on earlier rows, so each
    // row can be checked as soon as it is appended, with no copy of
    // the event.
    replayer.replay(stream, &oracle, [&](const sim::ReplayEvent &ev) {
        t.append(ev);
        if (!::testing::Test::HasFailure()) {
            EXPECT_EQ(rowMismatch(t, ev, llc.line_bytes), "");
        }
    });
    EXPECT_EQ(t.size(), stream.size());
    return t;
}

#endif // CACHEMIND_TESTS_REPLAY_ROWS_HH
