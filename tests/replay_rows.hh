/**
 * @file
 * Test helpers: replay a stream under a policy as the database builder
 * does, and compare a trace table's row with the replay event it was
 * appended from, field by field, the rebuilt snapshot included.
 */

#ifndef CACHEMIND_TESTS_REPLAY_ROWS_HH
#define CACHEMIND_TESTS_REPLAY_ROWS_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

#endif // CACHEMIND_TESTS_REPLAY_ROWS_HH
