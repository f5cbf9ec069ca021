/**
 * @file
 * LLC stream capture, oracle pre-passes, and annotated replay.
 *
 * Pipeline (mirrors the paper's PARROT-based flow, §5):
 *  1. captureLlcStream(): run the CPU trace through the hierarchy once
 *     (L1/L2 filter with LRU) and record every demand access that
 *     reaches the LLC. The stream does not depend on the LLC policy.
 *  2. computeOracle(): backward pass computing, per stream position,
 *     the next and previous use of the same line plus the LRU stack
 *     distance (for compulsory/capacity/conflict classification).
 *  3. LlcReplayer::replay(): replay the stream under any replacement
 *     policy, emitting one fully annotated ReplayEvent per access —
 *     the raw material of the external trace database.
 */

#ifndef CACHEMIND_SIM_LLC_REPLAY_HH
#define CACHEMIND_SIM_LLC_REPLAY_HH

#include <functional>
#include <memory>
#include <vector>

#include "policy/parrot.hh"
#include "sim/hierarchy.hh"
#include "trace/record.hh"

namespace cachemind::sim {

/** One entry of the captured LLC demand stream. */
struct LlcAccess
{
    std::uint64_t pc = 0;
    std::uint64_t address = 0;
    std::uint64_t line = 0;
    trace::AccessType type = trace::AccessType::Load;
};

/** Capture the LLC demand stream for a CPU-level trace. */
std::vector<LlcAccess> captureLlcStream(const trace::Trace &t,
                                        const HierarchyConfig &cfg);

/** Capture with the default (Table 2) hierarchy configuration. */
std::vector<LlcAccess> captureLlcStream(const trace::Trace &t);

/** Sentinel for "no previous use". */
constexpr std::uint64_t kNoPrevUse = policy::kNoNextUse;

/** Oracle annotations over an LLC stream. */
struct OracleInfo
{
    /** Stream index of the next access to the same line (or sentinel). */
    std::vector<std::uint64_t> next_use;
    /** Stream index of the previous access (or sentinel). */
    std::vector<std::uint64_t> prev_use;
    /** Distinct lines touched since the previous access (or sentinel). */
    std::vector<std::uint64_t> stack_distance;
};

/** Backward/forward passes producing OracleInfo. */
OracleInfo computeOracle(const std::vector<LlcAccess> &stream);

/** Miss taxonomy for the database's miss_type column. */
enum class MissType : std::uint8_t { None, Compulsory, Capacity,
                                     Conflict };

/** Human-readable miss-type name. */
const char *missTypeName(MissType t);

/** One resident (pc, line) pair in a set snapshot. */
struct SnapshotEntry
{
    std::uint64_t pc = 0;
    std::uint64_t line = 0;
    /** Stream index of the line's last touch, which set `pc`. */
    std::uint64_t last_index = 0;
};

/** Fully annotated replayed LLC access. */
struct ReplayEvent
{
    std::uint64_t index = 0;
    std::uint64_t pc = 0;
    std::uint64_t address = 0;
    std::uint64_t line = 0;
    std::uint32_t set = 0;
    bool hit = false;
    bool bypassed = false;
    MissType miss_type = MissType::None;

    bool has_victim = false;
    std::uint64_t evicted_line = 0;
    std::uint64_t evicted_pc = 0;
    /** Stream index of the evicted line's last touch. */
    std::uint64_t evicted_last_index = 0;

    /** Forward reuse distance of the accessed line (or sentinel). */
    std::uint64_t reuse_distance = policy::kNoNextUse;
    /** Backward recency of the accessed line (or sentinel). */
    std::uint64_t recency = kNoPrevUse;
    /** Forward reuse distance of the evicted line (or sentinel). */
    std::uint64_t evicted_reuse_distance = policy::kNoNextUse;
    /** Eviction displaced a line needed sooner than the inserted one. */
    bool wrong_eviction = false;

    /** Resident (pc, line) pairs of the set before this access. */
    std::vector<SnapshotEntry> snapshot;
    /** Policy eviction scores of the set before this access. */
    std::vector<std::uint64_t> scores;
};

/**
 * Replays an LLC stream under a policy, emitting annotated events.
 *
 * Snapshot/score capture costs memory bandwidth; it can be decimated
 * with `snapshot_every` (1 = every event).
 */
class LlcReplayer
{
  public:
    using EventCallback = std::function<void(const ReplayEvent &)>;

    LlcReplayer(CacheConfig cfg,
                std::unique_ptr<policy::ReplacementPolicy> pol);

    /**
     * Replay `stream`. `oracle` may be null for policies that do not
     * need the future (everything except Belady and the annotation of
     * reuse distances). The callback may be empty when only aggregate
     * statistics are wanted.
     */
    CacheStats replay(const std::vector<LlcAccess> &stream,
                      const OracleInfo *oracle, const EventCallback &cb,
                      std::uint32_t snapshot_every = 1);

    Cache &cache() { return *cache_; }
    const Cache &cache() const { return *cache_; }

  private:
    std::unique_ptr<Cache> cache_;
};

/**
 * Convenience: train a PARROT model for a stream (Belady-annotated
 * imitation pass, DESIGN.md §2).
 */
class ParrotModelBuilder
{
  public:
    /** Train on the stream using the supplied oracle. */
    static policy::ParrotModel train(const std::vector<LlcAccess> &stream,
                                     const OracleInfo &oracle);
};

} // namespace cachemind::sim

#endif // CACHEMIND_SIM_LLC_REPLAY_HH
