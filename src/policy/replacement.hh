/**
 * @file
 * Replacement-policy interface.
 *
 * Policies are pluggable per cache level. The interface mirrors the
 * CRC-2/ChampSim contract (touch on hit, victim choice on miss, insert
 * notification) with two extensions the paper's pipeline needs:
 *
 *  - an optional bypass decision on miss (used by Belady-with-bypass,
 *    RLR-style policies, and the bypass use case), and
 *  - per-line *eviction scores*, exported into the trace database as
 *    the `cache_line_eviction_scores` column so that retrieval can
 *    show "what the policy was thinking" for any access.
 *
 * Belady's oracle receives the future via AccessInfo::next_use, which
 * the LLC replayer precomputes in a backward pass over the stream.
 */

#ifndef CACHEMIND_POLICY_REPLACEMENT_HH
#define CACHEMIND_POLICY_REPLACEMENT_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "trace/record.hh"

namespace cachemind::policy {

/** Sentinel next-use index for "never used again". */
constexpr std::uint64_t kNoNextUse =
    std::numeric_limits<std::uint64_t>::max();

/** Everything a policy may consult about the current access. */
struct AccessInfo
{
    /** Program counter of the accessing instruction. */
    std::uint64_t pc = 0;
    /** Full byte address. */
    std::uint64_t address = 0;
    /** Cache-line number (address / line size). */
    std::uint64_t line = 0;
    /** Index of this access within the cache's access stream. */
    std::uint64_t access_index = 0;
    /**
     * Stream index of the next access to the same line, or kNoNextUse.
     * Only populated when an oracle pre-pass ran (Belady, training).
     */
    std::uint64_t next_use = kNoNextUse;
    /** Access type (load/store/prefetch/writeback). */
    trace::AccessType type = trace::AccessType::Load;
};

/** Cache-visible state of one way, shared with the policy. */
struct LineMeta
{
    bool valid = false;
    bool dirty = false;
    /** Resident cache-line number. */
    std::uint64_t line = 0;
    /** PC that last touched the line. */
    std::uint64_t last_pc = 0;
    /** Stream index of the last touch. */
    std::uint64_t last_access_index = 0;
    /** Stream index at which the line was inserted. */
    std::uint64_t insert_index = 0;
    /** next_use recorded at the last touch (oracle runs only). */
    std::uint64_t last_next_use = kNoNextUse;
};

/**
 * How lineScore() of a way moves between touches of that way (a hit
 * on it or a fill into it). A policy that promises one of the two
 * rules lets the trace database keep one value per access instead of
 * the whole set's scores; the database checks the promise on every
 * access it stores.
 */
enum class ScoreRule : std::uint8_t {
    /** No promise: any access may change any way's score. */
    None,
    /**
     * A way's score is fixed by the access that last touched it and
     * holds until its next touch, whatever other accesses do. Every
     * never-touched way reads one constant.
     */
    HeldSinceTouch,
    /**
     * A way's score is fixed by its last touch, then grows by exactly
     * one with every later access to the cache, in any set, until its
     * next touch. A never-touched way reads a constant plus the
     * number of accesses before the current one. An access that the
     * cache bypasses without asking the policy (Cache's bypass
     * filter) still counts, so such a filter can break the rule.
     */
    AgesPerAccess,
};

/**
 * Abstract replacement policy.
 *
 * Lifecycle: configure() once per cache, then per access either
 * onHit() or (shouldBypass()? nothing : chooseVictim() on a full set
 * followed by onInsert()). onFill() is used when an invalid way is
 * filled without an eviction.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Short lower-case policy name, e.g. "lru". */
    virtual const char *name() const = 0;

    /** Size the policy's state for a sets x ways cache. */
    virtual void configure(std::uint32_t sets, std::uint32_t ways) = 0;

    /** Notification: hit on `way` of `set`. */
    virtual void onHit(std::uint32_t set, std::uint32_t way,
                       const AccessInfo &info) = 0;

    /**
     * Should the missing line skip insertion entirely?
     * Default: never bypass.
     */
    virtual bool
    shouldBypass(std::uint32_t set, const AccessInfo &info,
                 const std::vector<LineMeta> &lines)
    {
        (void)set;
        (void)info;
        (void)lines;
        return false;
    }

    /**
     * Pick a victim way in a full set. `lines` has exactly `ways`
     * valid entries. Must return a way in [0, ways).
     */
    virtual std::uint32_t chooseVictim(std::uint32_t set,
                                       const AccessInfo &info,
                                       const std::vector<LineMeta> &lines)
        = 0;

    /** Notification: missing line inserted into `way` of `set`. */
    virtual void onInsert(std::uint32_t set, std::uint32_t way,
                          const AccessInfo &info) = 0;

    /**
     * Notification: line evicted from `way` (called before onInsert
     * of the replacement). Default no-op; learning policies use it.
     */
    virtual void
    onEvict(std::uint32_t set, std::uint32_t way, const AccessInfo &info)
    {
        (void)set;
        (void)way;
        (void)info;
    }

    /**
     * Policy-specific eviction score of a resident line; larger means
     * "more evictable". Exported to the database.
     */
    virtual std::uint64_t
    lineScore(std::uint32_t set, std::uint32_t way) const
    {
        (void)set;
        (void)way;
        return 0;
    }

    /**
     * The rule lineScore() follows between touches of a way (see
     * ScoreRule). Default: None, no promise.
     */
    virtual ScoreRule scoreRule() const { return ScoreRule::None; }
};

/** Policy identifiers used across the database and the retrievers. */
enum class PolicyKind {
    Lru,
    Fifo,
    Random,
    Srrip,
    Brrip,
    Drrip,
    Dip,
    Ship,
    Belady,
    Parrot,
    Mlp,
    Mockingjay,
};

/** All policy kinds in canonical order. */
const std::vector<PolicyKind> &allPolicies();

/** Canonical lower-case name ("lru", "belady", ...). */
const char *policyName(PolicyKind kind);

/** Human-readable one-paragraph description (retrieval context). */
std::string policyDescription(PolicyKind kind);

/** Parse a policy name (case-insensitive); returns false on failure. */
bool policyKindFromName(const std::string &name, PolicyKind &out);

/** Construct a fresh policy instance. */
std::unique_ptr<ReplacementPolicy> makePolicy(PolicyKind kind);

} // namespace cachemind::policy

#endif // CACHEMIND_POLICY_REPLACEMENT_HH
