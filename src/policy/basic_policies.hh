/**
 * @file
 * Classical replacement policies: LRU, FIFO, Random, and Belady's
 * offline-optimal oracle (MIN with bypass).
 */

#ifndef CACHEMIND_POLICY_BASIC_POLICIES_HH
#define CACHEMIND_POLICY_BASIC_POLICIES_HH

#include "base/random.hh"
#include "policy/replacement.hh"

namespace cachemind::policy {

/** Least-recently-used: evict the line untouched the longest. */
class LruPolicy : public ReplacementPolicy
{
  public:
    const char *name() const override { return "lru"; }
    void configure(std::uint32_t sets, std::uint32_t ways) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &info) override;
    std::uint32_t chooseVictim(std::uint32_t set, const AccessInfo &info,
                               const std::vector<LineMeta> &lines)
        override;
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const AccessInfo &info) override;
    std::uint64_t lineScore(std::uint32_t set,
                            std::uint32_t way) const override;
    ScoreRule
    scoreRule() const override
    {
        return ScoreRule::AgesPerAccess;
    }

  private:
    void touch(std::uint32_t set, std::uint32_t way);

    std::uint32_t ways_ = 0;
    std::uint64_t tick_ = 0;
    std::vector<std::uint64_t> stamps_; // sets * ways, last-touch tick
};

/** First-in first-out: evict the oldest insertion. */
class FifoPolicy : public ReplacementPolicy
{
  public:
    const char *name() const override { return "fifo"; }
    void configure(std::uint32_t sets, std::uint32_t ways) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &info) override;
    std::uint32_t chooseVictim(std::uint32_t set, const AccessInfo &info,
                               const std::vector<LineMeta> &lines)
        override;
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const AccessInfo &info) override;
    std::uint64_t lineScore(std::uint32_t set,
                            std::uint32_t way) const override;

  private:
    std::uint32_t ways_ = 0;
    std::uint64_t tick_ = 0;
    std::vector<std::uint64_t> stamps_; // insertion tick
};

/** Uniform-random victim (deterministically seeded). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed = 0x7a11ULL) : rng_(seed) {}

    const char *name() const override { return "random"; }
    void configure(std::uint32_t sets, std::uint32_t ways) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &info) override;
    std::uint32_t chooseVictim(std::uint32_t set, const AccessInfo &info,
                               const std::vector<LineMeta> &lines)
        override;
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const AccessInfo &info) override;
    /** Every score is the base class's 0. */
    ScoreRule
    scoreRule() const override
    {
        return ScoreRule::HeldSinceTouch;
    }

  private:
    std::uint32_t ways_ = 0;
    Rng rng_;
};

/**
 * Belady's MIN oracle with bypass.
 *
 * Requires AccessInfo::next_use to be populated (the LLC replayer's
 * backward pre-pass). Evicts the resident line whose next use lies
 * farthest in the future; if the incoming line's own next use is
 * farther than every resident's, the fill is bypassed instead, which
 * is the true optimum for a non-inclusive LLC.
 */
class BeladyPolicy : public ReplacementPolicy
{
  public:
    explicit BeladyPolicy(bool allow_bypass = true)
        : allow_bypass_(allow_bypass)
    {}

    const char *name() const override { return "belady"; }
    void configure(std::uint32_t sets, std::uint32_t ways) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &info) override;
    bool shouldBypass(std::uint32_t set, const AccessInfo &info,
                      const std::vector<LineMeta> &lines) override;
    std::uint32_t chooseVictim(std::uint32_t set, const AccessInfo &info,
                               const std::vector<LineMeta> &lines)
        override;
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const AccessInfo &info) override;
    std::uint64_t lineScore(std::uint32_t set,
                            std::uint32_t way) const override;
    ScoreRule
    scoreRule() const override
    {
        return ScoreRule::HeldSinceTouch;
    }

  private:
    bool allow_bypass_;
    std::uint32_t ways_ = 0;
    std::vector<std::uint64_t> next_use_; // per line, refreshed on touch
};

} // namespace cachemind::policy

#endif // CACHEMIND_POLICY_BASIC_POLICIES_HH
