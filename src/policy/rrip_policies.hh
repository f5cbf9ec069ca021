/**
 * @file
 * Re-reference interval prediction family (Jaleel et al., ISCA 2010)
 * plus DIP (Qureshi et al., ISCA 2007) and SHiP (Wu et al., MICRO
 * 2011). These are the heuristic baselines the paper's background
 * section discusses and that the lbm analysis compares against.
 */

#ifndef CACHEMIND_POLICY_RRIP_POLICIES_HH
#define CACHEMIND_POLICY_RRIP_POLICIES_HH

#include "base/random.hh"
#include "policy/replacement.hh"

namespace cachemind::policy {

/**
 * Static RRIP: 2-bit re-reference prediction values. Hits promote to
 * RRPV 0; misses insert at RRPV 2 (long re-reference); victims are
 * lines at RRPV 3, aging all lines when none qualify.
 */
class SrripPolicy : public ReplacementPolicy
{
  public:
    static constexpr std::uint8_t kMaxRrpv = 3;

    const char *name() const override { return "srrip"; }
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

  protected:
    /** RRPV assigned to a newly inserted line. */
    virtual std::uint8_t insertionRrpv(std::uint32_t set);

    std::uint32_t ways_ = 0;
    std::vector<std::uint8_t> rrpv_;
};

/**
 * Bimodal RRIP: inserts at distant RRPV 3 most of the time, RRPV 2
 * with low probability — scan-resistant.
 */
class BrripPolicy : public SrripPolicy
{
  public:
    explicit BrripPolicy(std::uint64_t seed = 0xb441ULL) : rng_(seed) {}

    const char *name() const override { return "brrip"; }

  protected:
    std::uint8_t insertionRrpv(std::uint32_t set) override;

  private:
    Rng rng_;
};

/**
 * Dynamic RRIP: set-duelling between SRRIP and BRRIP insertion using
 * a PSEL counter and leader sets.
 */
class DrripPolicy : public SrripPolicy
{
  public:
    explicit DrripPolicy(std::uint64_t seed = 0xd441ULL) : rng_(seed) {}

    const char *name() const override { return "drrip"; }
    void configure(std::uint32_t sets, std::uint32_t ways) override;
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const AccessInfo &info) override;

  protected:
    std::uint8_t insertionRrpv(std::uint32_t set) override;

  private:
    enum class Leader : std::uint8_t { None, Srrip, Brrip };

    Leader leaderOf(std::uint32_t set) const;

    Rng rng_;
    std::uint32_t sets_ = 0;
    std::int32_t psel_ = 0; // >0 favours SRRIP
};

/**
 * Dynamic insertion policy: LRU vs bimodal insertion (BIP) chosen by
 * set duelling; implemented over recency stamps like LruPolicy.
 */
class DipPolicy : public ReplacementPolicy
{
  public:
    explicit DipPolicy(std::uint64_t seed = 0xd1bULL) : rng_(seed) {}

    const char *name() const override { return "dip"; }
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
    enum class Leader : std::uint8_t { None, Lru, Bip };

    Leader leaderOf(std::uint32_t set) const;
    void touchMru(std::uint32_t set, std::uint32_t way);

    Rng rng_;
    std::uint32_t sets_ = 0;
    std::uint32_t ways_ = 0;
    std::uint64_t tick_ = 0;
    std::int32_t psel_ = 0; // >0 favours LRU insertion
    std::vector<std::uint64_t> stamps_;
};

/**
 * SHiP: signature-based hit prediction over an SRRIP backbone. A
 * PC-signature-indexed counter table (SHCT) learns whether lines
 * inserted by a signature are re-referenced; never-reused signatures
 * insert at distant RRPV.
 */
class ShipPolicy : public SrripPolicy
{
  public:
    static constexpr std::size_t kShctSize = 16384;

    const char *name() const override { return "ship"; }
    void configure(std::uint32_t sets, std::uint32_t ways) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &info) override;
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const AccessInfo &info) override;
    void onEvict(std::uint32_t set, std::uint32_t way,
                 const AccessInfo &info) override;

  private:
    static std::size_t signature(std::uint64_t pc);

    struct LineTrain
    {
        std::size_t sig = 0;
        bool reused = false;
        bool valid = false;
    };

    std::vector<std::uint8_t> shct_;
    std::vector<LineTrain> train_;
};

} // namespace cachemind::policy

#endif // CACHEMIND_POLICY_RRIP_POLICIES_HH
