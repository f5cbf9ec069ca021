/**
 * @file
 * PARROT-style imitation-learned replacement.
 *
 * The original PARROT (Liu et al., ICML 2020) trains an LSTM offline
 * to imitate Belady's oracle and deploys a light-weight predictor.
 * Offline neural training is out of scope for an offline C++ repo, so
 * this model keeps PARROT's *decision structure* — an offline pass
 * over a Belady-annotated trace learns per-PC reuse behaviour, and the
 * online policy ranks lines by predicted next use — which preserves
 * the property the paper analyses: PARROT's knowledge is PC-local, so
 * it can beat Belady on individual PCs while losing in aggregate
 * (DESIGN.md §2).
 */

#ifndef CACHEMIND_POLICY_PARROT_HH
#define CACHEMIND_POLICY_PARROT_HH

#include <unordered_map>

#include "policy/replacement.hh"

namespace cachemind::policy {

/** Learned per-PC reuse statistics. */
struct ParrotPcProfile
{
    /** Mean log2(reuse distance) over reused accesses. */
    double mean_log2_rd = 0.0;
    /** Fraction of accesses never reused (cache-averse mass). */
    double never_reused = 0.0;
    /** Training samples. */
    std::uint64_t samples = 0;

    /** Predicted forward reuse distance in stream accesses. */
    double predictedReuseDistance() const;
};

/** The offline-trained model: a per-PC profile table. */
struct ParrotModel
{
    std::unordered_map<std::uint64_t, ParrotPcProfile> table;
    /** Fallback distance for PCs unseen in training. */
    double default_rd = 1 << 14;

    /** Predicted reuse distance for `pc`. */
    double predict(std::uint64_t pc) const;

    bool trained() const { return !table.empty(); }
};

/**
 * Accumulates (pc, observed forward reuse distance) pairs from a
 * Belady-annotated training stream and produces a ParrotModel.
 */
class ParrotTrainer
{
  public:
    /** Observe one access; `next_use` may be kNoNextUse. */
    void observe(std::uint64_t pc, std::uint64_t access_index,
                 std::uint64_t next_use);

    /** Finalize the model. */
    ParrotModel finish() const;

  private:
    struct Acc
    {
        double sum_log2 = 0.0;
        std::uint64_t reused = 0;
        std::uint64_t total = 0;
    };

    std::unordered_map<std::uint64_t, Acc> acc_;
};

/**
 * Online policy: evict the line whose predicted next use (last touch
 * index + predicted per-PC reuse distance) is farthest; bypass when
 * the incoming line's predicted next use is farther than every
 * resident's.
 */
class ParrotPolicy : public ReplacementPolicy
{
  public:
    ParrotPolicy() = default;
    explicit ParrotPolicy(ParrotModel model) : model_(std::move(model)) {}

    void setModel(ParrotModel model) { model_ = std::move(model); }
    const ParrotModel &model() const { return model_; }

    const char *name() const override { return "parrot"; }
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
    double predictedNextUse(const LineMeta &line) const;

    ParrotModel model_;
    std::uint32_t ways_ = 0;
    /** Predicted next-use per way, refreshed on touch. */
    std::vector<double> pred_next_use_;
};

} // namespace cachemind::policy

#endif // CACHEMIND_POLICY_PARROT_HH
