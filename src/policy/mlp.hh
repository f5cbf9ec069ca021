/**
 * @file
 * MLP-based replacement (the "Multi-Layer Perceptron" policy of the
 * paper's Table 2, in the spirit of multiperspective reuse prediction,
 * Jiménez & Teran MICRO 2017).
 *
 * A small two-layer perceptron over program-context and recency
 * features predicts whether a resident line will be reused soon; the
 * victim is the line with the lowest predicted reuse probability.
 * Training is online: a hit trains the stored feature vector of the
 * hit line toward "alive", an eviction without reuse trains toward
 * "dead". All arithmetic is float with a fixed update order, so runs
 * are deterministic.
 */

#ifndef CACHEMIND_POLICY_MLP_HH
#define CACHEMIND_POLICY_MLP_HH

#include <array>

#include "policy/replacement.hh"

namespace cachemind::policy {

/** Feature vector dimensionality of the MLP policy. */
constexpr std::size_t kMlpInputs = 12;
/** Hidden-layer width. */
constexpr std::size_t kMlpHidden = 8;

/** A tiny deterministic MLP: kMlpInputs -> kMlpHidden -> 1. */
class TinyMlp
{
  public:
    explicit TinyMlp(std::uint64_t seed = 0x3117ULL);

    /** Forward pass; returns a probability in (0, 1). */
    double forward(const std::array<float, kMlpInputs> &x) const;

    /** One SGD step toward `target` (0 = dead, 1 = alive). */
    void train(const std::array<float, kMlpInputs> &x, float target);

    /** Learning rate (exposed for tests/ablation). */
    void setLearningRate(float lr) { lr_ = lr; }

  private:
    float lr_ = 0.05f;
    std::array<std::array<float, kMlpInputs>, kMlpHidden> w1_;
    std::array<float, kMlpHidden> b1_;
    std::array<float, kMlpHidden> w2_;
    float b2_ = 0.0f;
};

/** Replacement policy driven by TinyMlp reuse prediction. */
class MlpPolicy : public ReplacementPolicy
{
  public:
    explicit MlpPolicy(std::uint64_t seed = 0x3117ULL) : net_(seed) {}

    const char *name() const override { return "mlp"; }
    void configure(std::uint32_t sets, std::uint32_t ways) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &info) override;
    std::uint32_t chooseVictim(std::uint32_t set, const AccessInfo &info,
                               const std::vector<LineMeta> &lines)
        override;
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const AccessInfo &info) override;
    void onEvict(std::uint32_t set, std::uint32_t way,
                 const AccessInfo &info) override;
    std::uint64_t lineScore(std::uint32_t set,
                            std::uint32_t way) const override;
    ScoreRule
    scoreRule() const override
    {
        return ScoreRule::HeldSinceTouch;
    }

  private:
    /** Build the feature vector for an access. */
    static std::array<float, kMlpInputs> features(const AccessInfo &info,
                                                  std::uint32_t set);

    struct WayState
    {
        std::array<float, kMlpInputs> feat{};
        double score = 0.5; // cached predicted reuse probability
        bool reused = false;
        bool valid = false;
    };

    TinyMlp net_;
    std::uint32_t ways_ = 0;
    std::vector<WayState> state_;
};

} // namespace cachemind::policy

#endif // CACHEMIND_POLICY_MLP_HH
