/**
 * @file
 * Evaluation harness: asks a Builder-configured engine every question
 * of a suite, grades every answer, and aggregates per category, per
 * tier, per retrieval-quality bucket, and as the paper's weighted
 * total. Powers Figures 4, 5, 6, 7 and 8.
 */

#ifndef CACHEMIND_BENCHSUITE_HARNESS_HH
#define CACHEMIND_BENCHSUITE_HARNESS_HH

#include <map>

#include "benchsuite/grader.hh"
#include "benchsuite/question.hh"
#include "core/cachemind.hh"
#include "llm/generator.hh"
#include "retrieval/context.hh"

namespace cachemind::benchsuite {

/** Per-question evaluation record. */
struct QuestionRecord
{
    std::size_t question_id = 0;
    Category category = Category::HitMiss;
    GradeResult grade;
    retrieval::ContextQuality quality = retrieval::ContextQuality::Low;
    /** Integer rubric score 0-5 (ARA) or 0/1 (TG). */
    int score_bucket = 0;
    std::string answer_text;
};

/** Per-category aggregate. */
struct CategoryScore
{
    Category category = Category::HitMiss;
    double earned = 0.0;
    double max = 0.0;
    std::size_t questions = 0;

    double
    pct() const
    {
        return max > 0.0 ? 100.0 * earned / max : 0.0;
    }
};

/** Whole-run result. */
struct EvalResult
{
    std::vector<QuestionRecord> records;
    std::map<Category, CategoryScore> by_category;

    /** Trace-grounded tier accuracy in percent. */
    double tgPct() const;
    /** Reasoning tier score in percent. */
    double araPct() const;
    /** Paper-style weighted total over all 100 questions. */
    double weightedTotalPct() const;
    /** Accuracy restricted to one retrieval-quality bucket. */
    double qualityBucketPct(retrieval::ContextQuality q) const;
    /** Count of questions in a quality bucket. */
    std::size_t qualityBucketCount(retrieval::ContextQuality q) const;
    /** Histogram of ARA rubric scores 0..5. */
    std::vector<std::size_t> araScoreHistogram() const;
};

/** Runs engines over suites. */
class EvalHarness
{
  public:
    explicit EvalHarness(std::vector<Question> suite)
        : suite_(std::move(suite))
    {}

    const std::vector<Question> &suite() const { return suite_; }

    /**
     * Evaluate a Builder-configured engine, driving the whole suite
     * through CacheMind::askBatch on the engine's worker pool.
     */
    EvalResult evaluate(core::CacheMind &engine) const;

  private:
    /** Grade one answered question into an EvalResult. */
    void accumulate(const Question &q,
                    const retrieval::ContextBundle &bundle,
                    const llm::Answer &answer, EvalResult &result) const;

    std::vector<Question> suite_;
};

} // namespace cachemind::benchsuite

#endif // CACHEMIND_BENCHSUITE_HARNESS_HH
