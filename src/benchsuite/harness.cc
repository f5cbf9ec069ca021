#include "benchsuite/harness.hh"

#include <cmath>

#include "base/logging.hh"

namespace cachemind::benchsuite {

double
EvalResult::tgPct() const
{
    double earned = 0.0, max = 0.0;
    for (const auto &rec : records) {
        if (isTraceGrounded(rec.category)) {
            earned += rec.grade.score;
            max += rec.grade.max;
        }
    }
    return max > 0.0 ? 100.0 * earned / max : 0.0;
}

double
EvalResult::araPct() const
{
    double earned = 0.0, max = 0.0;
    for (const auto &rec : records) {
        if (!isTraceGrounded(rec.category)) {
            earned += rec.grade.score;
            max += rec.grade.max;
        }
    }
    return max > 0.0 ? 100.0 * earned / max : 0.0;
}

double
EvalResult::weightedTotalPct() const
{
    // Every question contributes equally: TG 0/1, ARA score/5.
    double total = 0.0;
    for (const auto &rec : records)
        total += rec.grade.pct();
    return records.empty()
               ? 0.0
               : 100.0 * total / static_cast<double>(records.size());
}

double
EvalResult::qualityBucketPct(retrieval::ContextQuality q) const
{
    double earned = 0.0, max = 0.0;
    for (const auto &rec : records) {
        if (rec.quality == q) {
            earned += rec.grade.score;
            max += rec.grade.max;
        }
    }
    return max > 0.0 ? 100.0 * earned / max : 0.0;
}

std::size_t
EvalResult::qualityBucketCount(retrieval::ContextQuality q) const
{
    std::size_t n = 0;
    for (const auto &rec : records)
        n += rec.quality == q;
    return n;
}

std::vector<std::size_t>
EvalResult::araScoreHistogram() const
{
    std::vector<std::size_t> hist(6, 0);
    for (const auto &rec : records) {
        if (!isTraceGrounded(rec.category)) {
            const int s = std::min(5, std::max(0, rec.score_bucket));
            ++hist[static_cast<std::size_t>(s)];
        }
    }
    return hist;
}

void
EvalHarness::accumulate(const Question &q,
                        const retrieval::ContextBundle &bundle,
                        const llm::Answer &answer,
                        EvalResult &result) const
{
    QuestionRecord rec;
    rec.question_id = q.id;
    rec.category = q.category;
    rec.grade = grade(q, answer);
    rec.quality = retrieval::assessQuality(bundle);
    rec.score_bucket = static_cast<int>(std::lround(rec.grade.score));
    rec.answer_text = answer.text;
    result.records.push_back(rec);

    CategoryScore &cs = result.by_category[q.category];
    cs.category = q.category;
    cs.earned += rec.grade.score;
    cs.max += rec.grade.max;
    ++cs.questions;
}

EvalResult
EvalHarness::evaluate(core::CacheMind &engine) const
{
    std::vector<std::string> texts;
    texts.reserve(suite_.size());
    for (const auto &q : suite_)
        texts.push_back(q.text);

    // A malformed suite (e.g. a blank question in a user-supplied
    // vector) is a user error: exit with the typed message rather
    // than aborting.
    auto batch = engine.askBatch(texts);
    if (!batch.ok()) {
        CM_FATAL("askBatch failed over the question suite: ",
                 core::errorMessage(batch.error()));
    }
    const auto responses = std::move(batch).value();

    EvalResult result;
    result.records.reserve(suite_.size());
    for (std::size_t i = 0; i < suite_.size(); ++i) {
        accumulate(suite_[i], responses[i].bundle, responses[i].answer,
                   result);
    }
    return result;
}

} // namespace cachemind::benchsuite
