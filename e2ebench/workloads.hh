/**
 * @file
 * The workload runners and the per-layer ladder they share.
 */

#ifndef E2EBENCH_WORKLOADS_HH
#define E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench.hh"
#include "db/database.hh"

namespace e2ebench {

/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetups = 2;

/** serve_hot, serve_cold, serve_longtail. */
RunResult runServeWorkload(const Args &args);

/** eval_sweep. */
RunResult runEvalSweep(const Args &args);

/** One question of the ladder sample. */
struct LadderQuestion
{
    std::string text;
    std::uint8_t retriever = 0;
};

/**
 * Time the public layer calls, one call at a time, on `sample`:
 * parse, retrieveParsed per retriever, generate, codec, ask with the
 * cache off and with the bundle resident, askStream, and a serve
 * round trip against the server on `port`. `hit_path` selects which
 * ask the stream hop is measured against (resident bundle vs cache
 * off). Medians land in `res.values`; one span per call in `spans`.
 */
void runLadder(const cachemind::db::TraceDatabase &db, std::uint16_t port,
               const std::vector<LadderQuestion> &sample, bool hit_path,
               SpanLog *spans, RunResult &res);

/**
 * Time the database build's public stage functions (trace generation,
 * LLC capture, oracle, per-policy replay) and derive the table-build
 * share from res.values["db.build_s"].
 */
void runBuildStages(RunResult &res);

/** Default-suite scores of the gpt-4o engines. */
struct Quality
{
    double tg[2] = {0.0, 0.0};
    double ara[2] = {0.0, 0.0};
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** grade() wall time per call, microseconds. */
    std::vector<double> grade_us;
};

/** Fetch one question's answer through another path (nullopt = failed). */
using AnswerFn = std::function<std::optional<std::string>(
    const std::string &question, std::uint8_t retriever)>;

/**
 * Grade the paper-default suite from blocking gpt-4o asks. When
 * `served` is set, each answer must also come back byte-identical
 * through it, or the question counts as failed.
 */
Quality gradeDefaultSuite(const cachemind::db::TraceDatabase &db,
                          const AnswerFn &served);

/** The HEAD scores every run must reproduce (sieve, ranger). */
constexpr double kExpectedTg[2] = {66.67, 82.67};
constexpr double kExpectedAra[2] = {85.6, 71.2};

/** Record the quality metrics and check them against HEAD's. */
void reportQuality(const Quality &q, RunResult &res);

} // namespace e2ebench

#endif // E2EBENCH_WORKLOADS_HH
