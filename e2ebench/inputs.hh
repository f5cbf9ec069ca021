/**
 * @file
 * Seeded input generation for the four workloads. Every input is a
 * pure function of (database, seed): the same seed gives
 * byte-identical questions, draws and suites. Generation runs before
 * any timed window and outside setup_s.
 */

#ifndef E2EBENCH_INPUTS_HH
#define E2EBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "benchsuite/question.hh"
#include "db/database.hh"

namespace e2ebench {

/** Retriever index used throughout: 0 = sieve, 1 = ranger. */
const char *retrieverName(std::uint8_t retriever);

/** Question families the serve workloads draw from. */
enum class Kind : std::uint8_t {
    // Per-PC families (serve_hot).
    MissRate,
    Count,
    AvgEvictedReuse,
    StdReuse,
    MaxReuse,
    AvgRecency,
    Why,
    PolicyCompare,
    // Per-access hit/miss (serve_cold, serve_longtail).
    HitMiss,
    // Per-shard warm-up questions (never timed).
    ShardMissRate,
};

const char *kindName(Kind kind);

/** One question, stored compactly and rendered on demand. */
struct Item
{
    Kind kind = Kind::HitMiss;
    std::uint8_t shard = 0;
    std::uint64_t pc = 0;
    std::uint64_t address = 0;
};

/** One request of a closed loop: which item, on which retriever. */
struct Draw
{
    std::uint32_t item = 0;
    std::uint8_t retriever = 0;
};

/** Inputs of one serve_* workload. */
struct ServeInputs
{
    /** (workload, policy display name) per shard index. */
    std::vector<std::pair<std::string, std::string>> shards;
    /** Questions; for serve_longtail the index is the Zipf rank. */
    std::vector<Item> items;
    /** Per connection, the requests it sends in order. */
    std::vector<Draw> sequence[2];
    /** Requests sent before timing (cache pre-fill), in order. */
    std::vector<Draw> prefill;

    std::string render(const Item &item) const;
};

/** Inputs of eval_sweep: the seeded CacheMindBench suites. */
struct EvalInputs
{
    std::vector<std::vector<cachemind::benchsuite::Question>> suites;
};

/** serve_longtail: population size (questions; x2 retrievers = keys). */
constexpr std::size_t kLongtailPopulation = 8192;
/** serve_longtail: Zipf exponent of the draws. */
constexpr double kZipfS = 1.0;
/** eval_sweep: seeded suites swept round-robin. */
constexpr std::size_t kEvalSuites = 8;
/** The paper-default suite seed behind the quality metrics. */
constexpr std::uint64_t kDefaultSuiteSeed = 0xbe7c4ULL;

/**
 * Requests generated per connection per second of window: an upper
 * bound on the closed-loop rate with ample headroom, so a faster
 * program cannot run out of inputs.
 */
constexpr std::size_t kDrawsPerConnSecond = 40000;

/**
 * One whole-shard miss-rate question per shard: the set-up warm-up,
 * which touches every shard's lazily built state on both retrievers
 * and shares no slot key with any workload's questions.
 */
std::vector<std::string> warmupQuestions(const cachemind::db::TraceDatabase &db);

/** Generate serve_* inputs for `windows` windows of `seconds` each. */
ServeInputs makeServeInputs(const std::string &workload,
                            const cachemind::db::TraceDatabase &db,
                            std::uint64_t seed, double seconds,
                            int windows);

/** Generate eval_sweep inputs. */
EvalInputs makeEvalInputs(const cachemind::db::TraceDatabase &db, std::uint64_t seed);

/** FNV-1a digest of every rendered input (same seed => same digest). */
std::uint64_t digest(const ServeInputs &in);
std::uint64_t digest(const EvalInputs &in);

} // namespace e2ebench

#endif // E2EBENCH_INPUTS_HH
