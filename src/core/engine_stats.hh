/**
 * @file
 * Per-engine aggregate serving statistics: questions served, retrieval
 * hit quality, and latency percentiles. The recorder is thread-safe so
 * askBatch workers can publish into it concurrently; snapshots are
 * cheap value types for reporting.
 */

#ifndef CACHEMIND_CORE_ENGINE_STATS_HH
#define CACHEMIND_CORE_ENGINE_STATS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "db/index.hh"
#include "retrieval/cache.hh"
#include "retrieval/context.hh"

namespace cachemind::obs {
class RequestTrace;
}

namespace cachemind::core {

/** Cross-question retrieval-cache counters (per retriever or total). */
struct RetrievalCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    double
    hitRate() const
    {
        const std::uint64_t lookups = hits + misses;
        return lookups == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(lookups);
    }
};

/** Streaming-pipeline counters (askStream). */
struct StreamStats
{
    /** Questions answered through a streaming entry point. */
    std::uint64_t streams = 0;
    /** Events emitted across all streams (all kinds). */
    std::uint64_t events = 0;
    /** EvidenceChunk events emitted. */
    std::uint64_t evidence_chunks = 0;
    /** AnswerDelta events emitted. */
    std::uint64_t answer_deltas = 0;
    /**
     * Streams abandoned by their consumer before Done (a cancelled
     * AnswerStream / dropped serving connection). Cancelled streams
     * contribute no latency or time-to-first-event samples.
     */
    std::uint64_t cancelled = 0;

    /**
     * Cold index warm-ups observed (at most one per engine) and their
     * total cost. Warm-up is recorded here, *outside* the
     * time-to-first-event reservoir, so the first stream against a
     * cold engine does not skew server-side TTFE percentiles.
     */
    std::uint64_t warmups = 0;
    double warmup_ms_total = 0.0;

    /**
     * Time-to-first-event percentiles (milliseconds): the gap between
     * a stream's pipeline starting and its first event being emitted
     * — the latency a streaming consumer actually waits before
     * anything appears, as opposed to the full-answer latency in
     * latency_p50_ms.
     */
    double first_event_p50_ms = 0.0;
    double first_event_p90_ms = 0.0;
    double first_event_mean_ms = 0.0;
};

/**
 * Aggregates over *traced* requests (see obs::RequestTrace): how long
 * each pipeline stage took, and which stage was the slowest — the
 * "where did the time go" histogram a percentile alone cannot answer.
 * Only requests that carried a trace contribute (untraced requests
 * record no per-stage timings by design).
 */
struct TraceStats
{
    /** Traced requests folded in. */
    std::uint64_t traced = 0;

    /** Per-stage latency percentiles (milliseconds). */
    double parse_p50_ms = 0.0;
    double parse_p90_ms = 0.0;
    double plan_p50_ms = 0.0;
    double plan_p90_ms = 0.0;
    double retrieve_p50_ms = 0.0;
    double retrieve_p90_ms = 0.0;
    double generate_p50_ms = 0.0;
    double generate_p90_ms = 0.0;

    /** Requests whose slowest stage was parse/plan/retrieve/generate. */
    std::uint64_t slowest_parse = 0;
    std::uint64_t slowest_plan = 0;
    std::uint64_t slowest_retrieve = 0;
    std::uint64_t slowest_generate = 0;
};

/** Point-in-time aggregate over everything the engine has served. */
struct EngineStats
{
    /** Questions answered (ask + askBatch). */
    std::uint64_t questions = 0;
    /** askBatch invocations. */
    std::uint64_t batches = 0;

    /** Retrieval-quality population (Figure 5 buckets). */
    std::uint64_t quality_low = 0;
    std::uint64_t quality_medium = 0;
    std::uint64_t quality_high = 0;

    /**
     * Questions answered from deadline-degraded (partial) evidence —
     * the engine-side deadline-miss signal. Degraded bundles are never
     * cached, so each degraded retrieval counts exactly once.
     */
    std::uint64_t degraded_answers = 0;

    /** End-to-end per-question latency percentiles (milliseconds). */
    double latency_p50_ms = 0.0;
    double latency_p90_ms = 0.0;
    double latency_p99_ms = 0.0;
    double latency_mean_ms = 0.0;

    /** Streaming-pipeline counters. */
    StreamStats stream;

    /** Per-stage aggregates over traced requests. */
    TraceStats trace;

    /** Retrieval-cache totals across all retrievers. */
    RetrievalCacheStats cache;
    /** Retrieval-cache counters split by retriever name. */
    std::map<std::string, RetrievalCacheStats> cache_by_retriever;

    /**
     * Per-tier retrieval-cache stats (LRU hot tier, compressed
     * secondary tier, promotion/demotion traffic). Filled by
     * CacheMind::stats() straight from the cache, not the recorder —
     * a shared cache reports the same tier numbers through every
     * engine using it.
     */
    retrieval::RetrievalCache::TieredCounters cache_tiers;

    /**
     * Postings-index instrumentation over the engine's shard view:
     * shards indexed so far, total one-time build cost, indexed
     * lookups served, and the scan-equivalent rows they skipped.
     * Filled by CacheMind::stats() from the shards, not the recorder.
     */
    db::IndexTotals index;

    /** Fraction of questions with high-quality retrieved context. */
    double
    highQualityFraction() const
    {
        return questions == 0
                   ? 0.0
                   : static_cast<double>(quality_high) /
                         static_cast<double>(questions);
    }
};

/** Thread-safe accumulator behind CacheMind::stats(). */
class EngineStatsRecorder
{
  public:
    /** Record one answered question. */
    void record(double latency_ms, retrieval::ContextQuality quality);

    /** Record one completed askBatch call. */
    void recordBatch();

    /**
     * Record one retrieval-cache lookup for the named retriever: hit
     * or miss, plus any entries the lookup's insertion evicted.
     */
    void recordCacheLookup(const std::string &retriever, bool hit,
                           std::uint64_t evictions);

    /**
     * Record one completed streaming question: its time-to-first-event
     * and the events it emitted, split by kind.
     */
    void recordStream(double first_event_ms, std::uint64_t events,
                      std::uint64_t evidence_chunks,
                      std::uint64_t answer_deltas);

    /** Record one consumer-cancelled stream (no latency samples). */
    void recordStreamCancelled();

    /** Record one answer generated from deadline-degraded evidence. */
    void recordDegraded();

    /** Record the engine's one-time cold index warm-up cost. */
    void recordWarmup(double warmup_ms);

    /**
     * Fold one finished traced request into EngineStats.trace: stage
     * durations are read from the trace's parse/plan/retrieve/generate
     * spans (first occurrence each; a missing span contributes 0).
     */
    void recordTrace(const obs::RequestTrace &trace);

    /** Aggregate snapshot (percentiles via base/stats_util). */
    EngineStats snapshot() const;

  private:
    /**
     * Latency percentiles come from a bounded deterministic
     * reservoir, so a long-lived engine's memory and snapshot cost
     * stay flat no matter how many questions it serves. Counts and
     * the mean stay exact.
     */
    static constexpr std::size_t kReservoirCap = 4096;

    mutable std::mutex mu_;
    std::uint64_t questions_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t quality_low_ = 0;
    std::uint64_t quality_medium_ = 0;
    std::uint64_t quality_high_ = 0;
    double latency_sum_ms_ = 0.0;
    std::uint64_t streams_ = 0;
    std::uint64_t stream_events_ = 0;
    std::uint64_t stream_evidence_chunks_ = 0;
    std::uint64_t stream_answer_deltas_ = 0;
    std::uint64_t stream_cancelled_ = 0;
    std::uint64_t degraded_answers_ = 0;
    std::uint64_t warmups_ = 0;
    double warmup_ms_total_ = 0.0;
    double first_event_sum_ms_ = 0.0;
    std::map<std::string, RetrievalCacheStats> cache_by_retriever_;
    /** Traced-request accumulators (EngineStats.trace). */
    std::uint64_t traced_ = 0;
    std::uint64_t slowest_stage_[4] = {0, 0, 0, 0};
    /** One bounded reservoir per stage: parse, plan, retrieve, gen. */
    std::vector<double> stage_reservoir_ms_[4];
    std::vector<double> latency_reservoir_ms_;
    /** Same bounded-reservoir scheme for time-to-first-event. */
    std::vector<double> first_event_reservoir_ms_;
    /**
     * Scratch for percentile extraction: the reservoir is copied and
     * sorted exactly once per snapshot, into a buffer reused across
     * snapshots so steady-state polling allocates nothing.
     */
    mutable std::vector<double> sort_scratch_;
};

} // namespace cachemind::core

#endif // CACHEMIND_CORE_ENGINE_STATS_HH
