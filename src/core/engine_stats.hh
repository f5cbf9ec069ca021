/**
 * @file
 * Per-engine aggregate serving statistics: questions served, retrieval
 * hit quality, and latency histograms. The recorder is thread-safe so
 * askBatch workers can publish into it concurrently; snapshots are
 * fixed-size value types, and `+=` merges them exactly (counters add,
 * histograms add bucket counts), so stats folded across engines keep
 * true percentiles.
 */

#ifndef CACHEMIND_CORE_ENGINE_STATS_HH
#define CACHEMIND_CORE_ENGINE_STATS_HH

#include <cstdint>
#include <mutex>

#include "base/stats_util.hh"
#include "db/index.hh"
#include "retrieval/cache.hh"
#include "retrieval/context.hh"

namespace cachemind::obs {
class RequestTrace;
}

namespace cachemind::core {

/** Cross-question retrieval-cache counters. */
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
     * time-to-first-event histogram, so the first stream against a
     * cold engine does not skew server-side TTFE percentiles.
     */
    std::uint64_t warmups = 0;
    double warmup_ms_total = 0.0;

    /**
     * Time to first event (milliseconds): the gap between a stream's
     * pipeline starting and its first event being emitted — the
     * latency a streaming consumer actually waits before anything
     * appears, as opposed to the full-answer EngineStats::latency_ms.
     */
    stats::Histogram first_event_ms;
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

    /** Per-stage latency (milliseconds). */
    stats::Histogram parse_ms;
    stats::Histogram plan_ms;
    stats::Histogram retrieve_ms;
    stats::Histogram generate_ms;

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

    /** End-to-end per-question latency (milliseconds). */
    stats::Histogram latency_ms;

    /** Streaming-pipeline counters. */
    StreamStats stream;

    /** Per-stage aggregates over traced requests. */
    TraceStats trace;

    /** Retrieval-cache lookups made by the engine's retrievers. */
    RetrievalCacheStats cache;

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

    /**
     * Fold another engine's stats in: counters add and histograms
     * merge. cache_tiers and index describe a cache and a shard set
     * that engines share, so they are left as they are.
     */
    EngineStats &operator+=(const EngineStats &other);

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
     * Record one retrieval-cache lookup: hit or miss, plus any entries
     * the lookup's insertion evicted.
     */
    void recordCacheLookup(bool hit, std::uint64_t evictions);

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

    /** Aggregate snapshot (a copy taken under the lock). */
    EngineStats snapshot() const;

  private:
    mutable std::mutex mu_;
    EngineStats stats_;
};

} // namespace cachemind::core

#endif // CACHEMIND_CORE_ENGINE_STATS_HH
