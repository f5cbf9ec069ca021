#include "core/engine_stats.hh"

#include "obs/trace.hh"

namespace cachemind::core {

EngineStats &
EngineStats::operator+=(const EngineStats &other)
{
    questions += other.questions;
    batches += other.batches;
    quality_low += other.quality_low;
    quality_medium += other.quality_medium;
    quality_high += other.quality_high;
    degraded_answers += other.degraded_answers;
    latency_ms.merge(other.latency_ms);
    stream.streams += other.stream.streams;
    stream.events += other.stream.events;
    stream.evidence_chunks += other.stream.evidence_chunks;
    stream.answer_deltas += other.stream.answer_deltas;
    stream.cancelled += other.stream.cancelled;
    stream.warmups += other.stream.warmups;
    stream.warmup_ms_total += other.stream.warmup_ms_total;
    stream.first_event_ms.merge(other.stream.first_event_ms);
    trace.traced += other.trace.traced;
    trace.parse_ms.merge(other.trace.parse_ms);
    trace.plan_ms.merge(other.trace.plan_ms);
    trace.retrieve_ms.merge(other.trace.retrieve_ms);
    trace.generate_ms.merge(other.trace.generate_ms);
    trace.slowest_parse += other.trace.slowest_parse;
    trace.slowest_plan += other.trace.slowest_plan;
    trace.slowest_retrieve += other.trace.slowest_retrieve;
    trace.slowest_generate += other.trace.slowest_generate;
    cache.hits += other.cache.hits;
    cache.misses += other.cache.misses;
    cache.evictions += other.cache.evictions;
    return *this;
}

void
EngineStatsRecorder::record(double latency_ms,
                            retrieval::ContextQuality quality)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.questions;
    stats_.latency_ms.record(latency_ms);
    switch (quality) {
      case retrieval::ContextQuality::Low: ++stats_.quality_low; break;
      case retrieval::ContextQuality::Medium:
        ++stats_.quality_medium;
        break;
      case retrieval::ContextQuality::High: ++stats_.quality_high; break;
    }
}

void
EngineStatsRecorder::recordBatch()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
}

void
EngineStatsRecorder::recordCacheLookup(bool hit, std::uint64_t evictions)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++(hit ? stats_.cache.hits : stats_.cache.misses);
    stats_.cache.evictions += evictions;
}

void
EngineStatsRecorder::recordStream(double first_event_ms,
                                  std::uint64_t events,
                                  std::uint64_t evidence_chunks,
                                  std::uint64_t answer_deltas)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.stream.streams;
    stats_.stream.events += events;
    stats_.stream.evidence_chunks += evidence_chunks;
    stats_.stream.answer_deltas += answer_deltas;
    stats_.stream.first_event_ms.record(first_event_ms);
}

void
EngineStatsRecorder::recordStreamCancelled()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.stream.cancelled;
}

void
EngineStatsRecorder::recordDegraded()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.degraded_answers;
}

void
EngineStatsRecorder::recordWarmup(double warmup_ms)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.stream.warmups;
    stats_.stream.warmup_ms_total += warmup_ms;
}

void
EngineStatsRecorder::recordTrace(const obs::RequestTrace &trace)
{
    // Stage durations from the trace's span names: the first
    // parse/plan/retrieve/generate span each.
    static const char *const kStages[4] = {"parse", "plan", "retrieve",
                                           "generate"};
    double stage_ms[4] = {0.0, 0.0, 0.0, 0.0};
    bool seen[4] = {false, false, false, false};
    for (const obs::TraceSpan &span : trace.spans()) {
        for (int i = 0; i < 4; ++i) {
            if (!seen[i] && span.name == kStages[i] &&
                span.end_ns >= span.start_ns && span.end_ns != 0) {
                stage_ms[i] = static_cast<double>(span.end_ns -
                                                  span.start_ns) /
                              1e6;
                seen[i] = true;
            }
        }
    }
    int slowest = 0;
    for (int i = 1; i < 4; ++i) {
        if (stage_ms[i] > stage_ms[slowest])
            slowest = i;
    }

    std::lock_guard<std::mutex> lock(mu_);
    TraceStats &t = stats_.trace;
    stats::Histogram *const stage_hist[4] = {&t.parse_ms, &t.plan_ms,
                                             &t.retrieve_ms,
                                             &t.generate_ms};
    std::uint64_t *const slowest_count[4] = {
        &t.slowest_parse, &t.slowest_plan, &t.slowest_retrieve,
        &t.slowest_generate};
    ++t.traced;
    ++*slowest_count[slowest];
    for (int i = 0; i < 4; ++i)
        stage_hist[i]->record(stage_ms[i]);
}

EngineStats
EngineStatsRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace cachemind::core
