#include "core/cachemind.hh"

#include <atomic>
#include <mutex>
#include <sstream>
#include <thread>

#include "base/failpoint.hh"
#include "base/logging.hh"
#include "base/parallel.hh"
#include "base/stopwatch.hh"
#include "base/str.hh"
#include "core/worker_pool.hh"
#include "llm/registry.hh"
#include "retrieval/registry.hh"

namespace cachemind::core {

const char *
engineErrorCodeName(EngineErrorCode code)
{
    switch (code) {
      case EngineErrorCode::UnknownRetriever: return "unknown-retriever";
      case EngineErrorCode::UnknownBackend: return "unknown-backend";
      case EngineErrorCode::InvalidOptions: return "invalid-options";
      case EngineErrorCode::EmptyQuestion: return "empty-question";
    }
    return "?";
}

std::string
errorMessage(const EngineError &error)
{
    return std::string(engineErrorCodeName(error.code)) + ": " +
           error.message;
}

Result<CacheMind, EngineError>
CacheMind::create(const db::TraceDatabase &db, EngineOptions opts)
{
    opts.retriever = str::toLower(str::trim(opts.retriever));
    opts.backend = str::toLower(str::trim(opts.backend));
    if (opts.batch_workers == 0) {
        return EngineError{EngineErrorCode::InvalidOptions,
                           "batch_workers must be >= 1"};
    }
    if (opts.stream_buffer == 0) {
        return EngineError{EngineErrorCode::InvalidOptions,
                           "stream_buffer must be >= 1"};
    }

    // One shard view, derived once, shared by the primary retriever
    // and every batch worker built later.
    db::ShardSet shards = db.shards();

    auto &retrievers = retrieval::RetrieverRegistry::instance();
    const retrieval::RetrieverOptions retriever_opts{
        opts.retriever_params};
    std::unique_ptr<retrieval::Retriever> retriever;
    try {
        retriever =
            retrievers.create(opts.retriever, shards, retriever_opts);
    } catch (const retrieval::InvalidRetrieverOptions &e) {
        return EngineError{EngineErrorCode::InvalidOptions,
                           opts.retriever + ": " + e.what()};
    }
    if (!retriever) {
        return EngineError{
            EngineErrorCode::UnknownRetriever,
            "no retriever registered as '" + opts.retriever +
                "' (registered: " +
                str::join(retrievers.names(), ", ") + ")"};
    }

    auto &backends = llm::BackendRegistry::instance();
    auto generator = backends.create(opts.backend);
    if (!generator) {
        return EngineError{
            EngineErrorCode::UnknownBackend,
            "no backend registered as '" + opts.backend +
                "' (registered: " +
                str::join(backends.names(), ", ") + ")"};
    }

    return CacheMind(db, std::move(shards), std::move(opts),
                     std::move(retriever), std::move(generator));
}

/**
 * Extra worker retrievers for askBatch (the engine's primary
 * retriever serves worker 0), built on first use and reused across
 * batches: rebuilding, say, a LlamaIndex embedding index per batch
 * would dwarf the answering work. The mutex guards pool growth; it
 * is not a concurrency contract for the engine itself (see the
 * header: an engine instance is single-caller).
 */
struct CacheMind::BatchPool
{
    std::mutex mu;
    std::vector<std::unique_ptr<retrieval::Retriever>> retrievers;
};

CacheMind::CacheMind(const db::TraceDatabase &db, db::ShardSet shards,
                     EngineOptions opts,
                     std::unique_ptr<retrieval::Retriever> retriever,
                     std::unique_ptr<llm::GeneratorLlm> generator)
    : db_(db), shards_(std::move(shards)), opts_(std::move(opts)),
      retriever_(std::move(retriever)), generator_(std::move(generator)),
      parser_(std::make_unique<query::NlQueryParser>(
          shards_.workloads(), shards_.policies())),
      cache_(opts_.shared_retrieval_cache
                 ? opts_.shared_retrieval_cache
                 : (opts_.retrieval_cache_capacity
                        ? std::make_shared<retrieval::RetrievalCache>(
                              retrieval::RetrievalCache::Options{
                                  opts_.retrieval_cache_capacity,
                                  opts_.retrieval_cache_secondary_bytes})
                        : nullptr)),
      stats_(std::make_unique<EngineStatsRecorder>()),
      batch_pool_(std::make_unique<BatchPool>())
{
}

CacheMind::CacheMind(CacheMind &&) noexcept = default;

CacheMind::~CacheMind() = default;

std::string
CacheMind::planStage(const retrieval::Retriever &retriever,
                     const query::ParsedQuery &parsed) const
{
    if (!cache_)
        return std::string();
    const std::string slot_key = retriever.cacheKey(parsed);
    if (slot_key.empty())
        return std::string(); // retriever opted this query out
    // '\x1f' (unit separator) never appears in a fingerprint, so the
    // first one always delimits it — the components cannot
    // ambiguously concatenate even when a slot key embeds raw text.
    return retriever.cacheFingerprint() + '\x1f' + slot_key;
}

Deadline
CacheMind::resolveDeadline(double request_ms) const
{
    return Deadline::afterMs(request_ms > 0.0
                                 ? request_ms
                                 : opts_.default_deadline_ms);
}

namespace {

StreamEvent
makeEvent(StreamEvent::Kind kind, std::uint32_t span)
{
    StreamEvent event;
    event.kind = kind;
    event.span = span;
    return event;
}

} // namespace

/**
 * The one sink of a pipeline run. With an event sink it pushes every
 * StreamEvent — stage boundaries, evidence sections, answer deltas —
 * and keeps the counts EngineStats.stream reports; when the request
 * is traced each evidence section also becomes a "section:<label>"
 * span under the retrieve span. With neither it is inactive, so an
 * untraced blocking ask runs the retrievers with chunk formatting
 * off. Evidence bytes never depend on the sink (the streaming
 * invariant), so every form of a request answers identically.
 */
class CacheMind::PipelineSink final : public retrieval::EvidenceSink
{
  public:
    PipelineSink(EventSink *events, const Deadline &deadline)
        : events_(events)
    {
        setDeadline(deadline);
    }

    bool streaming() const { return events_ != nullptr; }

    /**
     * Push one event. Emission is counted even if the consumer has
     * gone — the pipeline's shape does not depend on whether anyone
     * is still listening — but a refused push then unwinds the run,
     * so generation also stops streaming to a dead consumer.
     */
    void
    push(StreamEvent event)
    {
        // Chaos site on every consumer's hand-off, before the event
        // leaves: a typed failure, never a torn delta sequence.
        fail::maybeThrow("core.stream.push");
        if (first_event_ms_ < 0.0)
            first_event_ms_ = clock_.milliseconds();
        ++pushed_;
        chunks_ += event.kind == StreamEvent::Kind::EvidenceChunk;
        deltas_ += event.kind == StreamEvent::Kind::AnswerDelta;
        // Time in push is the consumer's: backpressure waits on a full
        // channel, or a session's socket write, not answering work.
        Stopwatch push_timer;
        const bool accepted = events_->push(std::move(event));
        blocked_ms_ += push_timer.milliseconds();
        if (!accepted)
            throw retrieval::StreamCancelled{};
    }

    /** Record evidence sections as spans under `retrieve` from now. */
    void
    traceSections(const obs::TraceContext &retrieve)
    {
        tc_ = retrieve;
        mark_ = tc_ ? obs::RequestTrace::nowNs() : 0;
    }

    void
    emit(const std::string &label, const std::string &text) override
    {
        const std::uint32_t span = sectionSpan("section:" + label);
        if (events_)
            pushChunk(label, text, span);
    }

    bool active() const override { return tc_ || events_; }

    // The event sink's cancelled() is the pipeline's cooperative
    // cancellation token: retrievers polling it between evidence
    // sections observe a dropped AnswerStream / disconnected serving
    // session and abandon the rest of the retrieval.
    bool
    cancelled() const override
    {
        return events_ && events_->cancelled();
    }

    /**
     * Close out the retrieve stage: the cache-tier outcome, the
     * degraded annotations naming the stage that crossed the
     * deadline, and — when the retriever never ran (a cache hit, a
     * coalesced wait) or emitted nothing — one section span named by
     * the outcome, so the span tree stays complete. A stream gets a
     * cache hit's bundle as one pre-assembled "cached" chunk.
     */
    void
    finishRetrieve(const char *outcome,
                   const retrieval::ContextBundle &evidence, bool hit)
    {
        tc_.note("cache", outcome);
        if (sections_ == 0) {
            const std::uint32_t span =
                sectionSpan(std::string("section:") + outcome);
            if (hit && events_)
                pushChunk("cached", evidence.render(), span);
        }
        if (evidence.degraded) {
            tc_.note("degraded", "true");
            tc_.note("deadline_expired_in", "retrieve");
        }
    }

    /** Wall time spent inside event pushes so far. */
    double blockedMs() const { return blocked_ms_; }

    void
    recordStream(EngineStatsRecorder &stats) const
    {
        stats.recordStream(first_event_ms_ < 0.0 ? 0.0 : first_event_ms_,
                           pushed_, chunks_, deltas_);
    }

  private:
    /** Count one section; add its span when traced (else id 0). */
    std::uint32_t
    sectionSpan(std::string name)
    {
        ++sections_;
        if (!tc_)
            return 0;
        const std::uint64_t now = obs::RequestTrace::nowNs();
        const std::uint32_t span =
            tc_.trace->addSpan(tc_.parent, std::move(name), mark_, now);
        mark_ = now;
        return span;
    }

    void
    pushChunk(std::string label, std::string text, std::uint32_t span)
    {
        StreamEvent event =
            makeEvent(StreamEvent::Kind::EvidenceChunk, span);
        event.label = std::move(label);
        event.text = std::move(text);
        push(std::move(event));
    }

    EventSink *events_;
    obs::TraceContext tc_;
    std::uint64_t mark_ = 0;
    std::uint64_t sections_ = 0;
    Stopwatch clock_;
    double first_event_ms_ = -1.0;
    double blocked_ms_ = 0.0;
    std::uint64_t pushed_ = 0;
    std::uint64_t chunks_ = 0;
    std::uint64_t deltas_ = 0;
};

std::shared_ptr<const retrieval::ContextBundle>
CacheMind::retrieveStage(retrieval::Retriever &retriever,
                         const query::ParsedQuery &parsed,
                         const std::string &cache_key,
                         PipelineSink &sink) const
{
    // The deadline rides the sink: the retrievers' cancellation-poll
    // sites double as degrade checks.
    const auto compute = [&] {
        return std::make_shared<const retrieval::ContextBundle>(
            retriever.retrieveParsed(parsed, sink));
    };
    if (cache_key.empty()) {
        auto evidence = compute();
        sink.finishRetrieve("bypass", *evidence, false);
        return evidence;
    }
    retrieval::RetrievalCache::Outcome outcome;
    std::shared_ptr<const retrieval::ContextBundle> evidence;
    if (!sink.streaming() && !sink.deadline().finite()) {
        evidence = cache_->getOrCompute(cache_key, compute, &outcome);
    } else {
        // Streams and deadline-capped runs stay outside the
        // single-flight protocol. A stream computing under the
        // in-flight claim would push chunks to a consumer-paced sink,
        // letting one paused consumer block every blocking
        // ask() coalescing on the key (including through a
        // cross-engine shared cache). A deadline-capped retrieval may
        // come back degraded, and a degraded bundle must neither be
        // admitted nor handed to coalesced waiters (their budgets
        // differ). peek never waits; publish drops degraded bundles.
        // Two runs racing one key may retrieve twice; the bundles are
        // byte-identical, so that is bounded waste, not a risk.
        evidence = cache_->peek(cache_key, &outcome);
        if (!evidence) {
            evidence = compute();
            cache_->publish(cache_key, evidence, &outcome);
        }
    }
    stats_->recordCacheLookup(retriever.name(), outcome.hit,
                              outcome.evictions);
    sink.finishRetrieve(retrieval::cacheSourceName(outcome.source),
                        *evidence, outcome.hit);
    return evidence;
}

Response
CacheMind::generateStage(
    const query::ParsedQuery &parsed,
    const std::shared_ptr<const retrieval::ContextBundle> &evidence,
    double retrieval_ms, const llm::DeltaFn *on_delta) const
{
    Response r;
    r.bundle = *evidence;
    // The cached evidence may have been assembled for a different
    // phrasing of the same slots; the response carries *this*
    // question's parsed identity so generation (keyed by the raw
    // text) and transcripts stay byte-identical to a cache-off run.
    // Likewise the latency is *this* question's retrieve-stage cost —
    // near zero on a cache hit — not the computing question's.
    r.bundle.parsed = parsed;
    r.bundle.retrieval_ms = retrieval_ms;
    llm::GenerationOptions gen_opts;
    gen_opts.shot_mode = opts_.shot_mode;
    gen_opts.tokens_per_second = opts_.tokens_per_second;
    r.answer = on_delta
                   ? generator_->answerStreaming(r.bundle, gen_opts,
                                                 *on_delta)
                   : generator_->answer(r.bundle, gen_opts);
    r.text = r.answer.text;
    // Degraded evidence still gets answered (partial evidence beats
    // none), but the degradation is counted — it is the engine-side
    // "deadline miss" signal. Degraded bundles are never cached, so
    // this counts each degraded retrieval exactly once.
    if (r.bundle.degraded)
        stats_->recordDegraded();
    return r;
}

Response
CacheMind::runPipeline(retrieval::Retriever &retriever,
                       const RequestContext &ctx,
                       const query::ParsedQuery *upstream,
                       const Deadline &deadline,
                       EventSink *events) const
{
    Stopwatch timer;
    PipelineSink sink(events, deadline);
    const obs::TraceContext tc{ctx.trace, ctx.trace_parent};
    obs::SpanScope root(tc, "ask");
    const obs::TraceContext rtc = tc.child(root.id());

    // Stage 1: parse once, at the engine level. Every event carries
    // the span of the stage that produced it, so a streaming consumer
    // (the serve layer's TTFE attribution) can name the stage behind
    // its first frame.
    query::ParsedQuery own;
    std::uint32_t parse_span = 0;
    if (upstream) {
        root.annotate("parse", "upstream");
    } else {
        obs::SpanScope span(rtc, "parse");
        own = parser_->parse(ctx.question);
        parse_span = span.id();
    }
    const query::ParsedQuery &parsed = upstream ? *upstream : own;
    if (sink.streaming()) {
        StreamEvent event =
            makeEvent(StreamEvent::Kind::Parsed, parse_span);
        event.parsed = parsed;
        sink.push(std::move(event));
    }

    obs::SpanScope plan_span(rtc, "plan");
    const std::string cache_key = planStage(retriever, parsed);
    plan_span.annotate("cacheable", cache_key.empty() ? "no" : "yes");
    plan_span.end();
    if (sink.streaming()) {
        StreamEvent event =
            makeEvent(StreamEvent::Kind::Planned, plan_span.id());
        event.cache_key = cache_key;
        sink.push(std::move(event));
    }

    Stopwatch retrieve_timer;
    obs::SpanScope retrieve_span(rtc, "retrieve");
    sink.traceSections(rtc.child(retrieve_span.id()));
    const auto evidence =
        retrieveStage(retriever, parsed, cache_key, sink);
    retrieve_span.end();
    const double retrieval_ms = retrieve_timer.milliseconds();

    obs::SpanScope generate_span(rtc, "generate");
    const llm::DeltaFn on_delta = [&](const std::string &delta) {
        StreamEvent event =
            makeEvent(StreamEvent::Kind::AnswerDelta, generate_span.id());
        event.text = delta;
        sink.push(std::move(event));
    };
    Response r = generateStage(parsed, evidence, retrieval_ms,
                               sink.streaming() ? &on_delta : nullptr);
    generate_span.end();

    // Close the root span and stamp the outcome before Done goes on
    // the wire: a consumer that has observed Done may render the
    // trace at once. First writer wins: never overwrite an outcome
    // the caller has already decided.
    root.end();
    if (ctx.trace) {
        if (ctx.trace->outcome().empty())
            ctx.trace->setOutcome(r.bundle.degraded ? "degraded"
                                                    : "done");
        stats_->recordTrace(*ctx.trace);
    }
    if (sink.streaming()) {
        StreamEvent event = makeEvent(StreamEvent::Kind::Done, root.id());
        event.response = std::make_shared<const Response>(r);
        sink.push(std::move(event));
        sink.recordStream(*stats_);
    }
    // Serving latency only: consumer pacing (blocked pushes) is not
    // the engine's answering cost.
    stats_->record(std::max(timer.milliseconds() - sink.blockedMs(), 0.0),
                   retrieval::assessQuality(r.bundle));
    return r;
}

void
CacheMind::warmup()
{
    std::call_once(*warm_once_, [this] {
        // The one-time cold-index build is recorded as warm-up, not as
        // part of any stream's time-to-first-event: the first stream
        // against a cold engine must not skew serving-side TTFE
        // percentiles (a server warms its engines at pool-build time,
        // off every session's clock).
        Stopwatch timer;
        shards_.warmIndexes(opts_.build_threads);
        stats_->recordWarmup(timer.milliseconds());
    });
}

Result<Response, EngineError>
CacheMind::ask(const RequestContext &ctx)
{
    if (str::trim(ctx.question).empty()) {
        return EngineError{EngineErrorCode::EmptyQuestion,
                           "question is empty"};
    }
    return runPipeline(*retriever_, ctx, nullptr,
                       resolveDeadline(ctx.deadline_ms), nullptr);
}

Result<Response, EngineError>
CacheMind::ask(const std::string &question)
{
    return ask(RequestContext(question));
}

Result<Response, EngineError>
CacheMind::ask(const RequestContext &ctx, EventSink &events)
{
    if (str::trim(ctx.question).empty()) {
        return EngineError{EngineErrorCode::EmptyQuestion,
                           "question is empty"};
    }
    return streamPipeline(ctx, resolveDeadline(ctx.deadline_ms), events);
}

Response
CacheMind::streamPipeline(const RequestContext &ctx,
                          const Deadline &deadline,
                          EventSink &events) const
{
    try {
        return runPipeline(*retriever_, ctx, nullptr, deadline, &events);
    } catch (const retrieval::StreamCancelled &) {
        // The consumer went away: control flow, not failure, and no
        // latency sample. Keep any outcome the consumer decided.
        if (ctx.trace && ctx.trace->outcome().empty())
            ctx.trace->setOutcome("cancelled");
        stats_->recordStreamCancelled();
        throw;
    }
}

Result<Response, EngineError>
CacheMind::askParsed(const query::ParsedQuery &parsed,
                     const RequestContext &ctx)
{
    if (str::trim(parsed.raw).empty()) {
        return EngineError{EngineErrorCode::EmptyQuestion,
                           "question is empty"};
    }
    return runPipeline(*retriever_, ctx, &parsed,
                       resolveDeadline(ctx.deadline_ms), nullptr);
}

void
CacheMind::ensureBatchPool(std::size_t workers)
{
    auto &extras = batch_pool_->retrievers;
    std::lock_guard<std::mutex> pool_lock(batch_pool_->mu);
    if (extras.size() >= workers - 1)
        return;
    // Construct the missing workers concurrently on the build_threads
    // pool: per-worker construction can be heavy (LlamaIndex
    // re-embeds its whole index), and each factory call is
    // independent over the shared read-only shard view.
    const std::size_t need = workers - 1 - extras.size();
    const std::size_t ctor_threads =
        opts_.build_threads
            ? opts_.build_threads
            : std::max<std::size_t>(
                  std::thread::hardware_concurrency(), 1);
    const retrieval::RetrieverOptions retriever_opts{
        opts_.retriever_params};
    std::vector<std::unique_ptr<retrieval::Retriever>> fresh(need);
    parallelFor(need, ctor_threads, [&](std::size_t i) {
        fresh[i] = retrieval::RetrieverRegistry::instance().create(
            opts_.retriever, shards_, retriever_opts);
    });
    for (auto &r : fresh) {
        CM_ASSERT(r != nullptr, "retriever vanished from registry: ",
                  opts_.retriever);
        extras.push_back(std::move(r));
    }
}

Result<std::vector<Response>, EngineError>
CacheMind::askBatch(const std::vector<RequestContext> &requests)
{
    // Pre-flight validation keeps the concurrent section infallible,
    // so error selection cannot depend on scheduling order.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (str::trim(requests[i].question).empty()) {
            return EngineError{EngineErrorCode::EmptyQuestion,
                               "batch question #" + std::to_string(i) +
                                   " is empty"};
        }
    }

    // One claim loop per worker, each with its own retriever:
    // retrievers are not required to be thread-safe, and every
    // retrieval/generation draw is keyed by the question text alone,
    // so the answers are byte-identical to a sequential ask() loop
    // regardless of how questions land on workers. The cross-question
    // cache is shared by all workers (identically configured
    // retrievers assemble identical bundles for equal keys, so which
    // worker populates an entry cannot change any answer), and a hot
    // slot key retrieves once: concurrent misses coalesce onto the
    // first in-flight retrieval. Worker 0 is the calling thread with
    // the engine's primary retriever; the extra workers draw on the
    // lazily built, batch-to-batch reusable pool.
    const std::size_t workers =
        std::min(std::max<std::size_t>(opts_.batch_workers, 1),
                 std::max<std::size_t>(requests.size(), 1));
    ensureBatchPool(workers);
    std::vector<Response> responses(requests.size());
    std::atomic<std::size_t> next{0};
    parallelFor(workers, workers, [&](std::size_t w) {
        retrieval::Retriever &retriever =
            w == 0 ? *retriever_ : *batch_pool_->retrievers[w - 1];
        try {
            for (std::size_t i = next++; i < requests.size(); i = next++) {
                const RequestContext &req = requests[i];
                responses[i] =
                    runPipeline(retriever, req, nullptr,
                                resolveDeadline(req.deadline_ms), nullptr);
            }
        } catch (...) {
            // Stop every worker's claims. parallelFor rethrows the
            // first failure once all workers have returned — the
            // exception a sequential ask() loop would have thrown.
            next.store(requests.size());
            throw;
        }
    });
    stats_->recordBatch();
    return responses;
}

Result<std::vector<Response>, EngineError>
CacheMind::askBatch(const std::vector<std::string> &questions)
{
    std::vector<RequestContext> requests;
    requests.reserve(questions.size());
    for (const std::string &q : questions)
        requests.emplace_back(q);
    return askBatch(requests);
}

Result<AnswerStream, EngineError>
CacheMind::askStream(const std::string &question)
{
    return askStream(RequestContext(question));
}

Result<AnswerStream, EngineError>
CacheMind::askStream(const RequestContext &ctx)
{
    if (str::trim(ctx.question).empty()) {
        return EngineError{EngineErrorCode::EmptyQuestion,
                           "question is empty"};
    }
    // The pipeline runs as a job on the engine's persistent worker
    // pool — a warm thread parked on a condvar picks it up in the
    // microsecond range, where a per-call std::thread spawn would pay
    // thread-creation cost on every request. Lazy creation keeps
    // blocking-only engines threadless.
    if (!stream_pool_)
        stream_pool_ = std::make_unique<WorkerPool>(opts_.build_threads);
    auto channel =
        std::make_shared<StreamChannel>(opts_.stream_buffer);
    auto ticket = std::make_shared<StreamTicket>();
    // The budget clock starts at submission: queueing behind busy pool
    // workers spends the request's budget, exactly as a serving
    // front-end would account it.
    const Deadline deadline = resolveDeadline(ctx.deadline_ms);
    stream_pool_->submit([this, channel, ticket, ctx, deadline] {
        // Exception barrier: WorkerPool jobs may not throw, so any
        // pipeline failure (throwing custom retriever, bad_alloc, an
        // injected fault) reaches the consumer through the channel,
        // where blocking ask() would have propagated it.
        try {
            // Failpoint for the pool-task path, inside this job's own
            // barrier: an injected fault surfaces to the consumer as a
            // typed channel failure, like a throwing retriever.
            fail::maybeThrow("core.worker_pool.task");
            // Warm every shard's postings index in parallel before the
            // pipeline touches its shard, so the first evidence chunk
            // never waits behind a serial lazy index build (no-op once
            // warm).
            warmup();
            streamPipeline(ctx, deadline, *channel);
        } catch (const retrieval::StreamCancelled &) {
            // The consumer dropped the stream; streamPipeline counted
            // it and nobody is left to tell.
        } catch (...) {
            if (ctx.trace && ctx.trace->outcome().empty())
                ctx.trace->setOutcome("error");
            channel->fail(std::current_exception());
        }
        channel->close();
        // Last action: release anyone waiting on the stream handle.
        ticket->arrive();
    });
    return AnswerStream(std::move(channel), std::move(ticket));
}

ChatSession::ChatSession(CacheMind &engine, llm::MemoryConfig memory_cfg)
    : engine_(engine), memory_(memory_cfg)
{
}

query::ParsedQuery
ChatSession::augmentParsed(query::ParsedQuery parsed,
                           const std::vector<std::string> &recalled)
    const
{
    // Concept/code questions are retrieval-light; pinning a workload
    // from memory onto them would change what they are asking.
    if (parsed.intent == query::QueryIntent::Concept ||
        parsed.intent == query::QueryIntent::CodeGen) {
        return parsed;
    }
    if (parsed.hasWorkload() && parsed.hasPolicy())
        return parsed;

    if (recalled.empty())
        return parsed;
    std::string recalled_text;
    for (const auto &fact : recalled)
        recalled_text += fact + "\n";
    const auto mem = engine_.parser().parse(recalled_text);

    // Fill the missing slots directly (no re-parse of an augmented
    // string); `raw` is annotated the same way, so transcripts and
    // the generator's question key see what retrieval saw.
    if (!parsed.hasWorkload() && mem.hasWorkload()) {
        parsed.workloads.push_back(mem.workload());
        parsed.raw += " (in the " + mem.workload() + " workload)";
    }
    // A comparison question deliberately names no single policy; do
    // not pin one onto it from memory.
    if (!parsed.hasPolicy() && mem.hasPolicy() &&
        parsed.intent != query::QueryIntent::PolicyComparison) {
        parsed.policies.push_back(mem.policy());
        parsed.raw += " (under " + mem.policy() + ")";
    }
    return parsed;
}

Result<Response, EngineError>
ChatSession::ask(const std::string &question)
{
    // Reject blank input before augmentation: memory hints could turn
    // it into a fabricated non-empty query the engine would answer.
    if (str::trim(question).empty()) {
        return EngineError{EngineErrorCode::EmptyQuestion,
                           "question is empty"};
    }
    // Conversation memory augments the query *before* retrieval:
    // noted facts from earlier turns fill slots the follow-up leaves
    // unspecified, so retrieval sees the sharpened query. The
    // question is parsed exactly once — the augmented ParsedQuery
    // enters the engine's staged pipeline directly instead of being
    // rendered back to text and parsed a second time.
    const auto recalled = memory_.recall(question);
    const auto parsed = augmentParsed(
        engine_.parser().parse(question), recalled);
    auto result = engine_.askParsed(parsed);
    if (!result.ok())
        return result;
    Response r = std::move(result).value();
    // Prepend recalled memory to the rendered context so transcripts
    // show the carried state.
    const std::string memory_block = memory_.renderContext(recalled);
    if (!memory_block.empty())
        r.bundle.result_text = memory_block + r.bundle.result_text;
    memory_.addTurn(question, r.text);
    turns_.push_back(llm::Turn{question, r.text});
    return r;
}

std::string
ChatSession::transcript() const
{
    std::ostringstream os;
    for (const auto &t : turns_) {
        os << "User: " << t.user << "\n";
        os << "Assistant: " << t.assistant << "\n\n";
    }
    return os.str();
}

} // namespace cachemind::core
