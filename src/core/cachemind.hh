/**
 * @file
 * The CacheMind engine: the public v2 facade wiring a trace database,
 * a registry-constructed retriever, and a registry-constructed
 * generator backend into ask()/askStream()/askBatch() calls, plus a
 * ChatSession that layers conversation memory on top (the assistive
 * chat tool of the paper's use-case transcripts).
 *
 * Every entry point runs one staged pipeline — parse, plan, retrieve,
 * generate — so a question gets the same trace-grounded answer
 * whether it is asked in chat, streamed, or graded in a batch. The
 * question is parsed exactly once at the engine level; the plan stage
 * derives a cache key from (retriever fingerprint, shard key, slot
 * key); the retrieve stage serves the evidence bundle from a shared,
 * thread-safe cross-question RetrievalCache before the generator
 * answers from it. A streamed run pushes an event at every stage
 * boundary into an EventSink — the caller's own (ask(ctx, sink)) or
 * askStream's StreamChannel; a blocking run is the same pipeline with
 * no sink.
 *
 * Components are referenced by registry name (see
 * retrieval::RetrieverRegistry and llm::BackendRegistry): new
 * retrievers and backends self-register from their own translation
 * units, so this facade never changes when one is added.
 * Misconfiguration surfaces as typed Result errors instead of silent
 * defaults, and independent questions can be answered concurrently
 * through askBatch with deterministic answers and stable output
 * ordering.
 */

#ifndef CACHEMIND_CORE_CACHEMIND_HH
#define CACHEMIND_CORE_CACHEMIND_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/deadline.hh"
#include "base/result.hh"
#include "core/engine_stats.hh"
#include "core/stream.hh"
#include "db/database.hh"
#include "llm/generator.hh"
#include "llm/memory.hh"
#include "obs/trace.hh"
#include "query/parser.hh"
#include "retrieval/cache.hh"
#include "retrieval/context.hh"

namespace cachemind::core {

class WorkerPool;

/** Engine configuration: components by registry name. */
struct EngineOptions
{
    /** Retriever registry key ("sieve", "ranger", "llamaindex", ...). */
    std::string retriever = "sieve";
    /** Backend registry key ("gpt-4o", "o3", ...). */
    std::string backend = "gpt-4o";
    /** Prompting mode passed to the generator. */
    llm::ShotMode shot_mode = llm::ShotMode::ZeroShot;
    /** Worker threads used by askBatch (>= 1). */
    std::size_t batch_workers = 4;
    /**
     * Threads used when the engine constructs components — today the
     * per-worker retriever pool built on first askBatch, where e.g.
     * LlamaIndex re-embeds its whole index per worker. Same sentinel
     * as db::BuildOptions::build_threads: 0 = one thread per hardware
     * core (always clamped to the work available).
     */
    std::size_t build_threads = 0;
    /**
     * Capacity (resident bundles) of the shared cross-question
     * retrieval cache; 0 disables it. One cache is shared by ask()
     * and every askBatch worker, so overlapping questions about the
     * same trace slice assemble their evidence bundle once.
     */
    std::size_t retrieval_cache_capacity = 1024;
    /**
     * Encoded-byte budget of the retrieval cache's compressed
     * secondary tier (0 disables the tier). Bundles the LRU hot
     * tier demotes are kept in binary-codec form instead of being
     * destroyed; a secondary hit decodes and re-promotes instead of
     * re-running retrieval. Byte-exact codec round trip: answers are
     * identical with the tier on or off.
     */
    std::size_t retrieval_cache_secondary_bytes = 0;
    /**
     * Externally owned retrieval cache shared *across engines*. When
     * set, it replaces the engine-private cache (the capacity knob is
     * ignored). Retrieval is backend-independent and cache keys embed
     * the retriever fingerprint, so a multi-backend sweep over the
     * same shard view (the Figure 4/6 harness) can hand every engine
     * one cache and assemble each evidence bundle once instead of
     * once per backend. The cache must outlive every engine using it.
     */
    std::shared_ptr<retrieval::RetrievalCache> shared_retrieval_cache;
    /**
     * Per-retriever scenario knobs forwarded verbatim to the registry
     * factory (e.g. {"evidence_window","4"} for Sieve, {"fidelity",
     * "0.6"} for Ranger) — Figure 5/6-style sweeps run through the
     * Builder instead of constructing components directly. Knobs feed
     * the retriever's cache fingerprint, so differently tuned engines
     * never alias each other's cached bundles.
     */
    std::map<std::string, std::string> retriever_params;
    /**
     * Buffered events per streaming channel (>= 1): the backpressure
     * bound between an askStream pipeline worker and its consumer.
     * Small values bound memory under a slow consumer; large values
     * decouple bursty producers from it.
     */
    std::size_t stream_buffer = 64;
    /**
     * Streaming generation pace in tokens per second (0 = unpaced),
     * forwarded to llm::GenerationOptions. With a pace set, answer
     * deltas are emitted at a real backend's decode rate, so
     * end-to-end streaming latency includes a generation term instead
     * of being retrieval-only. Answer bytes are unaffected.
     */
    double tokens_per_second = 0.0;
    /**
     * Default retrieval deadline per question in milliseconds (0 =
     * none). When the budget runs out mid-retrieval the retriever
     * degrades — it returns the evidence gathered so far with
     * bundle.degraded set and the answer is generated from partial
     * evidence — instead of failing. Degraded bundles never enter the
     * retrieval cache. RequestContext::deadline_ms overrides this
     * per call. Questions with a finite deadline bypass the single-flight
     * miss coalescing (a degraded result must not be handed to
     * coalesced waiters), so leave this 0 unless requests carry real
     * latency budgets.
     */
    double default_deadline_ms = 0.0;
};

/**
 * One request, as a single value: the question, its deadline, an
 * optional correlation id, and an optional trace handle. This is the
 * argument accepted by ask/askParsed/askStream/askBatch (and, over
 * the wire, by the serve layer's handleAsk).
 *
 * Tracing: traced() attaches a fresh obs::RequestTrace; the engine
 * then records a span per pipeline stage (parse, plan, retrieve with
 * per-section children and the cache-tier outcome, generate) under
 * `trace_parent`. With `trace` null the request runs exactly the
 * untraced hot path (a single pointer test per potential span).
 */
struct RequestContext
{
    std::string question;
    /**
     * Retrieval deadline for this question in milliseconds; 0 falls
     * back to EngineOptions::default_deadline_ms (and if that is also
     * 0, the question has no deadline).
     */
    double deadline_ms = 0.0;
    /**
     * Caller-supplied correlation id ("" = none). The serve layer
     * echoes it on every frame of the request and keys the `trace`
     * verb with it.
     */
    std::string request_id;
    /** Trace sink for this request; null = not traced. */
    std::shared_ptr<obs::RequestTrace> trace;
    /** Span id the engine's root "ask" span should nest under. */
    std::uint32_t trace_parent = 0;

    RequestContext() = default;
    explicit RequestContext(std::string q) : question(std::move(q)) {}

    RequestContext &
    withDeadlineMs(double ms)
    {
        deadline_ms = ms;
        return *this;
    }

    RequestContext &
    withRequestId(std::string id)
    {
        request_id = std::move(id);
        return *this;
    }

    /** Attach a fresh trace (id defaults to request_id). */
    RequestContext &
    traced(std::string id = "")
    {
        if (id.empty())
            id = request_id.empty() ? question : request_id;
        trace = std::make_shared<obs::RequestTrace>(std::move(id));
        trace_parent = 0;
        return *this;
    }
};

/** What went wrong, as a branchable code plus a rendered message. */
enum class EngineErrorCode {
    UnknownRetriever,
    UnknownBackend,
    InvalidOptions,
    EmptyQuestion,
};

const char *engineErrorCodeName(EngineErrorCode code);

struct EngineError
{
    EngineErrorCode code = EngineErrorCode::InvalidOptions;
    std::string message;
};

/** Render an EngineError for logs (also used by Result::expect). */
std::string errorMessage(const EngineError &error);

/** One complete question/answer exchange. */
struct Response
{
    /** Final natural-language answer. */
    std::string text;
    /** The evidence bundle behind the answer. */
    retrieval::ContextBundle bundle;
    /** Structured answer (graders, chat tooling). */
    llm::Answer answer;
};

/**
 * The engine. The database must outlive the engine.
 *
 * Concurrency contract: askBatch fans out internally, and stats()
 * snapshots are safe from any thread, but an engine instance expects
 * one caller at a time for ask()/askBatch() — callers wanting
 * parallel serving run one engine per thread (engines are cheap; the
 * database is shared and read-only).
 */
class CacheMind
{
  public:
    class Builder;

    /**
     * Construct an engine from options; typed errors for unknown
     * component names or invalid settings.
     */
    static Result<CacheMind, EngineError>
    create(const db::TraceDatabase &db,
           EngineOptions opts = EngineOptions{});

    // Moves and the destructor are defined out of line where
    // BatchPool is a complete type.
    CacheMind(CacheMind &&) noexcept;
    ~CacheMind();
    CacheMind(const CacheMind &) = delete;
    CacheMind &operator=(const CacheMind &) = delete;

    /**
     * Answer one request, trace-grounded. The RequestContext carries
     * the question, its deadline, and (optionally) a request id and
     * trace handle — see RequestContext.
     */
    Result<Response, EngineError> ask(const RequestContext &ctx);

    /** ask() one question with default knobs. */
    Result<Response, EngineError> ask(const std::string &question);

    /**
     * Push-style ask (the serve layer's): run the pipeline on the
     * calling thread and hand `events` every event askStream would
     * yield, and call events.flush() at the flush points EventSink
     * names; the Response equals blocking ask()'s. A refused push, or
     * events.cancelled() between evidence sections, unwinds the run
     * with retrieval::StreamCancelled, rethrown once counted in
     * stats().stream.cancelled. Like ask(), it never calls warmup();
     * like askStream, it stays off the cache's single-flight path.
     */
    Result<Response, EngineError> ask(const RequestContext &ctx,
                                      EventSink &events);

    /**
     * Answer an already-parsed question. This is the pipeline entry
     * for callers that parse (or augment) upstream — ChatSession
     * sharpens under-specified follow-ups at the slot level and hands
     * the result here, so the question is parsed exactly once. The
     * context's `question` field is ignored (the parsed query wins);
     * its deadline, request id, and trace handle apply as in ask().
     */
    Result<Response, EngineError>
    askParsed(const query::ParsedQuery &parsed,
              const RequestContext &ctx = {});

    /**
     * Answer independent requests concurrently, one claim loop per
     * worker. Answers are deterministic — byte-identical to a
     * sequential ask() loop — and results preserve request order.
     * Each worker gets its own registry-constructed retriever, and
     * every generator draw is keyed by the question text alone, so
     * scheduling order cannot leak into any answer. Per-request
     * deadlines and trace handles apply individually. A pipeline
     * failure is rethrown once every worker has stopped.
     */
    Result<std::vector<Response>, EngineError>
    askBatch(const std::vector<RequestContext> &requests);

    /** askBatch() plain questions with default knobs. */
    Result<std::vector<Response>, EngineError>
    askBatch(const std::vector<std::string> &questions);

    /**
     * Streaming ask: run the pipeline as a job on the engine's worker
     * pool, with a StreamChannel as its event sink, and return a
     * pull-style AnswerStream that yields an event as each stage
     * completes — Parsed, Planned, one EvidenceChunk per section the
     * retriever assembles, AnswerDelta fragments during generation,
     * and a terminal Done whose Response is byte-identical to a
     * blocking ask() of the same question. Streamed retrieval still
     * goes through the shared RetrievalCache (a hit streams the cached
     * bundle as one chunk). The first streaming call warms every
     * shard's postings index in parallel (see warmup()), so the first
     * event never waits behind a serial index build.
     *
     * The stream counts as the engine's one in-flight call: consume
     * (or drop) it before the next ask()/askBatch()/askStream(), and
     * neither move nor destroy the engine while a stream is live.
     */
    Result<AnswerStream, EngineError>
    askStream(const RequestContext &ctx);

    /** askStream() one question with default knobs. */
    Result<AnswerStream, EngineError>
    askStream(const std::string &question);

    /**
     * Pre-build every shard's postings index on the build_threads
     * pool (idempotent, thread-safe): a cold sweep's first questions
     * otherwise pay the lazy per-shard builds serially. askStream
     * calls this once on first use; latency-sensitive blocking
     * callers can invoke it explicitly after construction.
     */
    void warmup();

    /** Aggregate serving statistics (thread-safe snapshot). */
    EngineStats
    stats() const
    {
        EngineStats s = stats_->snapshot();
        s.index = shards_.indexTotals();
        if (cache_)
            s.cache_tiers = cache_->tiered();
        return s;
    }

    retrieval::Retriever &retriever() { return *retriever_; }
    const llm::GeneratorLlm &generator() const { return *generator_; }
    const EngineOptions &options() const { return opts_; }
    const db::TraceDatabase &database() const { return db_; }
    /** The shard view the engine's retrievers serve from. */
    const db::ShardSet &shards() const { return shards_; }
    /** The engine-level parser (vocabulary from the shard view). */
    const query::NlQueryParser &parser() const { return *parser_; }
    /** The shared cross-question cache; nullptr when disabled. */
    const retrieval::RetrievalCache *
    retrievalCache() const
    {
        return cache_.get();
    }

  private:
    CacheMind(const db::TraceDatabase &db, db::ShardSet shards,
              EngineOptions opts,
              std::unique_ptr<retrieval::Retriever> retriever,
              std::unique_ptr<llm::GeneratorLlm> generator);

    /** A run's evidence sink and event hand-off (defined in the .cc). */
    class PipelineSink;

    // ------------------------------------------------------ pipeline
    //
    // parse -> plan -> retrieve -> generate, behind every entry point.
    // Each stage is pure with respect to answer bytes: scheduling,
    // cache state and whether anyone reads the events can change
    // *when* evidence is assembled, never *what* is answered.

    /**
     * Run one request through every stage: the root "ask" span, parse
     * (skipped when `upstream` is the caller's parsed query), plan,
     * retrieve, generate, trace finish and stats recording. With an
     * `events` sink, every stage boundary, evidence section and answer
     * delta is also pushed as a StreamEvent, and the time spent inside
     * those pushes (consumer pacing) is left out of the recorded
     * latency; without one this is the blocking form. Failures
     * propagate to the caller, StreamCancelled included, and record
     * no latency sample.
     */
    Response runPipeline(retrieval::Retriever &retriever,
                         const RequestContext &ctx,
                         const query::ParsedQuery *upstream,
                         const Deadline &deadline,
                         EventSink *events) const;

    /**
     * runPipeline on the primary retriever with `events`; a
     * StreamCancelled is counted (stats, trace outcome "cancelled")
     * and rethrown. Shared by ask(ctx, sink) and askStream's job.
     */
    Response streamPipeline(const RequestContext &ctx,
                            const Deadline &deadline,
                            EventSink &events) const;

    /**
     * Stage 2: derive the cross-question cache key for this
     * (retriever, parsed query) pair; "" = do not cache.
     */
    std::string planStage(const retrieval::Retriever &retriever,
                          const query::ParsedQuery &parsed) const;

    /**
     * Stage 3: produce the evidence bundle, through the shared cache
     * when the plan allows. A blocking run with no deadline uses the
     * cache's single-flight getOrCompute (concurrent misses on a hot
     * slice coalesce onto one retrieval); streams and deadline-capped
     * runs peek and publish instead. The sink carries the deadline,
     * records section spans and the cache-tier outcome (hot_hit /
     * secondary_promote / miss / single_flight_wait / bypass) when
     * traced, and streams the evidence when an event sink is attached.
     */
    std::shared_ptr<const retrieval::ContextBundle>
    retrieveStage(retrieval::Retriever &retriever,
                  const query::ParsedQuery &parsed,
                  const std::string &cache_key,
                  PipelineSink &sink) const;

    /**
     * Stage 4: generate the answer from the evidence. The response
     * bundle is a per-question copy patched with *this* question's
     * parsed identity (so bundle sharing never leaks another
     * phrasing's raw text into generation) and *this* question's
     * retrieve-stage latency (near zero on a cache hit). When
     * `on_delta` is non-null the answer text additionally streams
     * through it fragment by fragment; the generated bytes are
     * identical either way.
     */
    Response
    generateStage(const query::ParsedQuery &parsed,
                  const std::shared_ptr<const retrieval::ContextBundle>
                      &evidence,
                  double retrieval_ms,
                  const llm::DeltaFn *on_delta) const;

    /**
     * Resolve the effective deadline for one call: per-call budget,
     * else the engine default, else infinite.
     */
    Deadline resolveDeadline(double request_ms) const;

    struct BatchPool;

    /**
     * Grow the lazily built batch retriever pool to serve `workers`
     * workers (worker 0 is the engine's primary retriever).
     */
    void ensureBatchPool(std::size_t workers);

    const db::TraceDatabase &db_;
    /** Immutable shard view handed to every registry-built retriever. */
    db::ShardSet shards_;
    EngineOptions opts_;
    std::unique_ptr<retrieval::Retriever> retriever_;
    std::unique_ptr<llm::GeneratorLlm> generator_;
    /** Engine-level query parser: one parse per question, any stage. */
    std::unique_ptr<query::NlQueryParser> parser_;
    /** Shared cross-question retrieval cache (nullptr = disabled). */
    std::shared_ptr<retrieval::RetrievalCache> cache_;
    std::unique_ptr<EngineStatsRecorder> stats_;
    /** Lazily-built per-worker retrievers, reused across batches. */
    std::unique_ptr<BatchPool> batch_pool_;
    /**
     * Persistent askStream pipeline workers (lazily created on first
     * askStream, sized by build_threads). Parking a warm thread on a
     * condvar replaces the former per-call std::thread spawn, which
     * cost tens of microseconds of time-to-first-event per request —
     * the difference between a serving front-end that spawns a thread
     * per question and one that never does.
     */
    std::unique_ptr<WorkerPool> stream_pool_;
    /** One-shot guard for the parallel index warm-up (warmup()). */
    std::unique_ptr<std::once_flag> warm_once_ =
        std::make_unique<std::once_flag>();
};

/**
 * Fluent construction:
 *
 *   auto engine = core::CacheMind::Builder(db)
 *                     .withRetriever("sieve")
 *                     .withBackend("gpt-4o")
 *                     .withShotMode(llm::ShotMode::ZeroShot)
 *                     .build()           // Result<CacheMind, ...>
 *                     .expect("engine");
 */
class CacheMind::Builder
{
  public:
    explicit Builder(const db::TraceDatabase &db) : db_(db) {}

    Builder &
    withRetriever(std::string name)
    {
        opts_.retriever = std::move(name);
        return *this;
    }

    Builder &
    withBackend(std::string name)
    {
        opts_.backend = std::move(name);
        return *this;
    }

    Builder &
    withShotMode(llm::ShotMode mode)
    {
        opts_.shot_mode = mode;
        return *this;
    }

    Builder &
    withBatchWorkers(std::size_t workers)
    {
        opts_.batch_workers = workers;
        return *this;
    }

    Builder &
    withBuildThreads(std::size_t threads)
    {
        opts_.build_threads = threads;
        return *this;
    }

    /** Shared cross-question retrieval-cache capacity (0 = off). */
    Builder &
    withRetrievalCacheCapacity(std::size_t bundles)
    {
        opts_.retrieval_cache_capacity = bundles;
        return *this;
    }

    /** Compressed secondary-tier byte budget (0 = tier off). */
    Builder &
    withSecondaryCacheBytes(std::size_t bytes)
    {
        opts_.retrieval_cache_secondary_bytes = bytes;
        return *this;
    }

    /**
     * Externally owned bundle cache shared across engines (the
     * multi-backend sweep pattern); overrides the capacity knob.
     */
    Builder &
    withSharedRetrievalCache(
        std::shared_ptr<retrieval::RetrievalCache> cache)
    {
        opts_.shared_retrieval_cache = std::move(cache);
        return *this;
    }

    /** Streaming-channel buffer capacity (events; >= 1). */
    Builder &
    withStreamBuffer(std::size_t events)
    {
        opts_.stream_buffer = events;
        return *this;
    }

    /** Streaming generation pace (tokens/second; 0 = unpaced). */
    Builder &
    withTokensPerSecond(double pace)
    {
        opts_.tokens_per_second = pace;
        return *this;
    }

    /** Default per-question retrieval deadline in ms (0 = none). */
    Builder &
    withDeadlineMs(double ms)
    {
        opts_.default_deadline_ms = ms;
        return *this;
    }

    /** Raw scenario knob forwarded to the retriever factory. */
    Builder &
    withRetrieverParam(std::string key, std::string value)
    {
        opts_.retriever_params[std::move(key)] = std::move(value);
        return *this;
    }

    /** Sieve evidence-window knob (Figure 5-style sweeps). */
    Builder &
    withSieveEvidenceWindow(std::size_t rows)
    {
        return withRetrieverParam("evidence_window",
                                  std::to_string(rows));
    }

    /** Ranger codegen-fidelity knob (Figure 6-style sweeps). */
    Builder &
    withRangerFidelity(double fidelity)
    {
        return withRetrieverParam("fidelity",
                                  std::to_string(fidelity));
    }

    Result<CacheMind, EngineError>
    build() const
    {
        return CacheMind::create(db_, opts_);
    }

  private:
    const db::TraceDatabase &db_;
    EngineOptions opts_;
};

/** Multi-turn session with conversation memory. */
class ChatSession
{
  public:
    explicit ChatSession(CacheMind &engine,
                         llm::MemoryConfig memory_cfg =
                             llm::MemoryConfig{});

    /** Ask with conversation context; records the turn. */
    Result<Response, EngineError> ask(const std::string &question);

    const llm::ConversationMemory &memory() const { return memory_; }

    /** Full transcript rendered as a demo chat (Figures 10-13). */
    std::string transcript() const;

  private:
    /**
     * Fill slots the question leaves unspecified (workload/policy)
     * from the recalled conversation facts, so retrieval sees the
     * sharpened query. Explicit slots in the question always win.
     * Operates on the parsed query directly — the augmented result is
     * handed to CacheMind::askParsed, never re-parsed — with `raw`
     * annotated to keep transcripts and generator keying faithful to
     * what retrieval actually saw.
     */
    query::ParsedQuery
    augmentParsed(query::ParsedQuery parsed,
                  const std::vector<std::string> &recalled) const;

    CacheMind &engine_;
    llm::ConversationMemory memory_;
    std::vector<llm::Turn> turns_;
};

} // namespace cachemind::core

#endif // CACHEMIND_CORE_CACHEMIND_HH
