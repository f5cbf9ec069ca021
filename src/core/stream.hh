/**
 * @file
 * The streaming answer subsystem: StreamEvent (one unit of pipeline
 * progress), EventSink (where a run hands its events), StreamChannel
 * (a bounded MPSC event queue, askStream's sink), and AnswerStream
 * (the pull-style consumer handle returned by CacheMind::askStream).
 *
 * The staged ask() pipeline — parse, plan, retrieve, generate — emits
 * an event as each stage completes: the parsed slots, the derived
 * cache key, every evidence section the retriever assembles (see
 * retrieval::EvidenceSink), the answer text in deltas, and a terminal
 * Done carrying the complete Response. Streaming changes *when*
 * results become visible, never *what* is answered: the Done response
 * is byte-identical to a blocking ask() for the same question.
 *
 * A blocking run has no event sink. CacheMind::ask(ctx, sink) runs
 * the pipeline on the caller's thread; askStream runs it on a pooled
 * worker into a StreamChannel. Either way the first evidence section
 * reaches the consumer while the retriever is still assembling the
 * rest, so interactive "why did this line get evicted?" sessions see
 * evidence at a fraction of the full-answer latency.
 */

#ifndef CACHEMIND_CORE_STREAM_HH
#define CACHEMIND_CORE_STREAM_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "query/parsed_query.hh"

namespace cachemind::core {

struct Response;

/** One unit of streaming pipeline progress. */
struct StreamEvent
{
    enum class Kind {
        /** Stage 1 done: the question's parsed slots are available. */
        Parsed,
        /** Stage 2 done: the retrieval-cache key was derived. */
        Planned,
        /** One evidence section, streamed mid-retrieval. */
        EvidenceChunk,
        /** One fragment of the answer text, streamed mid-generation. */
        AnswerDelta,
        /** Terminal: the complete response (byte-identical to ask()). */
        Done,
    };

    Kind kind = Kind::Parsed;
    /** Parsed: the slots as the engine-level parser understood them. */
    query::ParsedQuery parsed;
    /** Planned: the cross-question cache key ("" = not cacheable). */
    std::string cache_key;
    /** EvidenceChunk: section name ("overview", "slice", ...). */
    std::string label;
    /** EvidenceChunk / AnswerDelta: the streamed text. */
    std::string text;
    /** Done: the complete response behind a shared handle. */
    std::shared_ptr<const Response> response;
    /**
     * Span id of the pipeline stage that produced this event (0 when
     * the request is untraced) — Parsed carries the parse span,
     * Planned the plan span, each EvidenceChunk its section span,
     * AnswerDelta the generate span, Done the request's root span.
     * Consumers resolve it through the request's obs::RequestTrace;
     * the serve layer uses it to attribute time-to-first-event to a
     * stage.
     */
    std::uint32_t span = 0;
};

const char *streamEventKindName(StreamEvent::Kind kind);

/**
 * Where a pipeline run hands its events, on the pipeline's thread.
 * push() returning false means the consumer is gone, and the engine
 * unwinds the run with retrieval::StreamCancelled; cancelled() is
 * polled between evidence sections, so a silent run stops too.
 *
 * flush() says the events pushed so far should reach the consumer
 * now. The engine calls it before the retriever computes (a cache
 * miss or a bypass), after every evidence chunk, after every answer
 * delta when generation is paced, and after Done, so a sink that
 * batches its pushes never holds an event across computed work or a
 * paced sleep. A sink that finds the consumer gone while flushing
 * refuses the next push and reports cancelled(). A sink that delivers
 * at push keeps the no-op.
 */
class EventSink
{
  public:
    virtual ~EventSink() = default;
    virtual bool push(StreamEvent event) = 0;
    virtual bool cancelled() const = 0;
    virtual void flush() {}
};

/**
 * Bounded MPSC event channel: producers push, one consumer pops.
 * push() applies backpressure (blocks while the buffer is full) so a
 * slow consumer bounds producer memory; pop() blocks until an event,
 * the channel closing, or cancellation.
 *
 * The producer close()s the channel when it is finished, so the
 * consumer's pop() drains to nullopt without any out-of-band signal.
 * cancel() is the consumer-side escape hatch (an abandoned
 * AnswerStream): buffered events are dropped and subsequent pushes
 * return false immediately, so producers never block on a consumer
 * that went away.
 */
class StreamChannel final : public EventSink
{
  public:
    explicit StreamChannel(std::size_t capacity = 64);

    StreamChannel(const StreamChannel &) = delete;
    StreamChannel &operator=(const StreamChannel &) = delete;

    /**
     * Producer: enqueue one event, blocking while the buffer is full.
     * Returns false (dropping the event) once the channel is
     * cancelled or closed.
     */
    bool push(StreamEvent event) override;

    /** Consumer: blocking pop; nullopt once closed and drained. */
    std::optional<StreamEvent> pop();

    /** Consumer: non-blocking pop; nullopt when nothing is buffered. */
    std::optional<StreamEvent> tryPop();

    /** Producer side: no further events (pending pops drain). */
    void close();

    /**
     * Producer side: record a pipeline failure (first error wins).
     * Buffered events still drain; once the channel is exhausted the
     * consumer observes the error through error() — AnswerStream
     * rethrows it, matching blocking ask(), instead of letting it
     * escape a worker thread into std::terminate.
     */
    void fail(std::exception_ptr error);

    /** The recorded pipeline failure, if any. */
    std::exception_ptr error() const;

    /** Consumer side: drop buffered events, refuse new pushes. */
    void cancel();

    bool closed() const;
    bool cancelled() const override;
    std::size_t capacity() const { return capacity_; }

    /** Events accepted by push() over the channel's lifetime. */
    std::uint64_t pushed() const;

  private:
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable can_push_;
    std::condition_variable can_pop_;
    std::deque<StreamEvent> buffer_;
    std::uint64_t pushed_ = 0;
    std::exception_ptr error_;
    bool closed_ = false;
    bool cancelled_ = false;
};

/**
 * Completion latch between a pooled stream job and the AnswerStream
 * handle that observes it. The job arms nothing up front; it calls
 * arrive() as its very last action, and the handle's destructor
 * wait()s so the pipeline never outlives the channel it pushes into.
 * This replaces joining a per-call std::thread: the worker thread is
 * persistent (core::WorkerPool) and is never joined per stream.
 */
class StreamTicket
{
  public:
    /** Job side: signal completion (exactly once, as the last step). */
    void arrive();

    /** Consumer side: block until arrive() was called. */
    void wait();

  private:
    std::mutex mu_;
    std::condition_variable done_cv_;
    bool done_ = false;
};

/**
 * Consumer handle for one streaming question (CacheMind::askStream).
 * The pipeline runs as a job on the engine's persistent worker pool;
 * next() pulls events in pipeline order (Parsed, Planned, evidence
 * chunks, answer deltas, Done). Destroying the handle mid-stream is
 * safe: the channel is cancelled so the job never blocks on the
 * departed consumer, and the job's completion ticket is awaited.
 */
class AnswerStream
{
  public:
    AnswerStream(std::shared_ptr<StreamChannel> channel,
                 std::shared_ptr<StreamTicket> ticket);
    AnswerStream(AnswerStream &&) noexcept;
    AnswerStream &operator=(AnswerStream &&) noexcept;
    ~AnswerStream();

    /**
     * Next event in pipeline order; nullopt once the stream is
     * exhausted (the Done event has been delivered). If the pipeline
     * failed (a throwing custom retriever, bad_alloc), the buffered
     * events drain first and the failure is rethrown here — the same
     * exception a blocking ask() of the question would have thrown.
     */
    std::optional<StreamEvent> next();

    /**
     * Drain to completion and return the final response —
     * byte-identical to a blocking ask() of the same question
     * (rethrowing its failure if the pipeline threw). Events already
     * consumed through next() are not replayed; calling wait() after
     * Done was delivered returns the stored response.
     */
    Response wait();

    /** True once the Done event has been seen (by next() or wait()). */
    bool done() const { return done_ != nullptr; }

    /**
     * Abandon the stream: cancel the channel (the pipeline's
     * cooperative cancellation token trips at its next emission
     * point, reclaiming in-flight retrieval work) and wait for the
     * pipeline job to retire. Subsequent next() calls return nullopt.
     * Destruction calls it implicitly.
     */
    void cancel();

  private:
    void finish();

    std::shared_ptr<StreamChannel> channel_;
    std::shared_ptr<StreamTicket> ticket_;
    std::shared_ptr<const Response> done_;
};

} // namespace cachemind::core

#endif // CACHEMIND_CORE_STREAM_HH
