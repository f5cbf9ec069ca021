/**
 * @file
 * Per-request tracing: span trees across the ask pipeline and the
 * serve layer.
 *
 * A TraceSpan is one timed region (steady-clock start/end nanoseconds,
 * a name, a parent span id, and key=value annotations). A RequestTrace
 * collects the spans of one request — parse, plan, each retrieval
 * section, generate, plus serve-side lease-wait and frame-write spans —
 * into a tree rooted at the request's outermost span. Finished traces
 * move into TraceStore, a bounded ring buffer of recent traces the
 * serve layer's `trace` verb and the CACHEMIND_TRACE_DIR exporter read
 * from.
 *
 * Cost discipline (same as base/failpoint.hh): tracing is *per
 * request*, selected by the caller. An untraced request carries a null
 * RequestTrace pointer inside its TraceContext, and every span helper
 * starts with that single pointer test — no locks, no allocation, no
 * clock reads. Sampling (ServeOptions::trace_sample_every) and export
 * (CACHEMIND_TRACE_DIR) are gated on one relaxed atomic load each.
 *
 * Determinism: span ids are allocated in begin order on the pipeline
 * thread, and retrievers emit evidence in plan order — so the *shape*
 * of a span tree (names, nesting, annotation keys/values) is the same
 * for a blocking and a streamed ask of one question; only the timings
 * differ. trace_export's toText(include_timing=false) renders exactly
 * that stable shape.
 */

#ifndef CACHEMIND_OBS_TRACE_HH
#define CACHEMIND_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cachemind::obs {

/** One key=value note attached to a span. */
struct Annotation {
    std::string key;
    std::string value;
};

/** One timed region of a request. Ids are 1-based; 0 means "no span". */
struct TraceSpan {
    std::uint32_t id = 0;
    /** Parent span id; 0 = a root-level span. */
    std::uint32_t parent = 0;
    std::string name;
    /** Steady-clock nanoseconds (see RequestTrace::nowNs). */
    std::uint64_t start_ns = 0;
    /** 0 while the span is still open. */
    std::uint64_t end_ns = 0;
    std::vector<Annotation> notes;
};

/**
 * All spans of one request, in begin order. Thread-safe: the serve
 * session thread and the pipeline worker append concurrently (a short
 * mutex per operation — acceptable because only *traced* requests pay
 * it). Span count is capped at kMaxSpans; further begins are counted
 * in dropped() and return span id 0, which every other operation
 * ignores.
 */
class RequestTrace
{
  public:
    static constexpr std::size_t kMaxSpans = 256;

    explicit RequestTrace(std::string request_id);

    const std::string &requestId() const { return request_id_; }

    /** Steady-clock nanoseconds, the time base of every span. */
    static std::uint64_t nowNs();

    /**
     * Open a span under `parent` (0 = root level) starting now.
     * Returns the new span's id, or 0 when the trace is full.
     */
    std::uint32_t beginSpan(std::uint32_t parent, std::string name);

    /** Close a span (no-op for id 0 or an already-closed span). */
    void endSpan(std::uint32_t id);

    /** Record a complete span in one shot (returns its id, 0 if full). */
    std::uint32_t addSpan(std::uint32_t parent, std::string name,
                          std::uint64_t start_ns, std::uint64_t end_ns);

    /** Attach a key=value note to a span (no-op for id 0). */
    void annotate(std::uint32_t id, std::string key, std::string value);

    /** Name of a span ("" for id 0 or an unknown id). */
    std::string spanName(std::uint32_t id) const;

    /**
     * Terminal outcome of the request: "done", "degraded",
     * "deadline_exceeded", "error", "overloaded", "cancelled".
     */
    void setOutcome(std::string outcome);
    std::string outcome() const;

    /** Snapshot of all spans, in begin order. */
    std::vector<TraceSpan> spans() const;

    /** Spans discarded because the trace hit kMaxSpans. */
    std::uint64_t dropped() const;

  private:
    mutable std::mutex mu_;
    std::string request_id_;
    std::string outcome_;
    std::vector<TraceSpan> spans_;
    std::uint64_t dropped_ = 0;
};

/**
 * The tracing handle threaded through the pipeline, the way Deadline
 * flows today: a shared RequestTrace (null = this request is not
 * traced) plus the span id new child spans should hang under. Copy it
 * freely; child() rebases the parent for a nested stage.
 */
struct TraceContext {
    std::shared_ptr<RequestTrace> trace;
    std::uint32_t parent = 0;

    explicit operator bool() const { return trace != nullptr; }

    /** Context whose new spans nest under `span`. */
    TraceContext child(std::uint32_t span) const { return {trace, span}; }

    /** Begin a span under this context's parent (0 when untraced). */
    std::uint32_t begin(std::string name) const
    {
        return trace ? trace->beginSpan(parent, std::move(name)) : 0;
    }

    void end(std::uint32_t id) const
    {
        if (trace)
            trace->endSpan(id);
    }

    void annotate(std::uint32_t id, std::string key, std::string value) const
    {
        if (trace)
            trace->annotate(id, std::move(key), std::move(value));
    }

    /** Annotate this context's parent span. */
    void note(std::string key, std::string value) const
    {
        annotate(parent, std::move(key), std::move(value));
    }
};

/**
 * RAII span: opens on construction (a no-op for an untraced context),
 * closes on destruction or an explicit end().
 */
class SpanScope
{
  public:
    SpanScope(const TraceContext &ctx, std::string name)
        : trace_(ctx.trace.get())
    {
        if (trace_)
            id_ = trace_->beginSpan(ctx.parent, std::move(name));
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    ~SpanScope() { end(); }

    /** This span's id (0 when untraced or the trace was full). */
    std::uint32_t id() const { return id_; }

    void annotate(std::string key, std::string value)
    {
        if (trace_ && id_)
            trace_->annotate(id_, std::move(key), std::move(value));
    }

    /** Close early (idempotent; the destructor becomes a no-op). */
    void end()
    {
        if (trace_ && id_)
            trace_->endSpan(id_);
        trace_ = nullptr;
    }

  private:
    RequestTrace *trace_ = nullptr;
    std::uint32_t id_ = 0;
};

/**
 * Bounded ring buffer of recently finished traces, plus the sampled
 * chrome://tracing exporter. One process-wide instance: the serve
 * layer records every finished traced request here, the `trace` verb
 * reads back by request id or by recent outcome, and when an export
 * directory is configured (CACHEMIND_TRACE_DIR at process start, or
 * setExportDir) each recorded trace is also written as a Chrome
 * trace-event JSON file. The exporter's disabled fast path is one
 * relaxed atomic load.
 */
class TraceStore
{
  public:
    static TraceStore &instance();

    /** Traces retained for the `trace` verb (default 64). */
    void setCapacity(std::size_t n);

    /** Record a finished trace (and export it when a dir is set). */
    void record(std::shared_ptr<const RequestTrace> trace);

    /** Most recent trace with this request id, if still buffered. */
    std::shared_ptr<const RequestTrace>
    byRequestId(const std::string &id) const;

    /**
     * Up to `n` most recent traces, newest first. A non-empty
     * `outcome_filter` keeps only matching outcomes; the special
     * filter "bad" matches degraded, deadline_exceeded, and error.
     */
    std::vector<std::shared_ptr<const RequestTrace>>
    recent(std::size_t n, const std::string &outcome_filter = "") const;

    /** Enable ("" disables) per-trace JSON export into `dir`. */
    void setExportDir(std::string dir);
    std::string exportDir() const;

    /** Total traces recorded since process start. */
    std::uint64_t recorded() const;

    /** Files successfully exported since process start. */
    std::uint64_t exported() const;

    /** Drop all buffered traces (tests). */
    void clear();

  private:
    TraceStore();

    mutable std::mutex mu_;
    std::size_t capacity_ = 64;
    std::deque<std::shared_ptr<const RequestTrace>> ring_;
    std::string export_dir_;
    std::atomic<bool> export_enabled_{false};
    std::uint64_t recorded_ = 0;
    std::uint64_t exported_ = 0;
};

} // namespace cachemind::obs

#endif // CACHEMIND_OBS_TRACE_HH
