/**
 * @file
 * The CacheMind serving front-end: a TCP line-protocol server over
 * the streaming engine.
 *
 * One accept-loop thread admits connections; each admitted connection
 * becomes a Session on its own thread, reading newline-delimited JSON
 * requests and writing one frame per engine StreamEvent (see
 * serve/protocol.hh). Admission control is connection-scoped: past
 * `max_sessions` in-flight sessions the server answers with a typed
 * "overloaded" frame and closes, so load shedding is explicit and
 * machine-readable instead of an accept backlog timeout.
 *
 * Engines are pooled and leased per request, keyed by (retriever,
 * backend, scenario params): an engine is built (and warmed) at most
 * once per distinct key and concurrency level, then parked and
 * reused. Every pooled engine shares ONE retrieval cache — cache keys
 * embed the retriever fingerprint, so differently configured engines
 * can never alias each other's bundles, while concurrent sessions
 * asking about the same trace slice assemble its evidence once.
 *
 * Each ask runs the engine pipeline on its session thread
 * (CacheMind::ask with an event sink). The sink buffers each event's
 * frame and writes the buffer at the engine's flush points: before
 * retrieval computes, after each evidence chunk and each paced answer
 * delta, and after done — so an answer from a resident bundle takes
 * two writes. Backpressure is the socket: a slow client blocks its
 * own session's write and nothing else. Nothing in that path holds a
 * lock or a cache in-flight claim (a run with a sink uses the cache's
 * non-blocking peek/publish protocol), so one paused client cannot
 * stall other sessions or blocking ask() callers coalescing on a hot
 * cache key. A dead client (failed write) refuses the next event and
 * trips the cancellation poll, which unwinds the pipeline and its
 * retrieval.
 */

#ifndef CACHEMIND_SERVE_SERVER_HH
#define CACHEMIND_SERVE_SERVER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "base/stats_util.hh"
#include "core/engine_stats.hh"
#include "db/database.hh"

namespace cachemind::serve {

/** Server configuration. */
struct ServeOptions
{
    /** Listen address (IPv4 dotted quad). */
    std::string host = "127.0.0.1";
    /** Listen port; 0 = ephemeral (read back via Server::port()). */
    std::uint16_t port = 0;
    /** Admission limit: in-flight sessions beyond this are rejected. */
    std::size_t max_sessions = 32;
    /** Engine defaults for requests that name no component. */
    std::string default_retriever = "sieve";
    std::string default_backend = "gpt-4o";
    /**
     * Engine-pool bound per (retriever, backend, params) key: at most
     * this many engines are ever built for one configuration; further
     * concurrent requests for the key wait for a lease instead of
     * paying another engine construction (LlamaIndex embeds its whole
     * index per engine). Waiting is queueing, not deadlock — leases
     * are request-scoped.
     */
    std::size_t max_engines_per_key = 4;
    /** build_threads for pooled engines (0 = hardware concurrency). */
    std::size_t engine_build_threads = 0;
    /** Streaming generation pace for pooled engines (0 = unpaced). */
    double tokens_per_second = 0.0;
    /** Capacity of the ONE retrieval cache shared by all engines. */
    std::size_t retrieval_cache_capacity = 1024;
    /**
     * Encoded-byte budget of the shared cache's compressed secondary
     * tier (0 = tier off). On by default: a serving question
     * distribution has a long tail, and keeping demoted bundles in
     * codec form turns most would-be recomputes into decode +
     * re-promote.
     */
    std::size_t retrieval_cache_secondary_bytes = 16u << 20;
    /**
     * SO_SNDBUF for accepted sockets (0 = kernel default): a session's
     * only buffer between its pipeline and a slow client. Tests shrink
     * it so a deliberately slow client exercises that backpressure.
     */
    int session_send_buffer = 0;
    /**
     * Maximum accepted request-line length in bytes. A client that
     * exceeds it — including one that streams bytes without ever
     * sending a newline — gets a bad-request error frame and a closed
     * connection instead of growing the session buffer without bound.
     */
    std::size_t max_request_bytes = 1 << 20;
    /**
     * How long an ask may queue for an engine lease before the server
     * answers with a typed "overloaded" frame instead (milliseconds;
     * 0 = wait forever). Bounds the worst case where every engine for
     * a hot key is leased out: the client gets a machine-readable
     * shed signal it can retry on, not an unbounded stall.
     */
    double lease_timeout_ms = 5000.0;
    /**
     * Deadline applied to ask requests that carry no "deadline_ms"
     * field (milliseconds; 0 = unbounded, the historical behavior).
     */
    double default_deadline_ms = 0.0;
    /**
     * Grace added on top of a request's deadline before the session
     * hard-cuts the stream with a "deadline_exceeded" frame. The
     * engine itself degrades at the deadline proper (partial evidence,
     * answer marked degraded); the slack gives that in-engine
     * resolution time to produce a terminal done frame, so the hard
     * cut only fires when the pipeline is truly wedged; it is checked
     * at the pipeline's next event or poll between evidence sections.
     */
    double deadline_slack_ms = 250.0;
    /**
     * Honour the "failpoints" protocol verb (fault injection for
     * chaos tests). Off by default: production servers answer the
     * verb with a "forbidden" error frame.
     */
    bool debug_failpoints = false;
    /**
     * Trace every Nth ask request even when the client sent no
     * request_id (0 = trace only asks that carry one). Sampled traces
     * land in the process TraceStore — readable through the `trace`
     * verb and exported when CACHEMIND_TRACE_DIR is set. Untraced
     * requests pay one relaxed atomic increment and nothing else.
     */
    std::size_t trace_sample_every = 0;
};

/**
 * Per-retriever session latency over completed asks (the number of
 * asks is ttfe_ms.count()).
 */
struct RetrieverServeStats
{
    /** Time-to-first-event: request read -> first frame written. */
    stats::Histogram ttfe_ms;
    /** Time-to-last-byte: request read -> done frame written. */
    stats::Histogram ttlb_ms;
};

/** Point-in-time serving statistics (STATS protocol verb). */
struct ServeStats
{
    /** Connections admitted / rejected by admission control. */
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    /** Ask requests answered to the terminal done frame. */
    std::uint64_t completed = 0;
    /** Ask requests cut short by a dead/disconnected client. */
    std::uint64_t cancelled = 0;
    /** Malformed request lines answered with an error frame. */
    std::uint64_t malformed = 0;
    /** Asks hard-cut with a deadline_exceeded frame (slack spent). */
    std::uint64_t deadline_exceeded = 0;
    /** Asks shed with an overloaded frame after a lease-wait timeout. */
    std::uint64_t lease_timeouts = 0;
    /** Faults injected process-wide by armed failpoints (snapshot). */
    std::uint64_t faults_injected = 0;
    /**
     * Socket writes: one per flushed batch of an ask's frames (two
     * for an answer from a resident bundle) and one per single-frame
     * reply (hello, pong, stats, error, ...), however many send()
     * calls each takes.
     */
    std::uint64_t writes = 0;
    /** Per-retriever TTFE/TTLB histograms. */
    std::map<std::string, RetrieverServeStats> by_retriever;
    /**
     * Engine-side stats folded across every pooled engine with
     * EngineStats::operator+=: counters are exact sums and latency
     * histograms merge, so a percentile is one over every pooled
     * engine's samples, to within one bucket. Index and cache-tier
     * totals come once from the shared shard set and cache.
     */
    core::EngineStats engine;
};

/**
 * The server. start() binds and spawns the accept loop; stop() (and
 * the destructor) shuts down every session and joins all threads.
 * The database must outlive the server.
 */
class Server
{
  public:
    Server(const db::TraceDatabase &db, ServeOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and spawn the accept loop. False on failure with
     * `error` (when non-null) describing the reason.
     */
    bool start(std::string *error = nullptr);

    /** Stop accepting, shut down sessions, join threads (idempotent). */
    void stop();

    /** The bound port (resolves an ephemeral port request). */
    std::uint16_t port() const;

    /** Serving statistics snapshot (thread-safe; the STATS verb). */
    ServeStats stats() const;

    const ServeOptions &options() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Render a ServeStats snapshot as the protocol's stats frame. */
std::string statsFrame(const std::string &id, const ServeStats &stats);

} // namespace cachemind::serve

#endif // CACHEMIND_SERVE_SERVER_HH
