#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <list>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "base/deadline.hh"
#include "base/failpoint.hh"
#include "base/stats_util.hh"
#include "base/stopwatch.hh"
#include "base/str.hh"
#include "core/cachemind.hh"
#include "obs/trace.hh"
#include "obs/trace_export.hh"
#include "retrieval/cache.hh"
#include "serve/protocol.hh"

namespace cachemind::serve {

namespace {

/**
 * Write `bytes`, one or more newline-terminated frames, with one send
 * loop and count the write in `writes`; false = dead client.
 */
bool
sendAll(int fd, const std::string &bytes,
        std::atomic<std::uint64_t> &writes)
{
    // Chaos site: "drop" simulates the client dying mid-write, the
    // exact path a real torn connection exercises.
    if (fail::maybeDrop("serve.write"))
        return false;
    writes.fetch_add(1, std::memory_order_relaxed);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const auto n = ::send(fd, bytes.data() + sent,
                              bytes.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue; // interrupted by a signal: not a dead client
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Buffered line read; nullopt once the peer closed. A buffer growing
 * past `max_bytes` with no newline in sight sets *overflow and gives
 * up: without the cap a client that streams bytes but never a newline
 * would grow the session buffer without bound.
 */
std::optional<std::string>
recvLine(int fd, std::string &buffer, std::size_t max_bytes,
         bool *overflow)
{
    *overflow = false;
    for (;;) {
        const auto nl = buffer.find('\n');
        if (nl != std::string::npos) {
            std::string line = buffer.substr(0, nl);
            buffer.erase(0, nl + 1);
            return line;
        }
        if (buffer.size() > max_bytes) {
            *overflow = true;
            return std::nullopt;
        }
        // Chaos site: "drop" simulates the peer closing mid-request.
        if (fail::maybeDrop("serve.read"))
            return std::nullopt;
        char chunk[4096];
        const auto n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue; // interrupted by a signal: not a closed peer
        if (n <= 0)
            return std::nullopt;
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
}

/**
 * The event sink of one served ask. The pipeline runs on the session
 * thread; push() appends each event's frame to the ask's buffer and
 * flush() writes the buffer with one send loop at the engine's flush
 * points (before retrieval computes, after each evidence chunk and
 * each paced delta, after Done), so a hot hit goes out in two writes
 * and no frame waits across computed work or a paced sleep. The
 * socket is the only backpressure: a slow reader blocks its own
 * session and nothing else. Once a write has failed (the client is
 * gone) or the hard cut (deadline + slack) has passed, a push is
 * refused; retrievers also poll cancelled() between evidence
 * sections.
 */
struct FrameSink final : core::EventSink
{
    FrameSink(int fd, const Request &req, const Deadline &hard_cut,
              const obs::TraceContext &tc, const Stopwatch &timer,
              std::atomic<std::uint64_t> &writes)
        : fd(fd), req(req), hard_cut(hard_cut), tc(tc), timer(timer),
          writes(writes)
    {
    }

    bool
    push(core::StreamEvent event) override
    {
        if (cancelled())
            return false;
        if (!last_kind && tc.trace) {
            // TTFE attribution: the stage whose span the first event,
            // the first frame written, was emitted under.
            std::string stage = tc.trace->spanName(event.span);
            if (stage.empty())
                stage = core::streamEventKindName(event.kind);
            tc.trace->annotate(tc.parent, "ttfe_stage", stage);
        }
        buffer += eventFrame(req.id, event, req.request_id);
        buffer += '\n';
        last_kind = event.kind;
        degraded = event.response && event.response->bundle.degraded;
        return true;
    }

    void
    flush() override
    {
        if (buffer.empty())
            return;
        {
            obs::SpanScope write(tc, "write");
            dead = !sendAll(fd, buffer, writes);
        }
        buffer.clear();
        if (!dead && ttfe_ms < 0.0)
            ttfe_ms = timer.milliseconds();
    }

    bool cancelled() const override { return dead || hard_cut.expired(); }

    const int fd;
    const Request &req;
    const Deadline hard_cut;
    const obs::TraceContext tc;
    const Stopwatch &timer;
    std::atomic<std::uint64_t> &writes;
    /** Frames pushed since the last flush, newline-terminated. */
    std::string buffer;
    /** A write failed: the client is gone. */
    bool dead = false;
    /** Set from the Done event, the last one pushed. */
    bool degraded = false;
    /** Stamped when the first write returns. */
    double ttfe_ms = -1.0;
    /** Which stage the request was last seen in. */
    std::optional<core::StreamEvent::Kind> last_kind;
};

} // namespace

struct Server::Impl
{
    const db::TraceDatabase &db;
    const ServeOptions opts;

    // ------------------------------------------------------ lifecycle
    // Atomic: stop() closes and clears the fd while the accept loop
    // re-reads it every iteration.
    std::atomic<int> listen_fd{-1};
    std::uint16_t bound_port = 0;
    std::thread accept_thread;
    std::atomic<bool> stopping{false};
    bool started = false;

    // ------------------------------------------------------- sessions
    struct SessionSlot
    {
        std::thread thread;
        std::atomic<int> fd{-1};
        std::atomic<bool> finished{false};
    };
    std::mutex sessions_mu;
    std::list<std::unique_ptr<SessionSlot>> sessions;
    std::atomic<std::size_t> active_sessions{0};

    // ---------------------------------------------------- engine pool
    //
    // Engines keyed by (retriever, backend, params); idle engines are
    // parked per key and leased per request. `all` keeps ownership so
    // stats() can fold every engine, leased or parked. The ONE
    // retrieval cache is shared across every engine (keys embed the
    // retriever fingerprint, so no aliasing across configurations).
    std::shared_ptr<retrieval::RetrievalCache> shared_cache;
    mutable std::mutex pool_mu;
    struct PoolEntry
    {
        /** Engines parked between leases. */
        std::vector<core::CacheMind *> idle;
        /** Engines ever built for this key (bounds construction). */
        std::size_t total = 0;
        /**
         * Per-key lease queue. Each key signals its own condvar so a
         * release can never be consumed by a waiter on a different
         * key (a shared condvar with notify_one loses such wakeups:
         * the woken waiter re-checks its own key's predicate, sleeps
         * again, and the release that triggered the signal is never
         * seen by the waiter it was meant for). std::map never moves
         * its nodes, so the condvar stays valid while pool_mu is
         * dropped for engine construction.
         */
        std::condition_variable lease_ready;
    };
    std::map<std::string, PoolEntry> engine_pool;
    std::vector<std::unique_ptr<core::CacheMind>> all_engines;

    /** Ask sequence number, the trace_sample_every sampling clock. */
    std::atomic<std::uint64_t> ask_seq{0};

    // ---------------------------------------------------------- stats
    mutable std::mutex stats_mu;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t malformed = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t lease_timeouts = 0;
    std::map<std::string, RetrieverServeStats> by_retriever;
    /** Socket writes (ServeStats::writes); counted by sendAll. */
    std::atomic<std::uint64_t> writes{0};

    Impl(const db::TraceDatabase &database, ServeOptions options)
        : db(database), opts(std::move(options)),
          shared_cache(
              opts.retrieval_cache_capacity
                  ? std::make_shared<retrieval::RetrievalCache>(
                        retrieval::RetrievalCache::Options{
                            opts.retrieval_cache_capacity,
                            opts.retrieval_cache_secondary_bytes})
                  : nullptr)
    {
    }

    bool start(std::string *error);
    void stop();
    void acceptLoop();
    void runSession(SessionSlot *slot);
    bool handleAsk(int fd, const Request &req);

    /** Write one frame plus the protocol newline; false = dead client. */
    bool
    reply(int fd, std::string frame)
    {
        frame += '\n';
        return sendAll(fd, frame, writes);
    }

    core::CacheMind *acquireEngine(const Request &req,
                                   std::string &key_out,
                                   std::string &code_out,
                                   std::string &error_out,
                                   bool *lease_timed_out);
    void releaseEngine(const std::string &key, core::CacheMind *engine);

    void
    recordAsk(const std::string &retriever, double ttfe_ms,
              double ttlb_ms)
    {
        std::lock_guard<std::mutex> lock(stats_mu);
        ++completed;
        RetrieverServeStats &r = by_retriever[retriever];
        r.ttfe_ms.record(ttfe_ms);
        r.ttlb_ms.record(ttlb_ms);
    }

    ServeStats snapshot() const;
};

bool
Server::Impl::start(std::string *error)
{
    const auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        if (listen_fd >= 0) {
            ::close(listen_fd);
            listen_fd = -1;
        }
        return false;
    };
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0)
        return fail("socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts.port);
    if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1)
        return fail("bad listen address '" + opts.host + "'");
    if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind() failed on " + opts.host + ":" +
                    std::to_string(opts.port));
    if (::listen(listen_fd, 64) != 0)
        return fail("listen() failed");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr *>(&bound),
                      &len) != 0)
        return fail("getsockname() failed");
    bound_port = ntohs(bound.sin_port);
    accept_thread = std::thread([this] { acceptLoop(); });
    started = true;
    return true;
}

void
Server::Impl::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (stopping.load())
                return;
            // accept() failures such as EMFILE/ENFILE can persist for
            // a while; retrying instantly would turn this thread into
            // a 100%-CPU busy spin exactly when the host is starved.
            if (errno != EINTR) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
            continue;
        }
        if (stopping.load()) {
            ::close(fd);
            return;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (opts.session_send_buffer > 0) {
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF,
                         &opts.session_send_buffer,
                         sizeof(opts.session_send_buffer));
        }

        // Admission control at the door: load shedding is an explicit
        // protocol frame, not a hung connection. The counter is
        // incremented before the session thread exists so a burst of
        // accepts cannot overshoot the limit.
        std::size_t current = active_sessions.load();
        bool admitted = false;
        while (current < opts.max_sessions) {
            if (active_sessions.compare_exchange_weak(current,
                                                      current + 1)) {
                admitted = true;
                break;
            }
        }
        if (!admitted) {
            sendAll(fd,
                    helloFrame() + '\n' +
                        overloadedFrame("", opts.max_sessions) + '\n',
                    writes);
            ::close(fd);
            std::lock_guard<std::mutex> lock(stats_mu);
            ++rejected;
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(stats_mu);
            ++accepted;
        }

        auto slot = std::make_unique<SessionSlot>();
        slot->fd.store(fd);
        SessionSlot *raw = slot.get();
        {
            std::lock_guard<std::mutex> lock(sessions_mu);
            // Reap sessions that already finished so a long-lived
            // server's slot list tracks live connections, not history.
            for (auto it = sessions.begin(); it != sessions.end();) {
                if ((*it)->finished.load()) {
                    (*it)->thread.join();
                    it = sessions.erase(it);
                } else {
                    ++it;
                }
            }
            sessions.push_back(std::move(slot));
        }
        raw->thread = std::thread([this, raw] { runSession(raw); });
    }
}

void
Server::Impl::runSession(SessionSlot *slot)
{
    const int fd = slot->fd.load();
    std::string buffer;
    if (reply(fd, helloFrame())) {
        while (!stopping.load()) {
            bool overflow = false;
            const auto line = recvLine(fd, buffer,
                                       opts.max_request_bytes,
                                       &overflow);
            if (!line) {
                if (overflow) {
                    {
                        std::lock_guard<std::mutex> lock(stats_mu);
                        ++malformed;
                    }
                    reply(fd, errorFrame("", "bad-request",
                                         "request line exceeds " +
                                             std::to_string(
                                                 opts.max_request_bytes) +
                                             " bytes"));
                }
                break; // client closed (or oversized line)
            }
            if (str::trim(*line).empty())
                continue;
            std::string why;
            const auto req = parseRequest(*line, &why);
            if (!req) {
                {
                    std::lock_guard<std::mutex> lock(stats_mu);
                    ++malformed;
                }
                if (!reply(fd, errorFrame("", "bad-request", why)))
                    break;
                continue;
            }
            if (req->op == Request::Op::Ping) {
                if (!reply(fd, pongFrame(req->id)))
                    break;
                continue;
            }
            if (req->op == Request::Op::Stats) {
                if (!reply(fd, statsFrame(req->id, snapshot())))
                    break;
                continue;
            }
            if (req->op == Request::Op::Trace) {
                // Span trees from the process TraceStore: by request
                // id, or the newest `last` matching the outcome
                // filter. Rendered as the compact text tree — the
                // flat protocol embeds it as one escaped string.
                const auto &store = obs::TraceStore::instance();
                std::string text;
                std::size_t found = 0;
                if (!req->request_id.empty()) {
                    if (const auto t =
                            store.byRequestId(req->request_id)) {
                        text = obs::toText(*t);
                        found = 1;
                    }
                } else {
                    const std::size_t last =
                        req->trace_last ? req->trace_last : 4;
                    for (const auto &t :
                         store.recent(last, req->trace_filter)) {
                        if (!text.empty())
                            text += '\n';
                        text += obs::toText(*t);
                        ++found;
                    }
                }
                if (!reply(fd, traceFrame(req->id, found, text)))
                    break;
                continue;
            }
            if (req->op == Request::Op::Failpoints) {
                if (!opts.debug_failpoints) {
                    if (!reply(fd, errorFrame(req->id, "forbidden",
                                              "failpoints are disabled "
                                              "on this server")))
                        break;
                    continue;
                }
                std::string spec_error;
                if (!fail::armSpec(req->failpoint_spec, &spec_error)) {
                    if (!reply(fd, errorFrame(req->id, "bad-request",
                                              spec_error)))
                        break;
                    continue;
                }
                if (!reply(fd, failpointsFrame(req->id,
                                               fail::armedCount())))
                    break;
                continue;
            }
            if (!handleAsk(fd, *req))
                break;
        }
    }
    // Claim the fd before closing: stop() races this with an
    // exchange of its own, and whichever side wins the exchange owns
    // the descriptor. Without the claim, stop() could load the fd,
    // this thread could close it, and the kernel could recycle the
    // number for an unrelated descriptor before stop()'s shutdown().
    const int owned = slot->fd.exchange(-1);
    if (owned >= 0)
        ::close(owned);
    active_sessions.fetch_sub(1);
    slot->finished.store(true);
}

core::CacheMind *
Server::Impl::acquireEngine(const Request &req, std::string &key_out,
                            std::string &code_out, std::string &error_out,
                            bool *lease_timed_out)
{
    *lease_timed_out = false;
    code_out = "bad-engine";
    core::EngineOptions eopts;
    eopts.retriever = req.retriever.empty() ? opts.default_retriever
                                            : req.retriever;
    eopts.backend =
        req.backend.empty() ? opts.default_backend : req.backend;
    eopts.retriever_params = req.params;
    eopts.build_threads = opts.engine_build_threads;
    eopts.tokens_per_second = opts.tokens_per_second;
    eopts.shared_retrieval_cache = shared_cache;
    if (!shared_cache)
        eopts.retrieval_cache_capacity = 0;

    key_out = eopts.retriever + '|' + eopts.backend;
    for (const auto &[k, v] : req.params)
        key_out += '|' + k + '=' + v;

    const std::size_t cap =
        std::max<std::size_t>(opts.max_engines_per_key, 1);
    // Chaos site: stretch the lease path (outside the pool lock, so
    // the injected delay stalls only this request's acquisition).
    fail::maybeDelay("serve.lease");
    const bool bounded_wait = opts.lease_timeout_ms > 0.0;
    const auto lease_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                bounded_wait ? opts.lease_timeout_ms : 0.0));
    {
        std::unique_lock<std::mutex> lock(pool_mu);
        PoolEntry &entry = engine_pool[key_out];
        while (entry.idle.empty() && entry.total >= cap &&
               !stopping.load()) {
            // Every engine for this key is leased out and the key is
            // at its construction cap: queue for the next release
            // instead of building engine number cap+1 — but only for
            // lease_timeout_ms; past that the request is shed with a
            // typed overloaded frame rather than queueing unboundedly.
            if (!bounded_wait) {
                entry.lease_ready.wait(lock);
                continue;
            }
            if (entry.lease_ready.wait_until(lock, lease_deadline) ==
                    std::cv_status::timeout &&
                entry.idle.empty() && entry.total >= cap &&
                !stopping.load()) {
                *lease_timed_out = true;
                error_out = "no engine lease within " +
                            std::to_string(opts.lease_timeout_ms) +
                            " ms";
                return nullptr;
            }
        }
        if (!entry.idle.empty()) {
            core::CacheMind *engine = entry.idle.back();
            entry.idle.pop_back();
            return engine;
        }
        if (stopping.load()) {
            error_out = "server shutting down";
            return nullptr;
        }
        ++entry.total; // claim a build slot before unlocking
    }
    // Build (and warm) outside the pool lock: engine construction can
    // be heavy (LlamaIndex embeds its index) and must not serialize
    // unrelated sessions. Warming here keeps the one-time cold index
    // build off every session's time-to-first-event. A build that
    // throws (say, bad_alloc on an index sized by request params) fails
    // this request only: it must never escape the session thread.
    std::unique_ptr<core::CacheMind> owned;
    try {
        auto built = core::CacheMind::create(db, std::move(eopts));
        if (built.ok()) {
            owned = std::make_unique<core::CacheMind>(
                std::move(built).value());
            owned->warmup();
        } else {
            code_out = core::engineErrorCodeName(built.error().code);
            error_out = built.error().message;
        }
    } catch (const std::exception &e) {
        owned.reset();
        error_out = std::string("engine build failed: ") + e.what();
    } catch (...) {
        owned.reset();
        error_out = "engine build failed";
    }
    if (!owned) {
        std::lock_guard<std::mutex> lock(pool_mu);
        PoolEntry &entry = engine_pool[key_out];
        --entry.total; // release the claimed slot
        entry.lease_ready.notify_one();
        return nullptr;
    }
    core::CacheMind *engine = owned.get();
    {
        std::lock_guard<std::mutex> lock(pool_mu);
        all_engines.push_back(std::move(owned));
    }
    return engine;
}

void
Server::Impl::releaseEngine(const std::string &key,
                            core::CacheMind *engine)
{
    std::lock_guard<std::mutex> lock(pool_mu);
    PoolEntry &entry = engine_pool[key];
    entry.idle.push_back(engine);
    entry.lease_ready.notify_one();
}

bool
Server::Impl::handleAsk(int fd, const Request &req)
{
    // Returns false when the connection must be closed: a failed
    // frame write means the client is gone (or a chaos drop is
    // simulating exactly that), and serving further requests on the
    // socket would leave a live client waiting on a reply that was
    // never written.
    Stopwatch timer;

    // Per-request tracing: on when the client sent a request_id
    // (protocol v1.1) or the sampling clock fires. An untraced ask
    // pays this one relaxed increment and a null-pointer test per
    // span helper, nothing else.
    const std::uint64_t seq =
        ask_seq.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<obs::RequestTrace> trace;
    if (!req.request_id.empty() ||
        (opts.trace_sample_every > 0 &&
         seq % opts.trace_sample_every == 0)) {
        trace = std::make_shared<obs::RequestTrace>(
            req.request_id.empty() ? "sampled-" + std::to_string(seq)
                                   : req.request_id);
    }
    const std::uint32_t root =
        trace ? trace->beginSpan(0, "serve.ask") : 0;
    // The session is the trace's creator, so it records the finished
    // trace into the process TraceStore — exactly once, at whichever
    // terminal decision the request reaches. The serve-side outcome is
    // authoritative: the engine only fills it when unset.
    const auto finish = [&](const std::string &outcome) {
        if (!trace)
            return;
        trace->setOutcome(outcome);
        trace->endSpan(root);
        obs::TraceStore::instance().record(trace);
    };

    std::string key, code, why;
    bool lease_timed_out = false;
    core::CacheMind *engine = nullptr;
    {
        // Lease-wait span: how long this ask queued for a pooled
        // engine — the serve-side latency the engine never sees.
        obs::SpanScope lease(obs::TraceContext{trace, root}, "lease");
        engine = acquireEngine(req, key, code, why, &lease_timed_out);
        lease.annotate("engine_key", key);
        if (lease_timed_out)
            lease.annotate("timed_out", "true");
    }
    if (!engine) {
        if (lease_timed_out) {
            finish("overloaded");
            const bool alive =
                reply(fd, overloadedFrame(req.id,
                                          std::max<std::size_t>(
                                              opts.max_engines_per_key, 1),
                                          req.request_id));
            std::lock_guard<std::mutex> lock(stats_mu);
            ++lease_timeouts;
            return alive;
        }
        finish("error");
        return reply(fd, errorFrame(req.id, code, why, req.request_id));
    }
    const std::string retriever_name = engine->retriever().name();
    if (trace)
        trace->annotate(root, "retriever", retriever_name);

    // Per-request deadline (server default when the request names
    // none). The engine degrades at the deadline proper; the session
    // enforces deadline + slack as the hard cut (see deadline_slack_ms).
    const double deadline_ms = req.deadline_ms > 0.0
                                   ? req.deadline_ms
                                   : opts.default_deadline_ms;
    const Deadline hard_cut =
        deadline_ms > 0.0
            ? Deadline::afterMs(deadline_ms + opts.deadline_slack_ms)
            : Deadline();

    core::RequestContext ctx(req.question);
    ctx.deadline_ms = deadline_ms;
    ctx.request_id = req.request_id;
    ctx.trace = trace;
    ctx.trace_parent = root;
    FrameSink sink(fd, req, hard_cut, obs::TraceContext{trace, root},
                   timer, writes);
    // Any pipeline failure becomes a typed error frame, never a torn
    // connection.
    bool cut = false;
    std::string failure_code, failure;
    try {
        auto result = engine->ask(ctx, sink);
        if (!result.ok()) {
            failure_code = core::engineErrorCodeName(result.error().code);
            failure = result.error().message;
        }
    } catch (const retrieval::StreamCancelled &) {
        cut = true;
    } catch (const std::exception &e) {
        failure_code = "pipeline";
        failure = e.what();
    } catch (...) {
        failure_code = "pipeline";
        failure = "unknown pipeline failure";
    }
    releaseEngine(key, engine);

    // What the pipeline pushed before it stopped goes out ahead of any
    // terminal frame.
    sink.flush();
    if (sink.dead) {
        // Dead client: a failed write refused the pipeline's next push
        // or poll, reclaiming the in-flight retrieval, or was the
        // ask's last write. Close the connection.
        finish("cancelled");
        std::lock_guard<std::mutex> lock(stats_mu);
        ++cancelled;
        return false;
    }
    if (!failure_code.empty()) {
        finish("error");
        return reply(fd, errorFrame(req.id, failure_code, failure,
                                    req.request_id));
    }
    if (cut) {
        // The pipeline blew through deadline + slack without reaching
        // its terminal event: tell the client with a typed terminal
        // frame instead of leaving it to time out on its own.
        if (trace) {
            // The stage the cut landed in, inferred from the last
            // event that made it out of the pipeline.
            using Kind = core::StreamEvent::Kind;
            const char *stage = "parse";
            if (sink.last_kind) {
                switch (*sink.last_kind) {
                  case Kind::Parsed: stage = "plan"; break;
                  case Kind::Planned:
                  case Kind::EvidenceChunk: stage = "retrieve"; break;
                  case Kind::AnswerDelta: stage = "generate"; break;
                  case Kind::Done: stage = "done"; break;
                }
            }
            trace->annotate(root, "deadline_exceeded_in", stage);
        }
        finish("deadline_exceeded");
        const bool alive =
            reply(fd, deadlineExceededFrame(req.id, deadline_ms,
                                            req.request_id));
        std::lock_guard<std::mutex> lock(stats_mu);
        ++deadline_exceeded;
        return alive;
    }
    finish(sink.degraded ? "degraded" : "done");
    recordAsk(retriever_name, std::max(sink.ttfe_ms, 0.0),
              timer.milliseconds());
    return true;
}

ServeStats
Server::Impl::snapshot() const
{
    ServeStats s;
    {
        std::lock_guard<std::mutex> lock(stats_mu);
        s.accepted = accepted;
        s.rejected = rejected;
        s.completed = completed;
        s.cancelled = cancelled;
        s.malformed = malformed;
        s.deadline_exceeded = deadline_exceeded;
        s.lease_timeouts = lease_timeouts;
        s.by_retriever = by_retriever;
    }
    s.writes = writes.load(std::memory_order_relaxed);
    std::vector<core::CacheMind *> engines;
    {
        std::lock_guard<std::mutex> lock(pool_mu);
        engines.reserve(all_engines.size());
        for (const auto &e : all_engines)
            engines.push_back(e.get());
    }
    for (core::CacheMind *engine : engines) {
        const core::EngineStats es = engine->stats();
        s.engine += es;
        // Index totals come from the shared shard set: every engine
        // reports the same postings indexes, so take (don't sum —
        // summing would multiply them by the pool size).
        s.engine.index = es.index;
    }
    // Tier stats come straight from the ONE shared cache — every
    // engine reports the same numbers, so summing per engine would
    // multiply them by the pool size.
    if (shared_cache)
        s.engine.cache_tiers = shared_cache->tiered();
    // Process-wide by design: the failpoint registry is global, so a
    // multi-server process reports the same number everywhere.
    s.faults_injected = fail::injectedTotal();
    return s;
}

void
Server::Impl::stop()
{
    if (!started)
        return;
    stopping.store(true);
    // Wake sessions queued for an engine lease (taking pool_mu orders
    // the stopping store before their predicate re-check).
    {
        std::lock_guard<std::mutex> lock(pool_mu);
        for (auto &[key, entry] : engine_pool)
            entry.lease_ready.notify_all();
    }
    // Closing the listen socket unblocks accept(); no session can be
    // added after the accept thread is joined.
    const int lfd = listen_fd.exchange(-1);
    if (lfd >= 0) {
        ::shutdown(lfd, SHUT_RDWR);
        ::close(lfd);
    }
    if (accept_thread.joinable())
        accept_thread.join();
    // Take ownership of every session fd that its session has not
    // already closed (the exchange is the ownership handoff — see
    // runSession), shut them all down so blocked recv()/send() calls
    // return in parallel, then join and finally close. Closing only
    // after the join guarantees the descriptor number cannot be
    // recycled while the session thread could still pass it to a
    // syscall.
    std::vector<int> claimed;
    {
        std::lock_guard<std::mutex> lock(sessions_mu);
        for (auto &slot : sessions) {
            const int fd = slot->fd.exchange(-1);
            if (fd >= 0) {
                ::shutdown(fd, SHUT_RDWR);
                claimed.push_back(fd);
            }
        }
    }
    for (;;) {
        std::unique_ptr<SessionSlot> slot;
        {
            std::lock_guard<std::mutex> lock(sessions_mu);
            if (sessions.empty())
                break;
            slot = std::move(sessions.front());
            sessions.pop_front();
        }
        slot->thread.join();
    }
    for (const int fd : claimed)
        ::close(fd);
    started = false;
}

Server::Server(const db::TraceDatabase &db, ServeOptions opts)
    : impl_(std::make_unique<Impl>(db, std::move(opts)))
{
}

Server::~Server() { stop(); }

bool
Server::start(std::string *error)
{
    return impl_->start(error);
}

void
Server::stop()
{
    if (impl_)
        impl_->stop();
}

std::uint16_t
Server::port() const
{
    return impl_->bound_port;
}

ServeStats
Server::stats() const
{
    return impl_->snapshot();
}

const ServeOptions &
Server::options() const
{
    return impl_->opts;
}

namespace {

std::string
numberField(const std::string &key, double value)
{
    return ",\"" + key + "\":" + str::fixed(value, 3);
}

std::string
countField(const char *key, std::uint64_t value)
{
    return std::string(",\"") + key + "\":" + std::to_string(value);
}

} // namespace

std::string
statsFrame(const std::string &id, const ServeStats &stats)
{
    std::string frame = "{\"frame\":\"stats\",\"id\":\"" +
                        jsonEscape(id) + "\"";
    frame += countField("accepted", stats.accepted);
    frame += countField("rejected", stats.rejected);
    frame += countField("completed", stats.completed);
    frame += countField("cancelled", stats.cancelled);
    frame += countField("malformed", stats.malformed);
    frame += countField("deadline_exceeded", stats.deadline_exceeded);
    frame += countField("lease_timeouts", stats.lease_timeouts);
    frame += countField("faults_injected", stats.faults_injected);
    frame += countField("writes", stats.writes);
    frame += countField("degraded_answers",
                        stats.engine.degraded_answers);
    frame += countField("questions", stats.engine.questions);
    frame += countField("streams", stats.engine.stream.streams);
    frame += countField("stream_cancelled",
                        stats.engine.stream.cancelled);
    frame += countField("warmups", stats.engine.stream.warmups);
    frame += numberField("warmup_ms_total",
                         stats.engine.stream.warmup_ms_total);
    frame += countField("cache_hits", stats.engine.cache.hits);
    frame += countField("cache_misses", stats.engine.cache.misses);
    const auto &tiers = stats.engine.cache_tiers;
    frame += countField("hot_hits", tiers.hot.hits);
    frame += countField("hot_misses", tiers.hot.misses);
    frame += countField("hot_entries", tiers.hot.entries);
    frame += countField("hot_capacity", tiers.hot.capacity);
    frame += countField("secondary_hits", tiers.secondary.hits);
    frame += countField("secondary_misses", tiers.secondary.misses);
    frame += countField("secondary_entries", tiers.secondary.entries);
    frame += countField("secondary_bytes", tiers.secondary.bytes);
    frame += countField("secondary_decode_failures",
                        tiers.secondary.decode_failures);
    frame += countField("promotions", tiers.promotions);
    frame += countField("demotions", tiers.demotions);
    frame += numberField("compression_ratio",
                         tiers.secondary.compressionRatio());
    // Postings index: build amortisation, scan work avoided, which
    // intersection kernels the adaptive selector picked, and the
    // chunked-container mix (see db/postings_ops.hh).
    const auto &index = stats.engine.index;
    frame += countField("index_shards", index.shards_indexed);
    frame += countField("index_lookups", index.lookups);
    frame += countField("index_rows_skipped", index.rows_skipped);
    frame += countField("kernel_galloping", index.kernel_galloping);
    frame += countField("kernel_merge_simd", index.kernel_merge_simd);
    frame += countField("kernel_merge_scalar",
                        index.kernel_merge_scalar);
    frame += countField("kernel_bitmap", index.kernel_bitmap);
    frame += countField("kernel_bitmap_probe",
                        index.kernel_bitmap_probe);
    frame += countField("index_simd_ops", index.simd_ops);
    frame += countField("index_scalar_ops", index.scalar_ops);
    frame += countField("array_chunks", index.array_chunks);
    frame += countField("bitmap_chunks", index.bitmap_chunks);
    frame += countField("postings_bytes", index.postings_bytes);
    const auto &first_event = stats.engine.stream.first_event_ms;
    frame += numberField("first_event_p50_ms",
                         first_event.percentile(50.0));
    frame += numberField("first_event_p90_ms",
                         first_event.percentile(90.0));
    // Traced-request aggregates: per-stage percentiles and the
    // slowest-stage histogram (see EngineStats.trace).
    const auto &trace = stats.engine.trace;
    frame += countField("traced", trace.traced);
    frame += countField("slowest_parse", trace.slowest_parse);
    frame += countField("slowest_plan", trace.slowest_plan);
    frame += countField("slowest_retrieve", trace.slowest_retrieve);
    frame += countField("slowest_generate", trace.slowest_generate);
    const std::pair<const char *, const stats::Histogram *> stages[] = {
        {"parse", &trace.parse_ms},
        {"plan", &trace.plan_ms},
        {"retrieve", &trace.retrieve_ms},
        {"generate", &trace.generate_ms}};
    for (const auto &[stage, ms] : stages) {
        const std::string key = std::string("trace_") + stage;
        frame += numberField(key + "_p50_ms", ms->percentile(50.0));
        frame += numberField(key + "_p90_ms", ms->percentile(90.0));
    }
    for (const auto &[name, r] : stats.by_retriever) {
        frame += ",\"" + jsonEscape(name) + "\":{\"asks\":" +
                 std::to_string(r.ttfe_ms.count());
        frame += numberField("ttfe_p50_ms", r.ttfe_ms.percentile(50.0));
        frame += numberField("ttfe_p90_ms", r.ttfe_ms.percentile(90.0));
        frame += numberField("ttlb_p50_ms", r.ttlb_ms.percentile(50.0));
        frame += numberField("ttlb_p90_ms", r.ttlb_ms.percentile(90.0));
        frame += "}";
    }
    frame += "}";
    return frame;
}

} // namespace cachemind::serve
