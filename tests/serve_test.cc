/**
 * @file
 * Tests for the serving front-end: the line protocol (parse/render
 * round trips, malformed input), and the TCP server — N concurrent
 * clients receiving answers byte-identical to blocking ask() across
 * all three retrievers with the shared retrieval cache on, admission
 * control rejecting past capacity with a typed overloaded frame, a
 * deliberately slow consumer exercising channel backpressure without
 * stalling other sessions, and a mid-stream disconnect cancelling the
 * in-flight retrieval (TSan-covered). Also pins the engine-level
 * serving satellites: the persistent askStream worker pool and the
 * cooperative cancellation token.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "base/random.hh"
#include "base/stopwatch.hh"
#include "base/str.hh"
#include "core/cachemind.hh"
#include "core/stream.hh"
#include "core/worker_pool.hh"
#include "db/builder.hh"
#include "obs/trace.hh"
#include "retrieval/context.hh"
#include "retrieval/registry.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "byte_mutations.hh"

using namespace cachemind;
using namespace cachemind::core;
using namespace cachemind::serve;

namespace {

const db::TraceDatabase &
sharedDb()
{
    static const db::TraceDatabase database = [] {
        db::BuildOptions options;
        options.workloads = {trace::WorkloadKind::Astar};
        options.policies = {policy::PolicyKind::Lru,
                            policy::PolicyKind::Belady};
        options.accesses_override = 30000;
        return db::buildDatabase(options);
    }();
    return database;
}

std::vector<std::string>
suiteQuestions()
{
    const auto *entry = sharedDb().find("astar_evictions_lru");
    const std::uint64_t pc = entry->table.pcAt(0);
    return {
        "What is the miss rate for PC " + str::hex(pc) +
            " in the astar workload with LRU?",
        "Which policy has the lowest miss rate in the astar workload?",
        "How many times did PC " + str::hex(pc) +
            " appear in the astar workload under LRU?",
        "Why does Belady outperform LRU in the astar workload?",
    };
}

/** Frames collected for one ask request. */
struct AskResult
{
    std::vector<std::string> kinds;
    std::string deltas;
    std::string answer;
    bool done = false;
};

/** Drive one ask over an open connection and collect its frames. */
AskResult
askOver(LineClient &client, const std::string &id,
        const std::string &question, const std::string &retriever)
{
    Request req;
    req.op = Request::Op::Ask;
    req.id = id;
    req.question = question;
    req.retriever = retriever;
    AskResult out;
    if (!client.sendLine(renderRequest(req)))
        return out;
    while (auto line = client.recvLine()) {
        const auto frame = parseJsonObject(*line);
        if (!frame.has_value())
            return out; // malformed frame: fail the assertions below
        const auto kind = frame->at("frame");
        out.kinds.push_back(kind);
        if (kind == "delta")
            out.deltas += frame->at("text");
        if (kind == "done") {
            out.answer = frame->at("answer");
            out.done = true;
            return out;
        }
        if (kind == "error" || kind == "overloaded")
            return out;
    }
    return out;
}

/** Read frames until (and including) the hello banner. */
bool
expectHello(LineClient &client)
{
    const auto line = client.recvLine();
    if (!line)
        return false;
    const auto frame = parseJsonObject(*line);
    return frame.has_value() && frame->at("frame") == "hello";
}

} // namespace

// --------------------------------------------------------------- protocol

TEST(ProtocolTest, RequestRoundTripsThroughRenderAndParse)
{
    Request req;
    req.op = Request::Op::Ask;
    req.id = "42";
    req.question = "Why \"quoted\"\nand newlined?";
    req.retriever = "ranger";
    req.backend = "o3";
    req.params["fidelity"] = "0.6";
    const auto parsed = parseRequest(renderRequest(req));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->op, Request::Op::Ask);
    EXPECT_EQ(parsed->id, "42");
    EXPECT_EQ(parsed->question, req.question);
    EXPECT_EQ(parsed->retriever, "ranger");
    EXPECT_EQ(parsed->backend, "o3");
    ASSERT_EQ(parsed->params.size(), 1u);
    EXPECT_EQ(parsed->params.at("fidelity"), "0.6");
}

TEST(ProtocolTest, MalformedLinesAreRejectedWithAReason)
{
    for (const char *bad :
         {"", "not json", "{\"op\":\"ask\"", "{\"op\":\"launch\"}",
          "{\"op\":\"ask\"}", "{\"op\":\"ask\",\"question\":\"x\"} ho",
          "[1,2]", "{\"op\":\"ask\",\"q\":{\"deep\":{\"er\":1}}}"}) {
        std::string why;
        EXPECT_FALSE(parseRequest(bad, &why).has_value()) << bad;
        EXPECT_FALSE(why.empty()) << bad;
    }
}

TEST(ProtocolTest, DeadlineFieldRoundTripsAndRejectsGarbage)
{
    Request req;
    req.op = Request::Op::Ask;
    req.id = "9";
    req.question = "how slow?";
    req.deadline_ms = 250.0;
    const auto parsed = parseRequest(renderRequest(req));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed->deadline_ms, 250.0);

    // Absent field = 0 (server default applies).
    const auto bare =
        parseRequest("{\"op\":\"ask\",\"question\":\"q\"}");
    ASSERT_TRUE(bare.has_value());
    EXPECT_DOUBLE_EQ(bare->deadline_ms, 0.0);

    // Non-numeric and negative deadlines are rejected, not ignored.
    for (const char *bad :
         {"{\"op\":\"ask\",\"question\":\"q\",\"deadline_ms\":\"soon\"}",
          "{\"op\":\"ask\",\"question\":\"q\",\"deadline_ms\":-5}"}) {
        std::string why;
        EXPECT_FALSE(parseRequest(bad, &why).has_value()) << bad;
        EXPECT_NE(why.find("deadline_ms"), std::string::npos) << why;
    }
}

TEST(ProtocolTest, FailpointsRequestRoundTrips)
{
    Request req;
    req.op = Request::Op::Failpoints;
    req.id = "fp";
    req.failpoint_spec = "serve.read=drop@0.05,db.index_build=error#1";
    const auto parsed = parseRequest(renderRequest(req));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->op, Request::Op::Failpoints);
    EXPECT_EQ(parsed->failpoint_spec, req.failpoint_spec);
}

TEST(ProtocolTest, RobustnessFramesParseBack)
{
    const auto cut = parseJsonObject(deadlineExceededFrame("3", 150.0));
    ASSERT_TRUE(cut.has_value());
    EXPECT_EQ(cut->at("frame"), "deadline_exceeded");
    EXPECT_EQ(cut->at("id"), "3");
    EXPECT_EQ(cut->at("deadline_ms"), "150");

    const auto armed = parseJsonObject(failpointsFrame("4", 2));
    ASSERT_TRUE(armed.has_value());
    EXPECT_EQ(armed->at("frame"), "failpoints");
    EXPECT_EQ(armed->at("armed"), "2");
}

TEST(ProtocolTest, EventFramesParseBackWithEscapedPayloads)
{
    StreamEvent event;
    event.kind = StreamEvent::Kind::EvidenceChunk;
    event.label = "slice";
    event.text = "line one\nline \"two\"\ttabbed\\end";
    const auto frame = parseJsonObject(eventFrame("7", event));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "evidence");
    EXPECT_EQ(frame->at("id"), "7");
    EXPECT_EQ(frame->at("label"), "slice");
    EXPECT_EQ(frame->at("text"), event.text);
}

TEST(ProtocolTest, NonFiniteDeadlinesAreRefusedAndRenderParsesBack)
{
    // "inf" and 1e400 were accepted, and then rendered as a bare inf
    // that parseRequest refused as malformed JSON.
    for (const char *bad :
         {"{\"op\":\"ask\",\"question\":\"q\",\"deadline_ms\":\"inf\"}",
          "{\"op\":\"ask\",\"question\":\"q\",\"deadline_ms\":\"nan\"}",
          "{\"op\":\"ask\",\"question\":\"q\",\"deadline_ms\":1e400}"}) {
        std::string why;
        EXPECT_FALSE(parseRequest(bad, &why).has_value()) << bad;
        EXPECT_NE(why.find("deadline_ms"), std::string::npos) << why;
    }
    // Budgets past 2^63 and fractions keep their exact value.
    for (const double ms : {1e13, 1e19, 1e300, 0.1, 1e-7, 2.5}) {
        Request req;
        req.question = "q";
        req.deadline_ms = ms;
        const auto parsed = parseRequest(renderRequest(req));
        ASSERT_TRUE(parsed.has_value()) << renderRequest(req);
        EXPECT_EQ(parsed->deadline_ms, ms) << renderRequest(req);
    }
    // A "last" count past 2^63 or not a number is refused.
    for (const char *bad : {"{\"op\":\"trace\",\"last\":1e19}",
                            "{\"op\":\"trace\",\"last\":\"nan\"}",
                            "{\"op\":\"trace\",\"last\":1e400}"}) {
        std::string why;
        EXPECT_FALSE(parseRequest(bad, &why).has_value()) << bad;
        EXPECT_NE(why.find("last"), std::string::npos) << why;
    }
}

TEST(ProtocolTest, NumbersOutsideTheJsonGrammarAreRefused)
{
    // str::parseDouble trims spaces, strips a trailing '%', reads hex
    // floats and stops at an embedded NUL, so each of these once
    // became a real budget or count.
    const auto ask = [](const std::string &value) {
        return "{\"op\":\"ask\",\"question\":\"q\",\"deadline_ms\":" +
               value + "}";
    };
    for (const char *value :
         {"\"250%\"", "\"0x1p3\"", "\"5\\u0000junk\"", "\" 7 \"", "\"007\"",
          "\"1.\"", "\".5\"", "\"+3\"", "\"1e\""}) {
        std::string why;
        EXPECT_FALSE(parseRequest(ask(value), &why).has_value()) << value;
        EXPECT_NE(why.find("deadline_ms"), std::string::npos) << why;
    }
    for (const char *value : {"\"4%\"", "\"0x10\"", "\" 2\""}) {
        const std::string line =
            std::string("{\"op\":\"trace\",\"last\":") + value + "}";
        std::string why;
        EXPECT_FALSE(parseRequest(line, &why).has_value()) << value;
        EXPECT_NE(why.find("last"), std::string::npos) << why;
    }
    // The grammar's own spellings still parse, quoted or bare.
    const std::vector<std::pair<std::string, double>> good = {
        {"250", 250.0},  {"\"250\"", 250.0}, {"0.5", 0.5},
        {"2.5e1", 25.0}, {"1E+2", 100.0},    {"-0", 0.0}};
    for (const auto &[value, ms] : good) {
        const auto req = parseRequest(ask(value));
        ASSERT_TRUE(req.has_value()) << value;
        EXPECT_EQ(req->deadline_ms, ms) << value;
    }
    const auto trace =
        parseRequest("{\"op\":\"trace\",\"last\":\"16\"}");
    ASSERT_TRUE(trace.has_value());
    EXPECT_EQ(trace->trace_last, 16u);
}

namespace {

/** Request lines shaped like those of these tests and chaos_smoke.py. */
const std::vector<std::string> kRequestSeeds = {
    "{\"op\":\"ask\",\"id\":\"7\",\"question\":\"What is the miss rate "
    "for PC 0x409270 in the astar workload with LRU?\",\"retriever\":"
    "\"sieve\",\"backend\":\"gpt-4o\",\"deadline_ms\":250,"
    "\"request_id\":\"req-42\",\"params\":{\"evidence_window\":\"4\"}}",
    "{\"op\": \"ask\", \"id\": \"c3-1\", \"question\": \"Why does Belady "
    "outperform LRU in the astar workload?\", \"retriever\": \"ranger\", "
    "\"deadline_ms\": 40}",
    "{\"op\":\"ask\",\"id\":\"1\",\"question\":\"Why \\\"quoted\\\"\\nand "
    "newlined?\",\"params\":{\"fidelity\":\"0.6\",\"row_stride\":\"16\"}}",
    "{\"op\":\"stats\",\"id\":\"8\"}",
    "{\"op\":\"ping\",\"id\":\"9\"}",
    "{\"op\": \"failpoints\", \"id\": \"arm\", \"spec\": "
    "\"serve.read=drop@0.05,db.index_build=error#1\"}",
    "{\"op\":\"trace\",\"id\":\"11\",\"request_id\":\"req-42\"}",
    "{\"op\":\"trace\",\"id\":\"12\",\"last\":4,\"filter\":\"bad\"}",
};

/**
 * parseRequest must not crash on `line`; if it accepts the line, the
 * request must survive renderRequest and parseRequest field for field.
 */
void
checkRequestLine(const std::string &line)
{
    std::string why;
    const auto req = parseRequest(line, &why);
    if (!req) {
        EXPECT_FALSE(why.empty()) << fuzz::escaped(line);
        return;
    }
    const std::string rendered = renderRequest(*req);
    const auto back = parseRequest(rendered, &why);
    ASSERT_TRUE(back.has_value())
        << fuzz::escaped(line) << " rendered as " << fuzz::escaped(rendered)
        << ": " << why;
    const auto fields = [](const Request &r) {
        return std::tie(r.op, r.id, r.request_id, r.question, r.retriever,
                        r.backend, r.deadline_ms, r.params,
                        r.failpoint_spec, r.trace_last, r.trace_filter);
    };
    ASSERT_TRUE(fields(*req) == fields(*back))
        << fuzz::escaped(line) << " rendered as "
        << fuzz::escaped(rendered);
}

} // namespace

TEST(ProtocolFuzzTest, TruncatedRequestLinesParseOrExplain)
{
    for (const auto &seed : kRequestSeeds) {
        for (std::size_t n = 0; n <= seed.size() && !HasFailure(); ++n)
            checkRequestLine(seed.substr(0, n));
    }
}

TEST(ProtocolFuzzTest, MutatedRequestLinesRoundTrip)
{
    Rng rng(0x5e7eULL);
    for (int i = 0; i < 20000 && !HasFailure(); ++i) {
        std::string line =
            kRequestSeeds[rng.nextBelow(kRequestSeeds.size())];
        for (auto n = 1 + rng.nextBelow(4); n > 0; --n)
            fuzz::mutateOnce(line, rng);
        checkRequestLine(line);
    }
}

// ------------------------------------------------------------ worker pool

TEST(WorkerPoolTest, RunsEveryJobIncludingQueuedAtDestruction)
{
    std::atomic<int> ran{0};
    {
        WorkerPool pool(2);
        EXPECT_EQ(pool.threadsStarted(), 0u); // lazy: no work yet
        for (int i = 0; i < 64; ++i)
            pool.submit([&] { ++ran; });
        EXPECT_LE(pool.threadsStarted(), 2u);
    } // destructor drains the queue
    EXPECT_EQ(ran.load(), 64);
}

TEST(WorkerPoolTest, ReusesAParkedThreadAcrossSequentialJobs)
{
    WorkerPool pool(4);
    for (int i = 0; i < 16; ++i) {
        // A finished job's worker parks a moment after the job
        // returns; submitting before then would rightly start a
        // second thread, so wait until every started worker is idle.
        while (pool.idleWorkers() != pool.threadsStarted())
            std::this_thread::yield();
        std::atomic<bool> done{false};
        pool.submit([&] { done.store(true); });
        while (!done.load())
            std::this_thread::yield();
    }
    // Sequential jobs never overlap, so the lazy pool should have
    // parked and reused one thread instead of growing toward its cap.
    EXPECT_EQ(pool.threadsStarted(), 1u);
}

TEST(AskStreamTest, SequentialStreamsReuseThePersistentWorker)
{
    auto engine = CacheMind::Builder(sharedDb())
                      .withRetriever("sieve")
                      .build()
                      .expect("engine");
    const auto questions = suiteQuestions();
    for (int round = 0; round < 3; ++round) {
        auto stream =
            engine.askStream(questions[0]).expect("stream");
        const Response r = stream.wait();
        EXPECT_FALSE(r.text.empty());
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.stream.streams, 3u);
    // Warm-up ran exactly once and is reported separately from the
    // per-stream time-to-first-event percentiles.
    EXPECT_EQ(stats.stream.warmups, 1u);
    EXPECT_GE(stats.stream.warmup_ms_total, 0.0);
}

// -------------------------------------------------------- cancellation

namespace {

/** Sink whose cancellation token trips after N emitted sections. */
class TrippingSink final : public retrieval::EvidenceSink
{
  public:
    explicit TrippingSink(int allowed) : allowed_(allowed) {}

    void
    emit(const std::string &, const std::string &) override
    {
        ++emitted_;
    }

    bool
    cancelled() const override
    {
        return emitted_ >= allowed_;
    }

    int emitted() const { return emitted_; }

  private:
    int allowed_;
    int emitted_ = 0;
};

} // namespace

TEST(CancellationTest, RetrieversAbandonWorkWhenTheTokenTrips)
{
    // All three retrievers must poll the token between sections and
    // unwind with StreamCancelled instead of finishing the bundle.
    const auto questions = suiteQuestions();
    for (const char *name : {"sieve", "ranger", "llamaindex"}) {
        auto engine = CacheMind::Builder(sharedDb())
                          .withRetriever(name)
                          .build()
                          .expect(name);
        const auto parsed = engine.parser().parse(questions[0]);
        TrippingSink sink(1);
        EXPECT_THROW(engine.retriever().retrieveParsed(parsed, sink),
                     retrieval::StreamCancelled)
            << name;
        EXPECT_GE(sink.emitted(), 1) << name;
    }
}

TEST(CancellationTest, CancelledStreamIsCountedAndEngineStaysUsable)
{
    // A paced stream cancelled after its first delta must be recorded
    // as cancelled (no latency sample) and leave the engine healthy.
    auto engine = CacheMind::Builder(sharedDb())
                      .withRetriever("sieve")
                      .withStreamBuffer(1)
                      .withTokensPerSecond(50.0)
                      .build()
                      .expect("engine");
    const auto questions = suiteQuestions();
    {
        auto stream = engine.askStream(questions[3]).expect("stream");
        while (auto event = stream.next()) {
            if (event->kind == StreamEvent::Kind::AnswerDelta)
                break;
        }
        stream.cancel();
    }
    // cancel() waited for the pipeline job to retire, so the counter
    // is already final.
    const auto stats = engine.stats();
    EXPECT_EQ(stats.stream.cancelled, 1u);
    EXPECT_EQ(stats.questions, 0u); // no latency sample recorded
    auto result = engine.ask(questions[0]);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result.value().text.empty());
}

// ------------------------------------------------------------- pacing

TEST(PacingTest, TokensPerSecondPacesDeltasWithoutChangingBytes)
{
    const auto questions = suiteQuestions();
    auto unpaced = CacheMind::Builder(sharedDb())
                       .withRetriever("sieve")
                       .build()
                       .expect("unpaced");
    auto paced = CacheMind::Builder(sharedDb())
                     .withRetriever("sieve")
                     .withTokensPerSecond(2000.0)
                     .build()
                     .expect("paced");
    const std::string expected =
        unpaced.ask(questions[3]).expect("ask").text;

    auto stream = paced.askStream(questions[3]).expect("stream");
    std::string deltas;
    std::size_t delta_events = 0;
    Stopwatch timer;
    std::optional<Response> done;
    while (auto event = stream.next()) {
        if (event->kind == StreamEvent::Kind::AnswerDelta) {
            deltas += event->text;
            ++delta_events;
        }
        if (event->kind == StreamEvent::Kind::Done)
            done = *event->response;
    }
    ASSERT_TRUE(done.has_value());
    // Byte identity: pacing changes timing only.
    EXPECT_EQ(done->text, expected);
    EXPECT_EQ(deltas, expected);
    if (delta_events > 1) {
        // Lower bound on the pacing sleeps: every delta after the
        // first waits >= 1 token / 2000 tps = 0.5ms.
        const double floor_ms =
            0.5 * static_cast<double>(delta_events - 1);
        EXPECT_GE(timer.milliseconds(), floor_ms);
    }
}

// ------------------------------------------------------------- serving

TEST(ServerTest, PingStatsAndMalformedLines)
{
    ServeOptions opts;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));

    ASSERT_TRUE(client.sendLine("{\"op\":\"ping\",\"id\":\"p1\"}"));
    auto line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    auto frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "pong");
    EXPECT_EQ(frame->at("id"), "p1");

    ASSERT_TRUE(client.sendLine("this is not json"));
    line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "error");

    ASSERT_TRUE(client.sendLine("{\"op\":\"stats\",\"id\":\"s1\"}"));
    line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "stats");
    EXPECT_EQ(frame->at("accepted"), "1");
    EXPECT_EQ(frame->at("malformed"), "1");

    const auto stats = server.stats();
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.malformed, 1u);
    server.stop();
}

TEST(ServerTest, ConcurrentClientsMatchBlockingAskAllRetrievers)
{
    // The acceptance bar: 32 concurrent clients, three retrievers,
    // shared retrieval cache on — every streamed answer (and the
    // concatenation of its deltas) byte-identical to blocking ask().
    constexpr std::size_t kClients = 32;
    const char *retrievers[] = {"sieve", "ranger", "llamaindex"};
    const auto questions = suiteQuestions();

    // Blocking references, one engine per retriever.
    std::map<std::string, std::vector<std::string>> expected;
    for (const char *name : retrievers) {
        auto engine = CacheMind::Builder(sharedDb())
                          .withRetriever(name)
                          .build()
                          .expect(name);
        for (const auto &q : questions)
            expected[name].push_back(engine.ask(q).expect("ask").text);
    }

    ServeOptions opts;
    opts.max_sessions = kClients;
    opts.max_engines_per_key = 2;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const std::string retriever = retrievers[c % 3];
            LineClient client;
            if (!client.connect("127.0.0.1", server.port()) ||
                !expectHello(client)) {
                ++failures;
                return;
            }
            for (std::size_t q = 0; q < questions.size(); ++q) {
                const std::size_t qi = (c + q) % questions.size();
                const auto got =
                    askOver(client, std::to_string(c) + "-" +
                                        std::to_string(q),
                            questions[qi], retriever);
                if (!got.done) {
                    ++failures;
                    return;
                }
                if (got.answer != expected[retriever][qi] ||
                    got.deltas != expected[retriever][qi])
                    ++mismatches;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);

    // A session records completion after writing the done frame, so
    // clients can observe their answers slightly before the counter
    // settles — poll the snapshot.
    ServeStats stats = server.stats();
    for (int i = 0;
         i < 500 && stats.completed < kClients * questions.size();
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        stats = server.stats();
    }
    EXPECT_EQ(stats.accepted, kClients);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.completed, kClients * questions.size());
    // All three retrievers really served, with TTFE/TTLB recorded.
    for (const char *name : retrievers) {
        ASSERT_TRUE(stats.by_retriever.count(name)) << name;
        EXPECT_GT(stats.by_retriever.at(name).asks, 0u) << name;
        EXPECT_GE(stats.by_retriever.at(name).ttlb_p50_ms,
                  stats.by_retriever.at(name).ttfe_p50_ms)
            << name;
    }
    // The shared cache coalesced repeated questions across sessions.
    EXPECT_GT(stats.engine.cache.hits, 0u);
    server.stop();
}

TEST(ServerTest, HugeDeadlinesAnswerAndNonFiniteOnesAreRefused)
{
    // A budget past the clock's range once expired at once, so a
    // client that asked for more time was cut off.
    Server server(sharedDb(), ServeOptions{});
    ASSERT_TRUE(server.start());
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));
    const std::string question = suiteQuestions()[0];
    const auto terminal = [&](const std::string &budget) {
        const std::string line =
            "{\"op\":\"ask\",\"id\":\"d\",\"question\":\"" +
            jsonEscape(question) + "\",\"deadline_ms\":" + budget + "}";
        if (!client.sendLine(line))
            return std::string("send failed");
        while (auto reply = client.recvLine()) {
            const auto frame = parseJsonObject(*reply);
            if (!frame)
                return std::string("malformed frame");
            const std::string kind = frame->at("frame");
            if (kind == "error")
                return kind + ": " + frame->at("message");
            if (kind == "done" || kind == "deadline_exceeded")
                return kind;
        }
        return std::string("connection closed");
    };
    for (const char *budget : {"\"inf\"", "\"nan\"", "1e400"}) {
        const auto got = terminal(budget);
        EXPECT_EQ(got.rfind("error: bad \"deadline_ms\"", 0), 0u)
            << budget << " -> " << got;
    }
    for (const char *budget : {"1e13", "1e300"})
        EXPECT_EQ(terminal(budget), "done") << budget;
    server.stop();
}

TEST(ServerTest, LeaseReleasesWakeWaitersOnTheReleasedKey)
{
    // Regression: with one condvar shared across pool keys and
    // notify_one, a release on key A could wake a waiter queued on
    // key B, which re-checks its own predicate and sleeps again —
    // the waiter on key A then hangs forever beside a parked idle
    // engine. Per-key condvars must keep every session completing
    // with more waiters than engines on each of two distinct keys.
    ServeOptions opts;
    opts.max_engines_per_key = 1;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());
    const auto questions = suiteQuestions();

    constexpr int kClientsPerKey = 4;
    const char *retrievers[] = {"sieve", "ranger"};
    std::atomic<int> done_count{0};
    std::vector<std::thread> clients;
    for (const char *name : retrievers) {
        for (int c = 0; c < kClientsPerKey; ++c) {
            clients.emplace_back([&, name, c] {
                LineClient client;
                if (!client.connect("127.0.0.1", server.port()) ||
                    !expectHello(client))
                    return;
                for (int q = 0; q < 2; ++q) {
                    const auto got = askOver(
                        client,
                        std::string(name) + "-" + std::to_string(c) +
                            "-" + std::to_string(q),
                        questions[(c + q) % questions.size()], name);
                    if (!got.done)
                        return;
                }
                ++done_count;
            });
        }
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(done_count.load(), 2 * kClientsPerKey);
    server.stop();
}

namespace {

/** Send one ask and return its first frame. */
std::optional<std::map<std::string, std::string>>
firstFrame(LineClient &client, const Request &req)
{
    if (!client.sendLine(renderRequest(req)))
        return std::nullopt;
    const auto line = client.recvLine();
    if (!line)
        return std::nullopt;
    return parseJsonObject(*line);
}

const bool throwing_factory_registered =
    retrieval::RetrieverRegistry::instance().add(
        "serve-test-throwing-build",
        [](const db::ShardSet &) -> std::unique_ptr<retrieval::Retriever> {
            throw std::runtime_error("index build exploded");
        });

} // namespace

TEST(ServerTest, BadLlamaIndexParamsGetInvalidOptionsFrames)
{
    // Each of these once took the server down or hung it: dims=4
    // tripped the embedder's assertion (abort), a huge dims threw
    // bad_alloc out of the session thread (terminate), and a zero
    // stride never finished the index build. With one engine per key,
    // a build slot that was not given back would also turn the repeat
    // of each request into an overloaded frame.
    ServeOptions opts;
    opts.max_engines_per_key = 1;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));

    const std::pair<const char *, const char *> bad[] = {
        {"dims", "4"},
        {"dims", "100000000000"},
        {"dims", "4097"},
        {"row_stride", "0"},
    };
    int n = 0;
    for (const auto &[knob, value] : bad) {
        for (int repeat = 0; repeat < 2; ++repeat) {
            Request req;
            req.id = "bad-" + std::to_string(n++);
            req.question = suiteQuestions()[0];
            req.retriever = "llamaindex";
            req.params[knob] = value;
            const auto frame = firstFrame(client, req);
            ASSERT_TRUE(frame.has_value()) << knob << "=" << value;
            EXPECT_EQ(frame->at("frame"), "error") << knob << "=" << value;
            EXPECT_EQ(frame->at("code"), "invalid-options")
                << knob << "=" << value;
            EXPECT_NE(frame->at("message").find(knob), std::string::npos)
                << frame->at("message");
        }
    }

    // The same session keeps serving: a normal ask, and a LlamaIndex
    // engine whose stride overflows 64 bits (which once wrapped to 0
    // and hung) falls back to the default stride.
    EXPECT_TRUE(askOver(client, "ok", suiteQuestions()[0], "sieve").done);
    Request wrapped;
    wrapped.id = "wrapped";
    wrapped.question = suiteQuestions()[0];
    wrapped.retriever = "llamaindex";
    wrapped.params["row_stride"] = "18446744073709551616";
    ASSERT_TRUE(client.sendLine(renderRequest(wrapped)));
    bool done = false;
    while (auto line = client.recvLine()) {
        const auto frame = parseJsonObject(*line);
        ASSERT_TRUE(frame.has_value());
        ASSERT_NE(frame->at("frame"), "error") << *line;
        if (frame->at("frame") == "done") {
            done = true;
            break;
        }
    }
    EXPECT_TRUE(done);
    server.stop();
}

TEST(ServerTest, ThrowingEngineBuildGetsAnErrorFrameAndFreesItsSlot)
{
    // An exception out of engine construction must end this request
    // with an error frame, give back the build slot it claimed (so the
    // repeat is not shed as overloaded), and leave the server serving.
    ASSERT_TRUE(throwing_factory_registered);
    ServeOptions opts;
    opts.max_engines_per_key = 1;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));
    for (int repeat = 0; repeat < 2; ++repeat) {
        Request req;
        req.id = "throw-" + std::to_string(repeat);
        req.question = suiteQuestions()[0];
        req.retriever = "serve-test-throwing-build";
        const auto frame = firstFrame(client, req);
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->at("frame"), "error");
        EXPECT_EQ(frame->at("code"), "bad-engine");
        EXPECT_NE(frame->at("message").find("index build exploded"),
                  std::string::npos)
            << frame->at("message");
    }
    EXPECT_TRUE(askOver(client, "ok", suiteQuestions()[0], "sieve").done);
    server.stop();
}

TEST(ServerTest, OversizedRequestLineGetsErrorFrameAndClose)
{
    // A client that streams bytes past the request-line cap (newline
    // or not) must get a typed bad-request frame and a closed
    // connection, not an unboundedly growing session buffer.
    ServeOptions opts;
    opts.max_request_bytes = 4096;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));
    ASSERT_TRUE(client.sendLine(std::string(64 * 1024, 'a')));

    const auto line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    const auto frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "error");
    EXPECT_EQ(frame->at("code"), "bad-request");
    EXPECT_FALSE(client.recvLine().has_value()); // server closed it

    EXPECT_GE(server.stats().malformed, 1u);

    // The slot freed by the closed session is reusable.
    LineClient again;
    ASSERT_TRUE(again.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(again));
    const auto got = askOver(again, "ok", suiteQuestions()[0], "sieve");
    EXPECT_TRUE(got.done);
    server.stop();
}

TEST(ServerTest, AdmissionControlRejectsWithTypedOverloadedFrame)
{
    ServeOptions opts;
    opts.max_sessions = 2;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient a, b;
    ASSERT_TRUE(a.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(a)); // hello => the session is admitted
    ASSERT_TRUE(b.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(b));

    LineClient c;
    ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(c));
    auto line = c.recvLine();
    ASSERT_TRUE(line.has_value());
    const auto frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "overloaded");
    EXPECT_EQ(frame->at("limit"), "2");
    EXPECT_FALSE(c.recvLine().has_value()); // server closed it

    // An admitted session still serves normally while the server is
    // at its limit.
    const auto got =
        askOver(a, "1", suiteQuestions()[0], "sieve");
    EXPECT_TRUE(got.done);

    // Capacity frees once a session disconnects.
    b.close();
    const auto stats_after = [&] {
        for (int i = 0; i < 200; ++i) {
            LineClient d;
            if (d.connect("127.0.0.1", server.port()) &&
                expectHello(d)) {
                Request ping;
                ping.op = Request::Op::Ping;
                ping.id = "again";
                if (d.sendLine(renderRequest(ping))) {
                    const auto pong = d.recvLine();
                    if (pong) {
                        const auto f = parseJsonObject(*pong);
                        if (f && f->at("frame") == "pong")
                            return true;
                    }
                }
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        return false;
    }();
    EXPECT_TRUE(stats_after);

    EXPECT_GE(server.stats().rejected, 1u);
    server.stop();
}

TEST(ServerTest, SlowConsumerDoesNotStallOtherSessions)
{
    // The slow session's paced stream, behind a tiny socket buffer,
    // must stall only its own session: a concurrent fast session
    // (separate engine lease) completes while the slow one is still
    // dribbling.
    ServeOptions opts;
    opts.tokens_per_second = 150.0; // slow decode => long stream
    opts.session_send_buffer = 1024;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());
    const auto questions = suiteQuestions();

    LineClient slow;
    ASSERT_TRUE(slow.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(slow));
    Request req;
    req.op = Request::Op::Ask;
    req.id = "slow";
    req.question = questions[3];
    req.retriever = "sieve";
    ASSERT_TRUE(slow.sendLine(renderRequest(req)));
    // Do not read the slow stream yet: its socket buffer fills, and
    // its session parks on backpressure.

    std::atomic<bool> fast_done{false};
    std::thread fast([&] {
        LineClient client;
        if (!client.connect("127.0.0.1", server.port()) ||
            !expectHello(client))
            return;
        const auto got = askOver(client, "fast", questions[0], "sieve");
        fast_done.store(got.done);
    });
    fast.join();
    EXPECT_TRUE(fast_done.load());

    // The slow stream still delivers everything, in order, complete.
    AskResult slow_result;
    while (auto line = slow.recvLine()) {
        const auto frame = parseJsonObject(*line);
        ASSERT_TRUE(frame.has_value());
        if (frame->at("frame") == "delta")
            slow_result.deltas += frame->at("text");
        if (frame->at("frame") == "done") {
            slow_result.answer = frame->at("answer");
            slow_result.done = true;
            break;
        }
    }
    EXPECT_TRUE(slow_result.done);
    EXPECT_EQ(slow_result.deltas, slow_result.answer);
    server.stop();
}

TEST(ServerTest, MidStreamDisconnectCancelsRetrievalWork)
{
    ServeOptions opts;
    opts.tokens_per_second = 100.0; // keep the stream alive for long
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());
    const auto questions = suiteQuestions();

    {
        LineClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
        ASSERT_TRUE(expectHello(client));
        Request req;
        req.op = Request::Op::Ask;
        req.id = "gone";
        req.question = questions[3];
        req.retriever = "sieve";
        ASSERT_TRUE(client.sendLine(renderRequest(req)));
        // Read to the first answer delta, then vanish mid-stream.
        while (auto line = client.recvLine()) {
            const auto frame = parseJsonObject(*line);
            ASSERT_TRUE(frame.has_value());
            if (frame->at("frame") == "delta")
                break;
        }
        client.close();
    }

    // The dead client surfaces on the session's next write, which
    // refuses the event; the pipeline unwinds and the engine records
    // the cancellation.
    bool cancelled = false;
    for (int i = 0; i < 500 && !cancelled; ++i) {
        const auto stats = server.stats();
        cancelled = stats.cancelled >= 1 &&
                    stats.engine.stream.cancelled >= 1;
        if (!cancelled)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(cancelled);

    // The server (and the now-released engine lease) stays healthy.
    LineClient again;
    ASSERT_TRUE(again.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(again));
    const auto got = askOver(again, "after", questions[0], "sieve");
    EXPECT_TRUE(got.done);
    server.stop();
}

// ------------------------------------------------- protocol v1.1

TEST(ProtocolTest, RequestIdAndTraceRequestsRoundTrip)
{
    // The hello banner advertises the request_id-capable protocol.
    EXPECT_NE(helloFrame().find("\"proto\":\"1.1\""),
              std::string::npos);

    Request ask;
    ask.op = Request::Op::Ask;
    ask.id = "7";
    ask.question = "why?";
    ask.request_id = "req \"42\"";
    auto parsed = parseRequest(renderRequest(ask));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->op, Request::Op::Ask);
    EXPECT_EQ(parsed->request_id, "req \"42\"");

    Request by_id;
    by_id.op = Request::Op::Trace;
    by_id.id = "8";
    by_id.request_id = "req-42";
    parsed = parseRequest(renderRequest(by_id));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->op, Request::Op::Trace);
    EXPECT_EQ(parsed->request_id, "req-42");

    Request recent;
    recent.op = Request::Op::Trace;
    recent.id = "9";
    recent.trace_last = 4;
    recent.trace_filter = "bad";
    parsed = parseRequest(renderRequest(recent));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->trace_last, 4u);
    EXPECT_EQ(parsed->trace_filter, "bad");

    // Garbage "last" values are rejected, not ignored.
    std::string why;
    EXPECT_FALSE(
        parseRequest("{\"op\":\"trace\",\"last\":\"many\"}", &why)
            .has_value());
    EXPECT_NE(why.find("last"), std::string::npos);
}

TEST(ProtocolTest, FramesEchoRequestIdOnlyWhenPresent)
{
    // v1.0 callers (empty request_id) get the historical wire format.
    EXPECT_EQ(errorFrame("1", "c", "m").find("request_id"),
              std::string::npos);
    core::StreamEvent delta;
    delta.kind = core::StreamEvent::Kind::AnswerDelta;
    delta.text = "x";
    EXPECT_EQ(eventFrame("1", delta).find("request_id"),
              std::string::npos);

    // v1.1 callers see it on every per-request frame.
    for (const std::string &frame :
         {eventFrame("1", delta, "req-1"),
          errorFrame("1", "c", "m", "req-1"),
          overloadedFrame("1", 4, "req-1"),
          deadlineExceededFrame("1", 50.0, "req-1")}) {
        const auto fields = parseJsonObject(frame);
        ASSERT_TRUE(fields.has_value()) << frame;
        EXPECT_EQ(fields->at("request_id"), "req-1") << frame;
    }

    const auto trace = parseJsonObject(traceFrame("2", 3, "a\nb"));
    ASSERT_TRUE(trace.has_value());
    EXPECT_EQ(trace->at("frame"), "trace");
    EXPECT_EQ(trace->at("found"), "3");
    EXPECT_EQ(trace->at("traces"), "a\nb");
}

TEST(ServerTest, RequestIdEchoedAndTraceVerbReturnsSpanTree)
{
    obs::TraceStore::instance().clear();
    ServeOptions opts;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));

    // An ask carrying a request_id: every frame echoes it, and the
    // request is traced server-side.
    Request req;
    req.op = Request::Op::Ask;
    req.id = "1";
    req.question = suiteQuestions()[0];
    req.request_id = "req-e2e";
    ASSERT_TRUE(client.sendLine(renderRequest(req)));
    bool done = false;
    std::size_t frames = 0;
    while (!done) {
        const auto line = client.recvLine();
        ASSERT_TRUE(line.has_value());
        const auto frame = parseJsonObject(*line);
        ASSERT_TRUE(frame.has_value());
        ASSERT_EQ(frame->count("request_id"), 1u) << *line;
        EXPECT_EQ(frame->at("request_id"), "req-e2e");
        ++frames;
        done = frame->at("frame") == "done";
    }
    EXPECT_GE(frames, 3u); // parsed, planned, ..., done

    // The trace verb keyed by the same id returns the span tree:
    // serve-side spans wrapping the engine's pipeline stages.
    Request fetch;
    fetch.op = Request::Op::Trace;
    fetch.id = "2";
    fetch.request_id = "req-e2e";
    ASSERT_TRUE(client.sendLine(renderRequest(fetch)));
    auto line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    auto frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "trace");
    EXPECT_EQ(frame->at("found"), "1");
    const std::string text = frame->at("traces");
    EXPECT_NE(text.find("[req-e2e outcome=done]"), std::string::npos);
    for (const char *span : {"serve.ask", "lease", "write", "ask",
                             "parse", "plan", "retrieve", "section:",
                             "generate"})
        EXPECT_NE(text.find(span), std::string::npos) << span;

    // An id the store has never seen: found=0, empty text.
    fetch.id = "3";
    fetch.request_id = "no-such-request";
    ASSERT_TRUE(client.sendLine(renderRequest(fetch)));
    line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("found"), "0");

    // Untraced asks (no request_id, sampling off) echo nothing and
    // record nothing.
    const auto before = obs::TraceStore::instance().recorded();
    const auto got = askOver(client, "4", suiteQuestions()[1], "");
    EXPECT_TRUE(got.done);
    EXPECT_EQ(obs::TraceStore::instance().recorded(), before);
    server.stop();
}

TEST(ServerTest, TraceSamplingTracesUnlabelledAsks)
{
    obs::TraceStore::instance().clear();
    ServeOptions opts;
    opts.trace_sample_every = 2; // asks 0, 2, 4, ... are traced
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));
    for (int i = 0; i < 4; ++i) {
        const auto got =
            askOver(client, std::to_string(i), suiteQuestions()[0], "");
        ASSERT_TRUE(got.done);
    }

    // Asks 0 and 2 were sampled under synthesized ids.
    const auto recent = obs::TraceStore::instance().recent(8);
    ASSERT_EQ(recent.size(), 2u);
    EXPECT_EQ(recent[0]->requestId(), "sampled-2");
    EXPECT_EQ(recent[1]->requestId(), "sampled-0");
    EXPECT_EQ(recent[0]->outcome(), "done");
    server.stop();
}
