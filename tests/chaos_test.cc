/**
 * @file
 * Robustness tests: the named-failpoint registry, deadline-driven
 * graceful degradation through the engine, the hardened failure paths
 * (corrupt secondary-tier entries, failed index builds), and the
 * serve pipeline under injected chaos — typed terminal frames, no
 * crashes, no hangs, fault-free answers byte-identical to a clean
 * run, and the write failpoint firing once per batched socket write.
 *
 * Failpoints are process-global, so every test arms through a guard
 * that disarms everything on entry and exit — a failing test cannot
 * leak a fault schedule into its neighbours.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/deadline.hh"
#include "base/failpoint.hh"
#include "base/random.hh"
#include "base/str.hh"
#include "core/cachemind.hh"
#include "core/stream.hh"
#include "db/builder.hh"
#include "obs/trace.hh"
#include "retrieval/cache.hh"
#include "retrieval/context.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace cachemind;
using namespace cachemind::core;
using namespace cachemind::retrieval;
using namespace cachemind::serve;

namespace {

/** Disarm every failpoint on entry and exit (registry is global). */
struct FailpointGuard
{
    FailpointGuard() { fail::disarmAll(); }
    ~FailpointGuard() { fail::disarmAll(); }
};

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
    };
}

/** A payload-free bundle tagged so tests can tell bundles apart. */
RetrievalCache::BundlePtr
taggedBundle(const std::string &tag)
{
    auto bundle = std::make_shared<ContextBundle>();
    bundle->result_text = tag;
    return bundle;
}

/** Frames collected for one ask request. */
struct AskResult
{
    std::vector<std::string> kinds;
    std::string answer;
    std::string terminal;
    bool degraded = false;
};

/**
 * Drive one ask over an open connection. Returns once a terminal
 * frame arrives (done / error / overloaded / deadline_exceeded) or
 * the connection dies — `terminal` stays empty in the latter case.
 */
AskResult
askOver(LineClient &client, const std::string &id,
        const std::string &question, double deadline_ms = 0.0)
{
    Request req;
    req.op = Request::Op::Ask;
    req.id = id;
    req.question = question;
    req.deadline_ms = deadline_ms;
    AskResult out;
    if (!client.sendLine(renderRequest(req)))
        return out;
    while (auto line = client.recvLine()) {
        const auto frame = parseJsonObject(*line);
        if (!frame.has_value())
            return out;
        const auto kind = frame->at("frame");
        out.kinds.push_back(kind);
        if (kind == "done") {
            out.answer = frame->at("answer");
            out.degraded = frame->count("degraded") != 0;
        }
        if (kind == "done" || kind == "error" ||
            kind == "overloaded" || kind == "deadline_exceeded") {
            out.terminal = kind;
            return out;
        }
    }
    return out;
}

bool
expectHello(LineClient &client)
{
    const auto line = client.recvLine();
    if (!line)
        return false;
    const auto frame = parseJsonObject(*line);
    return frame.has_value() && frame->at("frame") == "hello";
}

/** Arm a failpoint spec through the protocol verb; "" disarms. */
bool
armOver(LineClient &client, const std::string &spec)
{
    Request req;
    req.op = Request::Op::Failpoints;
    req.id = "fp";
    req.failpoint_spec = spec;
    if (!client.sendLine(renderRequest(req)))
        return false;
    const auto line = client.recvLine();
    if (!line)
        return false;
    const auto frame = parseJsonObject(*line);
    return frame.has_value() && frame->at("frame") == "failpoints";
}

/** Fetch the stats frame over an open connection. */
std::optional<std::map<std::string, std::string>>
statsOver(LineClient &client)
{
    Request req;
    req.op = Request::Op::Stats;
    req.id = "st";
    if (!client.sendLine(renderRequest(req)))
        return std::nullopt;
    const auto line = client.recvLine();
    if (!line)
        return std::nullopt;
    return parseJsonObject(*line);
}

} // namespace

// ------------------------------------------------- failpoint registry

TEST(FailpointTest, SpecParsingArmsAndDisarms)
{
    FailpointGuard guard;
    EXPECT_FALSE(fail::anyArmed());

    std::string error;
    EXPECT_TRUE(fail::armSpec(
        "a.site=delay:5, b.site=error@0.5, c.site=drop#3", &error))
        << error;
    EXPECT_EQ(fail::armedCount(), 3u);

    fail::disarm("b.site");
    EXPECT_EQ(fail::armedCount(), 2u);

    // "off" (and the empty spec) disarm everything.
    EXPECT_TRUE(fail::armSpec("off", &error)) << error;
    EXPECT_FALSE(fail::anyArmed());

    // Malformed entries are rejected with a reason.
    EXPECT_FALSE(fail::armSpec("no-equals-sign", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(fail::armSpec("x=unknown-action", &error));
    EXPECT_FALSE(fail::armSpec("x=error@1.5", &error));
}

TEST(FailpointTest, ErrorActionThrowsAndHonoursMaxHits)
{
    FailpointGuard guard;
    ASSERT_TRUE(fail::armSpec("chaos.err=error#2"));

    EXPECT_THROW(fail::maybeThrow("chaos.err"), fail::InjectedFault);
    EXPECT_THROW(fail::maybeThrow("chaos.err"), fail::InjectedFault);
    // max_hits reached: the site auto-disarmed.
    EXPECT_NO_THROW(fail::maybeThrow("chaos.err"));
    EXPECT_FALSE(fail::anyArmed());

    const auto by_site = fail::injectedBySite();
    ASSERT_EQ(by_site.count("chaos.err"), 1u);
    EXPECT_EQ(by_site.at("chaos.err"), 2u);
}

TEST(FailpointTest, UnarmedSitesAreUntouched)
{
    FailpointGuard guard;
    ASSERT_TRUE(fail::armSpec("some.site=error"));
    // A different site never fires.
    EXPECT_NO_THROW(fail::maybeThrow("other.site"));
    std::string bytes = "payload";
    fail::maybeCorrupt("other.site", bytes);
    EXPECT_EQ(bytes, "payload");
    EXPECT_FALSE(fail::maybeDrop("other.site"));
}

TEST(FailpointTest, CorruptActionTruncatesBytes)
{
    FailpointGuard guard;
    ASSERT_TRUE(fail::armSpec("chaos.corrupt=corrupt:2"));
    std::string bytes(64, 'x');
    fail::maybeCorrupt("chaos.corrupt", bytes);
    EXPECT_EQ(bytes.size(), 32u); // truncated to half
}

TEST(FailpointTest, ProbabilityDrawsAreDeterministic)
{
    FailpointGuard guard;
    const std::string site = "chaos.prob";
    ASSERT_TRUE(fail::armSpec(site + "=drop@0.5"));
    // The registry draws keyedUniform(hashCombine(fnv1a(site), hit))
    // per evaluation: replay the same sequence and predict each hit.
    int fired = 0, expected = 0;
    for (std::uint64_t hit = 0; hit < 200; ++hit) {
        if (keyedUniform(hashCombine(fnv1a(site), hit)) < 0.5)
            ++expected;
        if (fail::maybeDrop(site))
            ++fired;
    }
    EXPECT_EQ(fired, expected);
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, 200);
}

// ------------------------------------------------- engine degradation

TEST(ChaosTest, EngineDeadlineDegradesAnswerAndSkipsCache)
{
    FailpointGuard guard;
    auto engine = CacheMind::Builder(sharedDb())
                      .build()
                      .expect("engine");
    const auto q = suiteQuestions()[0];

    ASSERT_TRUE(fail::armSpec("retrieve.section=delay:60"));
    const auto degraded = engine.ask(RequestContext(q).withDeadlineMs(20.0))
                              .expect("degraded ask");
    EXPECT_TRUE(degraded.bundle.degraded);
    EXPECT_FALSE(degraded.text.empty());
    EXPECT_GE(engine.stats().degraded_answers, 1u);
    EXPECT_GE(fail::injectedTotal(), 1u);

    // A degraded bundle must never have entered the retrieval cache:
    // re-asking without a deadline recomputes a complete bundle.
    fail::disarmAll();
    const auto clean = engine.ask(q).expect("clean ask");
    EXPECT_FALSE(clean.bundle.degraded);

    // And the clean answer matches a never-faulted engine's.
    auto fresh = CacheMind::Builder(sharedDb())
                     .build()
                     .expect("fresh engine");
    EXPECT_EQ(clean.text, fresh.ask(q).expect("reference").text);
}

TEST(ChaosTest, DeadlineDegradationAcrossAllRetrievers)
{
    FailpointGuard guard;
    const auto q = suiteQuestions()[1];
    for (const char *retriever : {"sieve", "ranger", "llamaindex"}) {
        SCOPED_TRACE(retriever);
        auto engine = CacheMind::Builder(sharedDb())
                          .withRetriever(retriever)
                          .build()
                          .expect("engine");
        ASSERT_TRUE(fail::armSpec("retrieve.section=delay:60"));
        const auto r = engine.ask(RequestContext(q).withDeadlineMs(20.0))
                           .expect("degraded ask");
        // Partial evidence, but still an answer — degradation is
        // graceful, not an error.
        EXPECT_TRUE(r.bundle.degraded);
        EXPECT_FALSE(r.text.empty());
        fail::disarmAll();
    }
}

// ------------------------------------------------ hardened failure paths

TEST(ChaosTest, CorruptSecondaryEntryCountsMissAndRecomputes)
{
    FailpointGuard guard;
    // Hot tier of 1 over a roomy secondary: computing "b" demotes
    // "a" into the secondary tier in encoded form.
    RetrievalCache::Options options;
    options.capacity = 1;
    options.secondary_capacity_bytes = 1u << 20;
    RetrievalCache cache(options);
    std::map<std::string, int> computes;
    const auto get = [&](const std::string &key) {
        return cache.getOrCompute(key, [&] {
            ++computes[key];
            return taggedBundle(key);
        });
    };
    get("a");
    get("b");
    ASSERT_EQ(cache.tiered().secondary.entries, 1u);

    // Corrupt the stored bytes on the next secondary lookup: decode
    // fails, the entry counts as a miss and is dropped, and the
    // orchestrator recomputes instead of surfacing broken evidence.
    ASSERT_TRUE(fail::armSpec("cache.secondary.decode=corrupt"));
    const auto recovered = get("a");
    EXPECT_EQ(recovered->result_text, "a");
    EXPECT_EQ(computes.at("a"), 2);
    const auto tiers = cache.tiered();
    EXPECT_EQ(tiers.secondary.decode_failures, 1u);

    // Disarmed, the recomputed entry round-trips cleanly again.
    fail::disarmAll();
    get("b"); // demoted by the "a" recompute; decodes fine
    EXPECT_EQ(computes.at("b"), 1);
    EXPECT_EQ(cache.tiered().secondary.decode_failures, 1u);
}

TEST(ChaosTest, FailedIndexBuildFallsBackToReferenceScan)
{
    FailpointGuard guard;
    // A private database: its lazy indexes must not have been built
    // by other tests when the failpoint fires.
    db::BuildOptions options;
    options.workloads = {trace::WorkloadKind::Astar};
    options.policies = {policy::PolicyKind::Lru};
    options.accesses_override = 20000;
    const auto database = db::buildDatabase(options);
    const auto *entry = database.find("astar_evictions_lru");
    ASSERT_NE(entry, nullptr);
    const db::TraceTable &table = entry->table;

    ASSERT_TRUE(fail::armSpec("db.index_build=error"));
    EXPECT_EQ(table.indexOrFallback(), nullptr);
    EXPECT_TRUE(table.indexBuildFailed());

    // Failure is sticky even after disarming: the table degrades to
    // the scan path consistently instead of flapping.
    fail::disarmAll();
    EXPECT_EQ(table.indexOrFallback(), nullptr);

    // Every read path answers byte-identically from the scan.
    EXPECT_EQ(table.uniquePcs(), table.uniquePcsScan());
    EXPECT_EQ(table.uniqueSets(), table.uniqueSetsScan());
    const std::uint64_t pc = table.pcAt(0);
    EXPECT_EQ(table.filter(&pc, nullptr),
              table.filterScan(&pc, nullptr));

    // And a whole engine over the degraded database still answers —
    // byte-identical to an engine whose index build succeeded.
    const auto clean_db = db::buildDatabase(options);
    auto degraded_engine =
        CacheMind::Builder(database).build().expect("degraded engine");
    auto clean_engine =
        CacheMind::Builder(clean_db).build().expect("clean engine");
    const std::uint64_t clean_pc =
        clean_db.find("astar_evictions_lru")->table.pcAt(0);
    const std::string q = "How many times did PC " + str::hex(clean_pc) +
                          " appear in the astar workload under LRU?";
    EXPECT_EQ(degraded_engine.ask(q).expect("degraded").text,
              clean_engine.ask(q).expect("clean").text);
}

// ----------------------------------------------------- serve pipeline

TEST(ChaosTest, ServeDeadlineExceededFrameWhenPipelineWedges)
{
    FailpointGuard guard;
    ServeOptions opts;
    opts.debug_failpoints = true;
    opts.deadline_slack_ms = 100.0;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));

    // Wedge retrieval far past deadline + slack: every section emit
    // sleeps 500 ms against a 40 ms deadline and 100 ms slack.
    ASSERT_TRUE(armOver(client, "retrieve.section=delay:500"));
    const auto wedged =
        askOver(client, "1", suiteQuestions()[0], /*deadline_ms=*/40.0);
    EXPECT_EQ(wedged.terminal, "deadline_exceeded");

    // Disarm over the verb; the same connection serves a clean ask.
    ASSERT_TRUE(armOver(client, "off"));
    const auto clean = askOver(client, "2", suiteQuestions()[0]);
    EXPECT_EQ(clean.terminal, "done");
    EXPECT_FALSE(clean.answer.empty());

    const auto stats = statsOver(client);
    ASSERT_TRUE(stats.has_value());
    EXPECT_GE(str::parseU64(stats->at("deadline_exceeded")).value(), 1u);
    EXPECT_GE(str::parseU64(stats->at("faults_injected")).value(), 1u);
    server.stop();
}

TEST(ChaosTest, ServeDeadlineDegradedAnswerWithinSlack)
{
    FailpointGuard guard;
    ServeOptions opts;
    opts.debug_failpoints = true;
    // Generous slack: the engine degrades at the deadline (partial
    // evidence) and finishes generation well within the slack, so the
    // client gets a degraded done frame, not a hard cut.
    opts.deadline_slack_ms = 4000.0;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));

    ASSERT_TRUE(armOver(client, "retrieve.section=delay:60"));
    const auto r =
        askOver(client, "1", suiteQuestions()[0], /*deadline_ms=*/20.0);
    EXPECT_EQ(r.terminal, "done");
    EXPECT_TRUE(r.degraded);
    EXPECT_FALSE(r.answer.empty());
    server.stop();
}

TEST(ChaosTest, ServeLeaseTimeoutEmitsOverloadedFrame)
{
    FailpointGuard guard;
    ServeOptions opts;
    opts.debug_failpoints = true;
    opts.max_engines_per_key = 1;
    opts.lease_timeout_ms = 150.0;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient armer;
    ASSERT_TRUE(armer.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(armer));
    // Slow retrieval holds the single engine's lease long enough for
    // the second ask's bounded lease wait to expire.
    ASSERT_TRUE(armOver(armer, "retrieve.section=delay:400"));

    std::atomic<bool> holder_done{false};
    std::thread holder([&] {
        LineClient slow;
        if (slow.connect("127.0.0.1", server.port()) &&
            expectHello(slow))
            askOver(slow, "slow", suiteQuestions()[0]);
        holder_done.store(true);
    });
    // Let the holder win the lease race, then queue behind it.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    LineClient queued;
    ASSERT_TRUE(queued.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(queued));
    const auto shed = askOver(queued, "shed", suiteQuestions()[0]);
    EXPECT_EQ(shed.terminal, "overloaded");
    holder.join();
    EXPECT_TRUE(holder_done.load());

    ASSERT_TRUE(armOver(armer, "off"));
    const auto stats = statsOver(armer);
    ASSERT_TRUE(stats.has_value());
    EXPECT_GE(str::parseU64(stats->at("lease_timeouts")).value(), 1u);
    server.stop();
}

TEST(ChaosTest, FailpointsVerbIsForbiddenByDefault)
{
    FailpointGuard guard;
    ServeOptions opts; // debug_failpoints defaults to false
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));
    Request req;
    req.op = Request::Op::Failpoints;
    req.id = "fp";
    req.failpoint_spec = "serve.lease=delay:10";
    ASSERT_TRUE(client.sendLine(renderRequest(req)));
    const auto line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    const auto frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "error");
    EXPECT_EQ(frame->at("code"), "forbidden");
    EXPECT_FALSE(fail::anyArmed());
    server.stop();
}

TEST(ChaosTest, RandomizedFaultScheduleKeepsFramesTyped)
{
    FailpointGuard guard;
    ServeOptions opts;
    opts.debug_failpoints = true;
    opts.deadline_slack_ms = 2000.0;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());
    const auto questions = suiteQuestions();

    // Clean reference answers before any chaos.
    std::vector<std::string> reference;
    {
        LineClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
        ASSERT_TRUE(expectHello(client));
        for (std::size_t i = 0; i < questions.size(); ++i) {
            const auto r = askOver(client, std::to_string(i),
                                   questions[i]);
            ASSERT_EQ(r.terminal, "done");
            reference.push_back(r.answer);
        }
    }

    // Randomized fault rounds: drops on session I/O, delays in
    // retrieval and leasing. Every completed ask must end in a typed
    // terminal frame; asks whose connection was dropped see EOF and
    // that is the allowed non-typed outcome.
    const char *schedules[] = {
        "serve.write=drop@0.15,retrieve.section=delay:15@0.3",
        "serve.read=drop@0.2,serve.lease=delay:30,"
        "retrieve.section=delay:10@0.5",
    };
    for (const char *schedule : schedules) {
        SCOPED_TRACE(schedule);
        ASSERT_TRUE(fail::armSpec(schedule));
        constexpr int kThreads = 4;
        constexpr int kAsksPerThread = 4;
        std::atomic<int> typed{0}, dropped{0};
        std::vector<std::thread> workers;
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                RetryPolicy policy;
                policy.jitter_seed = static_cast<std::uint64_t>(t);
                for (int i = 0; i < kAsksPerThread; ++i) {
                    LineClient client;
                    if (!client.connectRetry("127.0.0.1",
                                             server.port(), policy))
                        continue;
                    if (!expectHello(client)) {
                        dropped.fetch_add(1);
                        continue;
                    }
                    const double deadline =
                        (i % 3 == 0) ? 0.0 : (i % 3 == 1) ? 40.0
                                                          : 400.0;
                    const auto r = askOver(
                        client, std::to_string(t * 100 + i),
                        questions[static_cast<std::size_t>(i) %
                                  questions.size()],
                        deadline);
                    if (r.terminal.empty())
                        dropped.fetch_add(1);
                    else
                        typed.fetch_add(1);
                }
            });
        }
        for (auto &w : workers)
            w.join();
        // Chaos may drop connections, but every surviving ask ended
        // in a typed terminal frame — never a hang or a torn frame.
        EXPECT_EQ(typed.load() + dropped.load(),
                  kThreads * kAsksPerThread);
        fail::disarmAll();
    }
    EXPECT_GE(fail::injectedTotal(), 1u);

    // Faults off: the same questions answer byte-identically to the
    // pre-chaos reference, and the server is fully responsive.
    {
        LineClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
        ASSERT_TRUE(expectHello(client));
        for (std::size_t i = 0; i < questions.size(); ++i) {
            const auto r = askOver(client, "post-" + std::to_string(i),
                                   questions[i]);
            ASSERT_EQ(r.terminal, "done");
            EXPECT_FALSE(r.degraded);
            EXPECT_EQ(r.answer, reference[i]) << "question " << i;
        }
        const auto stats = statsOver(client);
        ASSERT_TRUE(stats.has_value());
        EXPECT_GE(str::parseU64(stats->at("faults_injected")).value(),
                  1u);
    }
    server.stop();
}

// ------------------------------------- pipeline-interior failpoints

TEST(ChaosTest, WorkerPoolTaskFaultSurfacesAsTypedStreamFailure)
{
    // core.worker_pool.task fires as the first statement of the
    // streaming job, inside its try block: the fault must surface as
    // the stream's rethrown failure — exactly what a blocking ask()
    // would have thrown — never a worker-thread terminate.
    FailpointGuard guard;
    auto engine =
        CacheMind::Builder(sharedDb()).build().expect("engine");
    const auto q = suiteQuestions()[0];

    ASSERT_TRUE(fail::armSpec("core.worker_pool.task=error#1"));
    auto stream = engine.askStream(q).expect("stream");
    EXPECT_THROW(stream.wait(), fail::InjectedFault);

    // The budget (#1) is spent and the engine (and its persistent
    // worker) keeps serving.
    auto clean = engine.askStream(q).expect("clean stream");
    auto fresh =
        CacheMind::Builder(sharedDb()).build().expect("fresh");
    EXPECT_EQ(clean.wait().text, fresh.ask(q).expect("reference").text);
}

TEST(ChaosTest, StreamPushFaultSurfacesAsTypedStreamFailure)
{
    // core.stream.push fires in the pipeline's event hand-off before
    // anything is enqueued: the stream fails typed with no torn delta
    // sequence (the consumer sees the failure, not a partial event).
    FailpointGuard guard;
    auto engine =
        CacheMind::Builder(sharedDb()).build().expect("engine");
    const auto q = suiteQuestions()[0];

    ASSERT_TRUE(fail::armSpec("core.stream.push=error#1"));
    auto stream = engine.askStream(q).expect("stream");
    EXPECT_THROW(
        {
            while (stream.next()) {
            }
        },
        fail::InjectedFault);

    fail::disarmAll();
    auto again = engine.askStream(q).expect("again");
    EXPECT_FALSE(again.wait().text.empty());
}

TEST(ChaosTest, ServeReportsPipelineFaultsAsErrorFrames)
{
    // The event hand-off failpoint, exercised through the server: the
    // client gets a typed error frame and the connection (and the
    // engine lease) survives for the next request. The worker-pool
    // site is not on the serve path; its askStream test covers it.
    FailpointGuard guard;
    ServeOptions opts;
    opts.debug_failpoints = true;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));

    ASSERT_TRUE(armOver(client, "core.stream.push=error#1"));
    const auto faulted = askOver(client, "f", suiteQuestions()[0]);
    EXPECT_EQ(faulted.terminal, "error");
    const auto clean = askOver(client, "c", suiteQuestions()[0]);
    EXPECT_EQ(clean.terminal, "done");
    EXPECT_FALSE(clean.answer.empty());
    server.stop();
}

TEST(ChaosTest, ServeWriteFiresOncePerWriteAndADroppedWriteCancels)
{
    // serve.write guards each socket write, not each frame: an answer
    // from a resident bundle crosses it twice. Dropping that answer's
    // first write marks the client dead, so the first delta's push is
    // refused, the ask is cancelled, and the connection closes with
    // none of the answer's frames sent.
    FailpointGuard guard;
    Server server(sharedDb(), ServeOptions{});
    ASSERT_TRUE(server.start());
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));
    const auto question = suiteQuestions()[0];
    ASSERT_EQ(askOver(client, "warm", question).terminal, "done");

    const auto fired = [] {
        const auto sites = fail::injectedBySite();
        const auto it = sites.find("serve.write");
        return it == sites.end() ? std::uint64_t{0} : it->second;
    };
    const std::uint64_t before = fired();
    ASSERT_TRUE(fail::armSpec("serve.write=delay:0"));
    const auto hot = askOver(client, "hot", question);
    fail::disarmAll();
    EXPECT_EQ(hot.terminal, "done");
    EXPECT_GE(hot.kinds.size(), 5u);
    EXPECT_EQ(fired() - before, 2u);

    // The session answers STATS only once the hot ask has finished,
    // so the snapshot after it counts that ask as completed.
    ASSERT_TRUE(statsOver(client).has_value());
    const ServeStats clean = server.stats();
    ASSERT_TRUE(fail::armSpec("serve.write=drop#1"));
    const auto dropped = askOver(client, "dropped", question);
    EXPECT_TRUE(dropped.kinds.empty());
    EXPECT_TRUE(dropped.terminal.empty());
    // The session counted the cancellation before it closed the
    // connection the client saw close.
    const ServeStats after = server.stats();
    EXPECT_EQ(after.cancelled, clean.cancelled + 1);
    EXPECT_EQ(after.engine.stream.cancelled,
              clean.engine.stream.cancelled + 1);
    EXPECT_EQ(after.completed, clean.completed);
    server.stop();
}

// ------------------------------------------------- trace attribution

TEST(ChaosTest, DegradedAndDeadlineTracesNameTheFailingStage)
{
    // The acceptance bar for trace-guided debugging: every degraded
    // or deadline_exceeded trace must say WHICH stage the deadline
    // landed in, so a "bad" trace pulled off the store is actionable.
    FailpointGuard guard;
    obs::TraceStore::instance().clear();
    ServeOptions opts;
    opts.debug_failpoints = true;
    opts.deadline_slack_ms = 4000.0;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));

    // Degraded within slack: the engine truncates retrieval at the
    // deadline and answers from partial evidence.
    ASSERT_TRUE(armOver(client, "retrieve.section=delay:60"));
    Request req;
    req.op = Request::Op::Ask;
    req.id = "1";
    req.question = suiteQuestions()[0];
    req.request_id = "req-degraded";
    req.deadline_ms = 20.0;
    ASSERT_TRUE(client.sendLine(renderRequest(req)));
    for (;;) {
        const auto line = client.recvLine();
        ASSERT_TRUE(line.has_value());
        const auto frame = parseJsonObject(*line);
        ASSERT_TRUE(frame.has_value());
        const auto kind = frame->at("frame");
        if (kind == "done" || kind == "error" ||
            kind == "deadline_exceeded")
            break;
    }
    ASSERT_TRUE(armOver(client, "off"));

    const auto degraded =
        obs::TraceStore::instance().byRequestId("req-degraded");
    ASSERT_NE(degraded, nullptr);
    EXPECT_EQ(degraded->outcome(), "degraded");
    bool named_stage = false;
    for (const auto &span : degraded->spans()) {
        for (const auto &note : span.notes)
            if (note.key == "deadline_expired_in")
                named_stage = note.value == "retrieve";
    }
    EXPECT_TRUE(named_stage);

    // Hard cut past deadline + slack: the serve layer's trace names
    // the stage the pipeline was wedged in when the cut fired.
    server.stop();
    opts.deadline_slack_ms = 100.0;
    Server strict(sharedDb(), opts);
    ASSERT_TRUE(strict.start());
    LineClient cut;
    ASSERT_TRUE(cut.connect("127.0.0.1", strict.port()));
    ASSERT_TRUE(expectHello(cut));
    ASSERT_TRUE(armOver(cut, "retrieve.section=delay:500"));
    req.id = "2";
    req.request_id = "req-cut";
    req.deadline_ms = 40.0;
    ASSERT_TRUE(cut.sendLine(renderRequest(req)));
    std::string terminal;
    while (terminal.empty()) {
        const auto line = cut.recvLine();
        ASSERT_TRUE(line.has_value());
        const auto frame = parseJsonObject(*line);
        ASSERT_TRUE(frame.has_value());
        const auto kind = frame->at("frame");
        if (kind == "done" || kind == "error" ||
            kind == "deadline_exceeded")
            terminal = kind;
    }
    EXPECT_EQ(terminal, "deadline_exceeded");

    const auto wedged =
        obs::TraceStore::instance().byRequestId("req-cut");
    ASSERT_NE(wedged, nullptr);
    EXPECT_EQ(wedged->outcome(), "deadline_exceeded");
    std::string stage;
    for (const auto &span : wedged->spans()) {
        if (span.name != "serve.ask")
            continue;
        for (const auto &note : span.notes)
            if (note.key == "deadline_exceeded_in")
                stage = note.value;
    }
    EXPECT_FALSE(stage.empty());
    // The wedge is in retrieval (sections sleep 500 ms each), so the
    // cut must attribute it there, not shrug.
    EXPECT_EQ(stage, "retrieve");

    // And the trace verb's "bad" filter surfaces both traces.
    Request fetch;
    fetch.op = Request::Op::Trace;
    fetch.id = "3";
    fetch.trace_last = 8;
    fetch.trace_filter = "bad";
    ASSERT_TRUE(cut.sendLine(renderRequest(fetch)));
    const auto line = cut.recvLine();
    ASSERT_TRUE(line.has_value());
    const auto frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "trace");
    EXPECT_GE(str::parseU64(frame->at("found")).value(), 2u);
    EXPECT_NE(frame->at("traces").find("req-degraded"),
              std::string::npos);
    EXPECT_NE(frame->at("traces").find("req-cut"), std::string::npos);
    strict.stop();
}
