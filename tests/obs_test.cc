/**
 * @file
 * Tests for the observability subsystem (obs/): RequestTrace span
 * trees, the TraceStore ring buffer, the Chrome/text exporters, and
 * the engine's per-request tracing — span-tree completeness, one span
 * tree for a blocking and a streamed ask of the same question,
 * byte-identical answers traced vs untraced, and the EngineStats.trace
 * aggregates.
 */

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "base/str.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "obs/trace.hh"
#include "obs/trace_export.hh"

using namespace cachemind;
using namespace cachemind::core;
using namespace cachemind::obs;

namespace {

const db::TraceDatabase &
sharedDb()
{
    static const db::TraceDatabase database = [] {
        db::BuildOptions options;
        options.workloads = {trace::WorkloadKind::Astar};
        options.policies = {policy::PolicyKind::Lru,
                            policy::PolicyKind::Belady};
        options.accesses_override = 50000;
        return db::buildDatabase(options);
    }();
    return database;
}

CacheMind
defaultEngine()
{
    return CacheMind::Builder(sharedDb()).build().expect("engine");
}

std::string
hotQuestion()
{
    return "Which policy has the lowest miss rate in the astar "
           "workload?";
}

/** First span with this name, or nullptr. */
const TraceSpan *
findSpan(const std::vector<TraceSpan> &spans, const std::string &name)
{
    for (const TraceSpan &span : spans) {
        if (span.name == name)
            return &span;
    }
    return nullptr;
}

/** Value of a span's annotation, or "". */
std::string
noteValue(const TraceSpan &span, const std::string &key)
{
    for (const Annotation &note : span.notes) {
        if (note.key == key)
            return note.value;
    }
    return "";
}

} // namespace

// ------------------------------------------------------ RequestTrace

TEST(TraceTest, SpanLifecycleAndAnnotations)
{
    RequestTrace trace("req-1");
    EXPECT_EQ(trace.requestId(), "req-1");
    EXPECT_EQ(trace.outcome(), "");

    const auto root = trace.beginSpan(0, "ask");
    const auto child = trace.beginSpan(root, "retrieve");
    trace.annotate(child, "cache", "hot_hit");
    trace.endSpan(child);
    trace.endSpan(root);
    trace.setOutcome("done");

    const auto spans = trace.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].id, root);
    EXPECT_EQ(spans[0].parent, 0u);
    EXPECT_EQ(spans[0].name, "ask");
    EXPECT_NE(spans[0].end_ns, 0u);
    EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
    EXPECT_EQ(spans[1].parent, root);
    ASSERT_EQ(spans[1].notes.size(), 1u);
    EXPECT_EQ(spans[1].notes[0].key, "cache");
    EXPECT_EQ(spans[1].notes[0].value, "hot_hit");
    EXPECT_EQ(trace.spanName(root), "ask");
    EXPECT_EQ(trace.spanName(0), "");
    EXPECT_EQ(trace.outcome(), "done");
}

TEST(TraceTest, AddSpanRecordsCompleteSpan)
{
    RequestTrace trace("req-add");
    const auto id = trace.addSpan(0, "section:overview", 100, 250);
    ASSERT_NE(id, 0u);
    const auto spans = trace.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].start_ns, 100u);
    EXPECT_EQ(spans[0].end_ns, 250u);
}

TEST(TraceTest, SpanCapCountsDropped)
{
    RequestTrace trace("req-full");
    for (std::size_t i = 0; i < RequestTrace::kMaxSpans + 10; ++i)
        trace.beginSpan(0, "s");
    EXPECT_EQ(trace.spans().size(), RequestTrace::kMaxSpans);
    EXPECT_EQ(trace.dropped(), 10u);
    // Ids past the cap are 0 and every operation on them is a no-op.
    EXPECT_EQ(trace.beginSpan(0, "late"), 0u);
    trace.endSpan(0);
    trace.annotate(0, "k", "v");
}

TEST(TraceTest, UntracedContextIsInertAndCheap)
{
    const TraceContext tc;
    EXPECT_FALSE(tc);
    EXPECT_EQ(tc.begin("ask"), 0u);
    tc.end(0);
    tc.annotate(0, "k", "v");
    tc.note("k", "v");
    SpanScope scope(tc, "ask");
    EXPECT_EQ(scope.id(), 0u);
    scope.annotate("k", "v");
    scope.end();
}

TEST(TraceTest, ConcurrentSpanHammer)
{
    // 8 threads begin/end/annotate against one trace; the TSan CI job
    // runs this to prove the serve-session/pipeline-worker sharing is
    // race-free. Bookkeeping must balance: every begin either landed
    // as a span or was counted dropped.
    RequestTrace trace("req-hammer");
    constexpr int kThreads = 8;
    constexpr int kOps = 200;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&trace, t] {
            for (int i = 0; i < kOps; ++i) {
                const auto id = trace.beginSpan(
                    0, "t" + std::to_string(t));
                trace.annotate(id, "i", std::to_string(i));
                trace.spanName(id);
                trace.endSpan(id);
                (void)trace.spans();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(trace.spans().size() + trace.dropped(),
              static_cast<std::size_t>(kThreads) * kOps);
}

// -------------------------------------------------------- TraceStore

namespace {

std::shared_ptr<const RequestTrace>
finishedTrace(const std::string &id, const std::string &outcome)
{
    auto trace = std::make_shared<RequestTrace>(id);
    const auto root = trace->beginSpan(0, "serve.ask");
    trace->endSpan(root);
    trace->setOutcome(outcome);
    return trace;
}

} // namespace

TEST(TraceStoreTest, RecordByIdRecentFilterAndCapacity)
{
    TraceStore &store = TraceStore::instance();
    store.clear();
    store.setCapacity(4);

    store.record(finishedTrace("a", "done"));
    store.record(finishedTrace("b", "degraded"));
    store.record(finishedTrace("c", "deadline_exceeded"));
    store.record(finishedTrace("d", "error"));
    store.record(finishedTrace("e", "done"));

    // Capacity 4: "a" was trimmed.
    EXPECT_EQ(store.byRequestId("a"), nullptr);
    ASSERT_NE(store.byRequestId("b"), nullptr);
    EXPECT_EQ(store.byRequestId("b")->outcome(), "degraded");

    // recent() is newest-first.
    const auto all = store.recent(10);
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0]->requestId(), "e");
    EXPECT_EQ(all[3]->requestId(), "b");

    // "bad" matches degraded, deadline_exceeded, and error.
    const auto bad = store.recent(10, "bad");
    ASSERT_EQ(bad.size(), 3u);
    EXPECT_EQ(bad[0]->requestId(), "d");
    EXPECT_EQ(bad[2]->requestId(), "b");

    // Exact outcome filter.
    const auto done = store.recent(10, "done");
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0]->requestId(), "e");

    EXPECT_GE(store.recorded(), 5u);
    store.clear();
    EXPECT_TRUE(store.recent(10).empty());
    store.setCapacity(64);
}

TEST(TraceStoreTest, ConcurrentRecordAndRead)
{
    TraceStore &store = TraceStore::instance();
    store.clear();
    store.setCapacity(32);
    constexpr int kThreads = 8;
    constexpr int kOps = 100;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, t] {
            for (int i = 0; i < kOps; ++i) {
                store.record(finishedTrace(
                    "t" + std::to_string(t) + "-" + std::to_string(i),
                    i % 3 == 0 ? "degraded" : "done"));
                (void)store.recent(8, "bad");
                (void)store.byRequestId("t0-0");
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_GE(store.recorded(),
              static_cast<std::uint64_t>(kThreads) * kOps);
    EXPECT_LE(store.recent(64).size(), 32u);
    store.clear();
    store.setCapacity(64);
}

// ----------------------------------------------------------- export

TEST(TraceExportTest, ChromeJsonSchema)
{
    RequestTrace trace("req-json \"quoted\"");
    const auto root = trace.beginSpan(0, "ask");
    const auto child = trace.beginSpan(root, "retrieve");
    trace.annotate(child, "cache", "hot_hit");
    trace.endSpan(child);
    trace.endSpan(root);
    trace.setOutcome("done");

    const std::string json = toChromeJson(trace);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"ask\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"retrieve\""), std::string::npos);
    EXPECT_NE(json.find("\"cache\":\"hot_hit\""), std::string::npos);
    EXPECT_NE(json.find("\"outcome\":\"done\""), std::string::npos);
    // The request id is escaped, never embedded raw.
    EXPECT_NE(json.find("req-json \\\"quoted\\\""), std::string::npos);
}

TEST(TraceExportTest, TextTreeShapeAndTiming)
{
    RequestTrace trace("req-text");
    const auto root = trace.beginSpan(0, "ask");
    const auto child = trace.beginSpan(root, "retrieve");
    trace.annotate(child, "cache", "miss");
    trace.endSpan(child);
    trace.endSpan(root);
    trace.setOutcome("done");

    const std::string timed = toText(trace);
    EXPECT_NE(timed.find("[req-text outcome=done]"), std::string::npos);
    EXPECT_NE(timed.find("ask ("), std::string::npos);
    EXPECT_NE(timed.find("  retrieve ("), std::string::npos);
    EXPECT_NE(timed.find("cache=miss"), std::string::npos);

    const std::string shape = toText(trace, false);
    EXPECT_NE(shape.find("ask\n"), std::string::npos);
    EXPECT_NE(shape.find("  retrieve cache=miss"), std::string::npos);
    EXPECT_EQ(shape.find("ms)"), std::string::npos);
}

TEST(TraceExportTest, ExportToDirWritesChromeJson)
{
    const std::string dir = "obs_export_test_dir";
    ::mkdir(dir.c_str(), 0755);

    RequestTrace trace("req/42:slash");
    const auto root = trace.beginSpan(0, "ask");
    trace.endSpan(root);
    trace.setOutcome("done");

    std::string path, error;
    ASSERT_TRUE(exportToDir(trace, dir, &path, &error)) << error;
    // The request id is sanitized into the file name.
    EXPECT_EQ(path.find('/'), dir.size());
    EXPECT_EQ(path.rfind(".json"), path.size() - 5);

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[512] = {};
    const auto n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    ASSERT_GT(n, 0u);
    EXPECT_NE(std::string(buf).find("traceEvents"), std::string::npos);
    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

TEST(TraceExportTest, TraceStoreExportsWhenDirSet)
{
    const std::string dir = "obs_store_export_dir";
    ::mkdir(dir.c_str(), 0755);
    TraceStore &store = TraceStore::instance();
    store.clear();
    const auto before = store.exported();
    store.setExportDir(dir);
    store.record(finishedTrace("exported-req", "done"));
    store.setExportDir("");
    EXPECT_EQ(store.exported(), before + 1);
    // Disabled again: recording is ring-only.
    store.record(finishedTrace("not-exported", "done"));
    EXPECT_EQ(store.exported(), before + 1);

    // Clean up whatever file the store wrote.
    const auto recent = store.recent(2);
    store.clear();
    ::system(("rm -rf " + dir).c_str());
}

// ------------------------------------------------- engine integration

TEST(EngineTraceTest, TracedAskProducesCompleteSpanTree)
{
    auto engine = defaultEngine();
    RequestContext ctx(hotQuestion());
    ctx.withRequestId("req-tree").traced();
    ASSERT_TRUE(engine.ask(ctx).ok());

    const auto spans = ctx.trace->spans();
    const TraceSpan *ask = findSpan(spans, "ask");
    const TraceSpan *parse = findSpan(spans, "parse");
    const TraceSpan *plan = findSpan(spans, "plan");
    const TraceSpan *retrieve = findSpan(spans, "retrieve");
    const TraceSpan *generate = findSpan(spans, "generate");
    ASSERT_NE(ask, nullptr);
    ASSERT_NE(parse, nullptr);
    ASSERT_NE(plan, nullptr);
    ASSERT_NE(retrieve, nullptr);
    ASSERT_NE(generate, nullptr);

    // Stage spans nest under the root ask span, closed in order.
    EXPECT_EQ(parse->parent, ask->id);
    EXPECT_EQ(plan->parent, ask->id);
    EXPECT_EQ(retrieve->parent, ask->id);
    EXPECT_EQ(generate->parent, ask->id);
    for (const TraceSpan *span : {ask, parse, plan, retrieve, generate})
        EXPECT_NE(span->end_ns, 0u) << span->name;

    // The retrieve span names its cache-tier outcome and holds at
    // least one section child span.
    EXPECT_EQ(noteValue(*retrieve, "cache"), "miss");
    std::size_t sections = 0;
    for (const TraceSpan &span : spans) {
        if (span.parent == retrieve->id &&
            span.name.rfind("section:", 0) == 0)
            ++sections;
    }
    EXPECT_GE(sections, 1u);
    EXPECT_EQ(ctx.trace->outcome(), "done");

    // Same question again: a hot hit, named as such.
    RequestContext again(hotQuestion());
    again.withRequestId("req-tree-2").traced();
    ASSERT_TRUE(engine.ask(again).ok());
    const auto spans2 = again.trace->spans();
    const TraceSpan *retrieve2 = findSpan(spans2, "retrieve");
    ASSERT_NE(retrieve2, nullptr);
    EXPECT_EQ(noteValue(*retrieve2, "cache"), "hot_hit");
    const TraceSpan *hit = findSpan(spans2, "section:hot_hit");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->parent, retrieve2->id);
}

TEST(EngineTraceTest, AnswersByteIdenticalTracedVsUntraced)
{
    // Tracing must never change a byte of output: compare a plain
    // engine against one answering the same questions fully traced,
    // across both the blocking and streaming entry points.
    auto plain = defaultEngine();
    auto traced = defaultEngine();
    const std::vector<std::string> questions = {
        hotQuestion(),
        "Why does Belady outperform LRU in the astar workload?",
        "What is a compulsory miss?",
    };
    for (const auto &question : questions) {
        const auto expect = plain.ask(question).expect("plain ask");
        RequestContext ctx(question);
        ctx.traced();
        const auto got = traced.ask(ctx).expect("traced ask");
        EXPECT_EQ(got.text, expect.text);
        EXPECT_EQ(got.bundle.trace_key, expect.bundle.trace_key);
        EXPECT_EQ(got.bundle.total_matches, expect.bundle.total_matches);

        RequestContext sctx(question);
        sctx.traced();
        auto stream = traced.askStream(sctx).expect("traced stream");
        EXPECT_EQ(stream.wait().text, expect.text);
    }
}

TEST(EngineTraceTest, BlockingAndStreamedAsksRecordOneSpanTree)
{
    // One pipeline behind both entry points: a traced ask() and a
    // traced askStream() of the same question on twin engines record
    // the same span tree — names, nesting, annotations — with the
    // cache off, and with it on for a miss and then a hit.
    const std::string pc =
        str::hex(sharedDb().find("astar_evictions_lru")->table.pcAt(0));
    const std::vector<std::string> questions = {
        hotQuestion(),
        "Why does Belady outperform LRU in the astar workload?",
        "What is the miss rate for PC " + pc +
            " in the astar workload with LRU?",
        "What is a compulsory miss?",
    };
    for (const char *retriever : {"sieve", "ranger", "llamaindex"}) {
        for (const std::size_t capacity : {0, 1024}) {
            const auto twin = [&] {
                return CacheMind::Builder(sharedDb())
                    .withRetriever(retriever)
                    .withRetrievalCacheCapacity(capacity)
                    .build()
                    .expect("engine");
            };
            auto blocking = twin();
            auto streaming = twin();
            for (int round = 0; round < 2; ++round) {
                for (const auto &question : questions) {
                    SCOPED_TRACE(std::string(retriever) + " cache=" +
                                 std::to_string(capacity) + " round=" +
                                 std::to_string(round) + " " + question);
                    RequestContext asked(question);
                    asked.traced("req");
                    ASSERT_TRUE(blocking.ask(asked).ok());
                    RequestContext streamed(question);
                    streamed.traced("req");
                    streaming.askStream(streamed).expect("stream").wait();
                    EXPECT_EQ(toText(*streamed.trace, false),
                              toText(*asked.trace, false));
                }
            }
        }
    }
}

TEST(EngineTraceTest, StreamEventsCarryStageSpans)
{
    auto engine = defaultEngine();
    RequestContext ctx(hotQuestion());
    ctx.withRequestId("req-stream").traced();
    auto stream = engine.askStream(ctx).expect("stream");

    bool saw_section = false;
    while (auto event = stream.next()) {
        ASSERT_NE(event->span, 0u)
            << "traced stream event without a span";
        const std::string name = ctx.trace->spanName(event->span);
        switch (event->kind) {
          case StreamEvent::Kind::Parsed:
            EXPECT_EQ(name, "parse");
            break;
          case StreamEvent::Kind::Planned:
            EXPECT_EQ(name, "plan");
            break;
          case StreamEvent::Kind::EvidenceChunk:
            EXPECT_EQ(name.rfind("section:", 0), 0u) << name;
            saw_section = true;
            break;
          case StreamEvent::Kind::AnswerDelta:
            EXPECT_EQ(name, "generate");
            break;
          case StreamEvent::Kind::Done:
            EXPECT_EQ(name, "ask");
            break;
        }
    }
    EXPECT_TRUE(saw_section);

    // Untraced streams carry span id 0 on every event.
    auto bare = engine.askStream(hotQuestion()).expect("bare stream");
    while (auto event = bare.next())
        EXPECT_EQ(event->span, 0u);
}

TEST(EngineTraceTest, StatsAggregateTracedRequests)
{
    auto engine = defaultEngine();
    for (int i = 0; i < 3; ++i) {
        RequestContext ctx(hotQuestion());
        ctx.traced();
        ASSERT_TRUE(engine.ask(ctx).ok());
    }
    // Untraced asks contribute nothing to the trace aggregates.
    ASSERT_TRUE(engine.ask(hotQuestion()).ok());

    const auto stats = engine.stats();
    EXPECT_EQ(stats.trace.traced, 3u);
    EXPECT_EQ(stats.trace.slowest_parse + stats.trace.slowest_plan +
                  stats.trace.slowest_retrieve +
                  stats.trace.slowest_generate,
              3u);
    EXPECT_GE(stats.trace.retrieve_p90_ms, 0.0);
    EXPECT_GE(stats.trace.generate_p50_ms, 0.0);
}

TEST(EngineTraceTest, RequestContextTracedDefaultsId)
{
    RequestContext ctx("what is a miss?");
    ctx.traced();
    ASSERT_NE(ctx.trace, nullptr);
    EXPECT_EQ(ctx.trace->requestId(), "what is a miss?");

    RequestContext with_id("what is a miss?");
    with_id.withRequestId("req-9").traced();
    EXPECT_EQ(with_id.trace->requestId(), "req-9");
}
