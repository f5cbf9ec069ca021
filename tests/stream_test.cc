/**
 * @file
 * Tests for the async streaming answer subsystem: the bounded MPSC
 * StreamChannel (ordering, backpressure, cancellation, and a
 * TSan-covered many-producer hammer), delta splitting, and the
 * askStream pipeline — event ordering, byte-identity of the terminal
 * Done answer with blocking ask() across all three retrievers with
 * the retrieval cache on and off, evidence streaming on cache hits, a
 * paused stream never blocking a blocking ask() on the same cache
 * key, the streaming statistics counters, and the push-style
 * ask(ctx, sink) — the same events as askStream, a consumer that goes
 * away unwinding the run as cancelled, a paused sink never blocking a
 * blocking ask() on the same key, and the flush points a batching
 * sink is given. Also pins the cached evidence chunk: a resident
 * bundle's render, kept once and shared by concurrent hits, which a
 * copied or assigned bundle never carries.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "base/str.hh"
#include "core/cachemind.hh"
#include "core/stream.hh"
#include "db/builder.hh"
#include "llm/generator.hh"
#include "retrieval/cache.hh"
#include "retrieval/registry.hh"

using namespace cachemind;
using namespace cachemind::core;

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

/** A spread of intents exercising retrieval, stats, and reasoning. */
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

CacheMind
engineWith(const std::string &retriever, std::size_t cache_capacity)
{
    return CacheMind::Builder(sharedDb())
        .withRetriever(retriever)
        .withRetrievalCacheCapacity(cache_capacity)
        .build()
        .expect("stream test engine");
}

/** Drain a stream, returning every event in arrival order. */
std::vector<StreamEvent>
drain(AnswerStream &stream)
{
    std::vector<StreamEvent> events;
    while (auto event = stream.next())
        events.push_back(std::move(*event));
    return events;
}

} // namespace

// ---------------------------------------------------------------- channel

TEST(StreamChannelTest, DeliversEventsInOrder)
{
    StreamChannel channel(8);
    for (std::size_t i = 0; i < 5; ++i) {
        StreamEvent event;
        event.kind = StreamEvent::Kind::AnswerDelta;
        event.text = std::to_string(i);
        ASSERT_TRUE(channel.push(std::move(event)));
    }
    channel.close();
    for (std::size_t i = 0; i < 5; ++i) {
        auto event = channel.pop();
        ASSERT_TRUE(event.has_value());
        EXPECT_EQ(event->text, std::to_string(i));
    }
    EXPECT_FALSE(channel.pop().has_value());
    EXPECT_TRUE(channel.closed());
}

TEST(StreamChannelTest, BackpressureBoundsTheBufferAndLosesNothing)
{
    constexpr std::size_t kEvents = 500;
    StreamChannel channel(2);
    std::thread producer([&] {
        for (std::size_t i = 0; i < kEvents; ++i) {
            StreamEvent event;
            event.kind = StreamEvent::Kind::AnswerDelta;
            event.text = std::to_string(i);
            ASSERT_TRUE(channel.push(std::move(event)));
        }
        channel.close();
    });
    std::size_t received = 0;
    while (auto event = channel.pop()) {
        EXPECT_EQ(event->text, std::to_string(received));
        ++received;
    }
    producer.join();
    EXPECT_EQ(received, kEvents);
    EXPECT_EQ(channel.pushed(), kEvents);
}

TEST(StreamChannelTest, ManyProducerHammer)
{
    // TSan-covered: N producers racing into a tiny buffer against one
    // consumer, closed once every producer has finished.
    constexpr std::size_t kProducers = 8;
    constexpr std::size_t kPerProducer = 200;
    StreamChannel channel(4);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (std::size_t i = 0; i < kPerProducer; ++i) {
                StreamEvent event;
                event.kind = StreamEvent::Kind::EvidenceChunk;
                event.label = std::to_string(p);
                event.text = std::to_string(i);
                ASSERT_TRUE(channel.push(std::move(event)));
            }
        });
    }
    std::thread closer([&] {
        for (auto &t : producers)
            t.join();
        channel.close();
    });
    std::map<std::string, std::size_t> next_per_producer;
    std::size_t received = 0;
    while (auto event = channel.pop()) {
        // Per-producer FIFO: each producer's events arrive in the
        // order it pushed them, whatever the interleaving.
        EXPECT_EQ(std::stoul(event->text),
                  next_per_producer[event->label]++);
        ++received;
    }
    closer.join();
    EXPECT_EQ(received, kProducers * kPerProducer);
    EXPECT_TRUE(channel.closed());
}

TEST(StreamChannelTest, TryPopNeverBlocks)
{
    StreamChannel channel(4);
    EXPECT_FALSE(channel.tryPop().has_value());
    StreamEvent event;
    event.kind = StreamEvent::Kind::Planned;
    event.cache_key = "k";
    ASSERT_TRUE(channel.push(std::move(event)));
    auto popped = channel.tryPop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->cache_key, "k");
    EXPECT_FALSE(channel.tryPop().has_value());
    channel.close();
}

TEST(StreamChannelTest, ExplicitCloseDrainsThenRefusesPushes)
{
    StreamChannel channel(4);
    StreamEvent event;
    event.kind = StreamEvent::Kind::AnswerDelta;
    event.text = "buffered";
    ASSERT_TRUE(channel.push(std::move(event)));
    channel.close();
    EXPECT_TRUE(channel.closed());
    // Buffered events drain after close; new pushes are refused.
    EXPECT_FALSE(channel.push(StreamEvent{}));
    auto popped = channel.pop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->text, "buffered");
    EXPECT_FALSE(channel.pop().has_value());
}

TEST(StreamChannelTest, KindNamesAreStable)
{
    EXPECT_STREQ(streamEventKindName(StreamEvent::Kind::Parsed),
                 "parsed");
    EXPECT_STREQ(streamEventKindName(StreamEvent::Kind::Planned),
                 "planned");
    EXPECT_STREQ(
        streamEventKindName(StreamEvent::Kind::EvidenceChunk),
        "evidence");
    EXPECT_STREQ(streamEventKindName(StreamEvent::Kind::AnswerDelta),
                 "delta");
    EXPECT_STREQ(streamEventKindName(StreamEvent::Kind::Done),
                 "done");
}

TEST(StreamChannelTest, CancelUnblocksAndDropsProducers)
{
    StreamChannel channel(1);
    std::atomic<int> accepted{0};
    std::atomic<int> rejected{0};
    std::thread producer([&] {
        for (std::size_t i = 0; i < 50; ++i) {
            StreamEvent event;
            if (channel.push(std::move(event)))
                ++accepted;
            else
                ++rejected;
        }
        channel.close();
    });
    // Consume one event, then walk away: the producer must not block
    // on the full buffer forever.
    ASSERT_TRUE(channel.pop().has_value());
    channel.cancel();
    producer.join();
    EXPECT_GT(rejected.load(), 0);
    EXPECT_FALSE(channel.pop().has_value());
}

TEST(StreamDeltaTest, SplitAnswerDeltasIsLossless)
{
    const std::vector<std::string> cases = {
        "",
        "short",
        "A sentence that is longer than one fragment target and "
        "therefore must be split into several streamed deltas, each "
        "breaking after whitespace so words stay intact.",
        std::string(500, 'x'), // no break points at all
        "prefix " + std::string(150, 'y') + " suffix",
        "trailing space ",
    };
    for (const auto &text : cases) {
        const auto deltas = llm::splitAnswerDeltas(text);
        std::string joined;
        for (const auto &delta : deltas) {
            EXPECT_FALSE(delta.empty());
            // Fragments never exceed twice the target size, even
            // with no whitespace break points at all.
            EXPECT_LE(delta.size(), 96u);
            joined += delta;
        }
        EXPECT_EQ(joined, text);
        if (text.empty()) {
            EXPECT_TRUE(deltas.empty());
        }
    }
}

TEST(StreamCacheTest, PeekAndPublishPopulateWithoutBlocking)
{
    // The streaming pipeline's cache protocol: peek never waits on an
    // in-flight computation, publish inserts a finished bundle, and a
    // later peek serves it.
    retrieval::RetrievalCache cache(retrieval::RetrievalCache::Options{4});
    retrieval::RetrievalCache::Outcome outcome;
    EXPECT_EQ(cache.peek("k", &outcome), nullptr);
    EXPECT_FALSE(outcome.hit);

    auto bundle = std::make_shared<const retrieval::ContextBundle>();
    cache.publish("k", bundle, &outcome);
    EXPECT_EQ(outcome.evictions, 0u);
    EXPECT_EQ(cache.size(), 1u);

    auto hit = cache.peek("k", &outcome);
    EXPECT_EQ(hit, bundle);
    EXPECT_TRUE(outcome.hit);

    // Re-publishing an existing key is a no-op (first copy wins).
    cache.publish("k",
                  std::make_shared<const retrieval::ContextBundle>(),
                  &outcome);
    EXPECT_EQ(cache.peek("k", &outcome), bundle);

    // Publishing past capacity evicts the hot tier's oldest entries
    // (with no secondary tier configured, displaced bundles are
    // dropped); the entry budget holds exactly.
    for (int i = 0; i < 8; ++i) {
        cache.publish("fill" + std::to_string(i),
                      std::make_shared<
                          const retrieval::ContextBundle>(),
                      &outcome);
    }
    EXPECT_LE(cache.size(), 4u);
    const auto counters = cache.counters();
    EXPECT_GT(counters.evictions, 0u);
}

// --------------------------------------------------------------- pipeline

TEST(AskStreamTest, EventsArriveInPipelineOrder)
{
    auto engine = engineWith("sieve", 1024);
    const auto questions = suiteQuestions();
    auto stream =
        engine.askStream(questions[0]).expect("stream");
    const auto events = drain(stream);

    ASSERT_GE(events.size(), 5u);
    EXPECT_EQ(events.front().kind, StreamEvent::Kind::Parsed);
    EXPECT_EQ(events.front().parsed.raw, questions[0]);
    EXPECT_EQ(events[1].kind, StreamEvent::Kind::Planned);
    EXPECT_FALSE(events[1].cache_key.empty());
    EXPECT_EQ(events.back().kind, StreamEvent::Kind::Done);
    ASSERT_NE(events.back().response, nullptr);

    // Phases are contiguous: evidence never arrives after the first
    // answer delta, and nothing follows Done.
    std::size_t first_delta = events.size();
    std::size_t last_chunk = 0;
    std::size_t chunks = 0;
    std::size_t deltas = 0;
    std::string joined_deltas;
    for (std::size_t i = 2; i + 1 < events.size(); ++i) {
        if (events[i].kind == StreamEvent::Kind::EvidenceChunk) {
            last_chunk = i;
            ++chunks;
        } else if (events[i].kind == StreamEvent::Kind::AnswerDelta) {
            first_delta = std::min(first_delta, i);
            ++deltas;
            joined_deltas += events[i].text;
        } else {
            FAIL() << "unexpected mid-stream event kind";
        }
    }
    EXPECT_GE(chunks, 1u);
    EXPECT_GE(deltas, 1u);
    EXPECT_LT(last_chunk, first_delta);
    // Streamed deltas reassemble into exactly the final answer text.
    EXPECT_EQ(joined_deltas, events.back().response->text);
}

TEST(AskStreamTest, DoneIsByteIdenticalToBlockingAsk)
{
    // The streaming pipeline must change *when* evidence and text
    // become visible, never *what* is answered: pinned across all
    // three retrievers, with the retrieval cache on and off.
    const auto questions = suiteQuestions();
    for (const std::string retriever :
         {"sieve", "ranger", "llamaindex"}) {
        for (const std::size_t capacity : {0, 1024}) {
            auto blocking = engineWith(retriever, capacity);
            auto streaming = engineWith(retriever, capacity);
            for (const auto &question : questions) {
                auto expected = blocking.ask(question);
                ASSERT_TRUE(expected.ok());
                auto stream = streaming.askStream(question)
                                  .expect("askStream");
                const Response got = stream.wait();
                const auto &want = expected.value();
                EXPECT_EQ(got.text, want.text)
                    << retriever << " cache=" << capacity << " "
                    << question;
                EXPECT_EQ(got.bundle.render(), want.bundle.render());
                EXPECT_EQ(got.answer.says_hit, want.answer.says_hit);
                EXPECT_EQ(got.answer.number, want.answer.number);
                EXPECT_EQ(got.answer.chosen_policy,
                          want.answer.chosen_policy);
                EXPECT_EQ(got.answer.listed_values,
                          want.answer.listed_values);
                EXPECT_EQ(got.answer.rejected_premise,
                          want.answer.rejected_premise);
            }
        }
    }
}

TEST(AskStreamTest, CacheHitStillStreamsEvidence)
{
    auto engine = engineWith("sieve", 1024);
    const auto questions = suiteQuestions();

    auto first = engine.askStream(questions[0]).expect("cold stream");
    const Response cold = first.wait();

    auto second = engine.askStream(questions[0]).expect("hot stream");
    std::size_t chunks = 0;
    bool saw_cached_label = false;
    Response hot;
    while (auto event = second.next()) {
        if (event->kind == StreamEvent::Kind::EvidenceChunk) {
            ++chunks;
            saw_cached_label |= event->label == "cached";
        }
        if (event->kind == StreamEvent::Kind::Done)
            hot = *event->response;
    }
    // The retriever never ran (shared-cache hit), yet evidence still
    // streamed — as the single pre-assembled bundle chunk.
    EXPECT_GE(chunks, 1u);
    EXPECT_TRUE(saw_cached_label);
    EXPECT_EQ(hot.text, cold.text);
    EXPECT_EQ(hot.bundle.render(), cold.bundle.render());
    const auto stats = engine.stats();
    EXPECT_GE(stats.cache.hits, 1u);
}

TEST(AskStreamTest, RejectsEmptyQuestion)
{
    auto engine = engineWith("sieve", 0);
    auto result = engine.askStream("   ");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, EngineErrorCode::EmptyQuestion);
}

TEST(AskStreamTest, AbandoningAStreamMidFlightIsSafe)
{
    auto engine = engineWith("sieve", 0);
    const auto questions = suiteQuestions();
    {
        auto stream =
            engine.askStream(questions[0]).expect("abandoned");
        auto first = stream.next();
        ASSERT_TRUE(first.has_value());
        // Dropping the handle here cancels the channel and joins the
        // worker; a tiny buffer would otherwise leave it blocked.
    }
    // The engine remains fully usable afterwards.
    auto result = engine.ask(questions[0]);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result.value().text.empty());
}

TEST(AskStreamTest, WaitAfterNextReturnsTheSameResponse)
{
    auto engine = engineWith("sieve", 0);
    const auto questions = suiteQuestions();
    auto stream = engine.askStream(questions[1]).expect("stream");
    auto first = stream.next();
    ASSERT_TRUE(first.has_value());
    const Response r1 = stream.wait();
    EXPECT_TRUE(stream.done());
    const Response r2 = stream.wait();
    EXPECT_EQ(r1.text, r2.text);
}

TEST(AskStreamTest, StreamBufferKnobIsValidated)
{
    auto result =
        CacheMind::Builder(sharedDb()).withStreamBuffer(0).build();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, EngineErrorCode::InvalidOptions);
}

TEST(AskStreamTest, WarmupPreBuildsEveryShardIndex)
{
    auto engine = engineWith("sieve", 0);
    engine.warmup();
    const auto stats = engine.stats();
    EXPECT_EQ(stats.index.shards_indexed,
              sharedDb().shards().size());
}

namespace {

/** A custom retriever whose retrieval always throws (error paths). */
class ThrowingRetriever final : public retrieval::Retriever
{
  public:
    const char *name() const override { return "thrower"; }

    retrieval::ContextBundle
    retrieveParsed(const query::ParsedQuery &,
                   retrieval::EvidenceSink &) override
    {
        throw std::runtime_error("retriever exploded");
    }
};

const bool thrower_registered =
    retrieval::RetrieverRegistry::instance().add(
        "stream-test-thrower", [](const db::ShardSet &) {
            return std::make_unique<ThrowingRetriever>();
        });

} // namespace

TEST(AskStreamTest, PipelineExceptionsPropagateLikeBlockingAsk)
{
    // A throwing custom retriever must surface its exception to the
    // caller on every entry point — never escape a worker thread
    // into std::terminate, never hang the consumer.
    ASSERT_TRUE(thrower_registered);
    auto engine = CacheMind::Builder(sharedDb())
                      .withRetriever("stream-test-thrower")
                      .build()
                      .expect("throwing engine");

    EXPECT_THROW(engine.ask("boom?"), std::runtime_error);
    EXPECT_THROW(engine.askBatch(std::vector<std::string>{"a?", "b?", "c?"}),
                 std::runtime_error);

    auto stream = engine.askStream("boom?").expect("stream");
    EXPECT_THROW(stream.wait(), std::runtime_error);
}

TEST(AskStreamTest, StreamingStatsAreRecorded)
{
    auto engine = engineWith("sieve", 1024);
    const auto questions = suiteQuestions();
    std::uint64_t chunk_events = 0;
    std::uint64_t delta_events = 0;
    for (const auto &question : questions) {
        // The handle's destructor waits for the pipeline job, so each
        // stream's statistics are recorded before the next one starts.
        auto stream = engine.askStream(question).expect("stream");
        while (auto event = stream.next()) {
            if (event->kind == StreamEvent::Kind::EvidenceChunk)
                ++chunk_events;
            if (event->kind == StreamEvent::Kind::AnswerDelta)
                ++delta_events;
        }
    }

    const auto stats = engine.stats();
    EXPECT_EQ(stats.stream.streams, questions.size());
    EXPECT_EQ(stats.stream.evidence_chunks, chunk_events);
    EXPECT_EQ(stats.stream.answer_deltas, delta_events);
    // Every stream emits Parsed + Planned + chunks + deltas + Done.
    EXPECT_EQ(stats.stream.events,
              chunk_events + delta_events + 3 * questions.size());
    EXPECT_EQ(stats.stream.first_event_ms.count(), questions.size());
    EXPECT_GE(stats.stream.first_event_ms.mean(), 0.0);
    EXPECT_GE(stats.stream.first_event_ms.percentile(90.0),
              stats.stream.first_event_ms.percentile(50.0));
    // Streamed questions also count as served questions.
    EXPECT_EQ(stats.questions, questions.size());
    EXPECT_EQ(stats.batches, 0u);
}

TEST(AskStreamTest, PausedStreamNeverBlocksABlockingAskOnTheSameKey)
{
    // A stream must never hold the cache's in-flight claim while it
    // pushes into a consumer-paced channel. With a two-event buffer,
    // Parsed and Planned fill it and the first evidence push blocks
    // mid-retrieval while nobody reads; a blocking ask() of the same
    // question on an engine sharing the cache must still answer.
    auto cache = std::make_shared<retrieval::RetrievalCache>(
        retrieval::RetrievalCache::Options{1024});
    auto streaming = CacheMind::Builder(sharedDb())
                         .withSharedRetrievalCache(cache)
                         .withStreamBuffer(2)
                         .build()
                         .expect("streaming engine");
    auto blocking = CacheMind::Builder(sharedDb())
                        .withSharedRetrievalCache(cache)
                        .build()
                        .expect("blocking engine");
    const auto question = suiteQuestions()[0];

    auto stream = streaming.askStream(question).expect("paused stream");
    // The stream has looked the key up once the cache counts a miss.
    for (int i = 0; i < 10000 && cache->counters().misses == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GT(cache->counters().misses, 0u);

    auto pending = std::async(std::launch::async,
                              [&] { return blocking.ask(question); });
    const bool answered = pending.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    // Drain the stream either way, so a failing run still finishes.
    const Response streamed = stream.wait();
    EXPECT_TRUE(answered) << "blocking ask() waited on a paused stream";
    const Response blocked = pending.get().expect("blocking ask");
    EXPECT_EQ(blocked.text, streamed.text);
}

namespace {

/**
 * An EventSink that records what it accepts, and logs it with its
 * flushes: one word per push ("parsed", "planned",
 * "evidence:<label>", "delta", "done") and "FLUSH" per flush(), each
 * followed by a space. It refuses the push numbered `refuse_at`
 * (1-based; 0 = never), and with `cancel_after_overview` reports
 * itself cancelled once the overview evidence chunk has arrived.
 */
class RecordingSink final : public EventSink
{
  public:
    explicit RecordingSink(std::size_t refuse_at = 0,
                           bool cancel_after_overview = false)
        : refuse_at_(refuse_at),
          cancel_after_overview_(cancel_after_overview)
    {
    }

    bool
    push(StreamEvent event) override
    {
        if (++offered_ == refuse_at_)
            return false;
        saw_overview_ |= event.kind == StreamEvent::Kind::EvidenceChunk &&
                         event.label == "overview";
        log += streamEventKindName(event.kind);
        if (event.kind == StreamEvent::Kind::EvidenceChunk)
            log += ":" + event.label;
        log += ' ';
        events.push_back(std::move(event));
        return true;
    }

    void flush() override { log += "FLUSH "; }

    bool
    cancelled() const override
    {
        return cancel_after_overview_ && saw_overview_;
    }

    /** The text of the "cached" evidence chunk ("" when none). */
    std::string
    cachedText() const
    {
        for (const auto &e : events) {
            if (e.kind == StreamEvent::Kind::EvidenceChunk &&
                e.label == "cached")
                return e.text;
        }
        return std::string();
    }

    std::vector<StreamEvent> events;
    std::string log;

  private:
    const std::size_t refuse_at_;
    const bool cancel_after_overview_;
    std::size_t offered_ = 0;
    bool saw_overview_ = false;
};

/** What a consumer can tell events apart by. */
std::vector<std::tuple<StreamEvent::Kind, std::string, std::string,
                       std::string>>
eventKeys(const std::vector<StreamEvent> &events)
{
    std::vector<std::tuple<StreamEvent::Kind, std::string, std::string,
                           std::string>>
        keys;
    for (const auto &e : events)
        keys.emplace_back(e.kind, e.label, e.text, e.cache_key);
    return keys;
}

} // namespace

TEST(AskStreamTest, PushAskEmitsWhatAskStreamYields)
{
    // ask(ctx, sink) runs the pipeline on the calling thread: the sink
    // must see exactly the events askStream yields on a twin engine,
    // and the returned Response must be the blocking answer. Each
    // question is asked twice so the cache-on runs stream a hit too.
    const auto questions = suiteQuestions();
    for (const std::string retriever :
         {"sieve", "ranger", "llamaindex"}) {
        for (const std::size_t capacity : {0, 1024}) {
            auto pushing = engineWith(retriever, capacity);
            auto streaming = engineWith(retriever, capacity);
            auto blocking = engineWith(retriever, capacity);
            for (int round = 0; round < 2; ++round) {
                for (const auto &question : questions) {
                    SCOPED_TRACE(retriever + " cache=" +
                                 std::to_string(capacity) + " " +
                                 question);
                    RecordingSink sink;
                    const Response got =
                        pushing.ask(RequestContext(question), sink)
                            .expect("push ask");
                    auto stream =
                        streaming.askStream(question).expect("stream");
                    const auto streamed = drain(stream);
                    EXPECT_EQ(eventKeys(sink.events), eventKeys(streamed));
                    ASSERT_FALSE(sink.events.empty());
                    ASSERT_NE(sink.events.back().response, nullptr);
                    EXPECT_EQ(sink.events.back().response->text, got.text);

                    const Response want =
                        blocking.ask(question).expect("blocking ask");
                    EXPECT_EQ(got.text, want.text);
                    EXPECT_EQ(got.bundle.render(), want.bundle.render());
                    EXPECT_EQ(got.answer.says_hit, want.answer.says_hit);
                    EXPECT_EQ(got.answer.number, want.answer.number);
                    EXPECT_EQ(got.answer.chosen_policy,
                              want.answer.chosen_policy);
                    EXPECT_EQ(got.answer.listed_values,
                              want.answer.listed_values);
                    EXPECT_EQ(got.answer.rejected_premise,
                              want.answer.rejected_premise);
                }
            }
        }
    }
}

TEST(AskStreamTest, RefusingSinkUnwindsAsCancelled)
{
    const auto questions = suiteQuestions();
    {
        // A consumer that goes away at the third event: the run
        // unwinds as cancelled, records no latency sample, and leaves
        // the engine serving.
        auto engine = engineWith("sieve", 0);
        RequestContext ctx(questions[0]);
        ctx.traced();
        RecordingSink sink(/*refuse_at=*/3);
        EXPECT_THROW(engine.ask(ctx, sink), retrieval::StreamCancelled);
        EXPECT_EQ(sink.events.size(), 2u);
        const auto stats = engine.stats();
        EXPECT_EQ(stats.stream.cancelled, 1u);
        EXPECT_EQ(stats.questions, 0u);
        EXPECT_EQ(ctx.trace->outcome(), "cancelled");

        auto again = engine.ask(questions[0]);
        ASSERT_TRUE(again.ok());
        EXPECT_FALSE(again.value().text.empty());
        EXPECT_EQ(engine.stats().questions, 1u);
    }
    {
        // A consumer that cancels without refusing a push: the
        // retriever's poll after the overview section stops the run
        // before any further event.
        auto engine = engineWith("sieve", 0);
        RecordingSink sink(/*refuse_at=*/0, /*cancel_after_overview=*/true);
        EXPECT_THROW(engine.ask(RequestContext(questions[0]), sink),
                     retrieval::StreamCancelled);
        ASSERT_FALSE(sink.events.empty());
        EXPECT_EQ(sink.events.back().kind,
                  StreamEvent::Kind::EvidenceChunk);
        EXPECT_EQ(sink.events.back().label, "overview");
        EXPECT_EQ(engine.stats().stream.cancelled, 1u);
        EXPECT_EQ(engine.stats().questions, 0u);
    }
}

namespace {

/** An EventSink whose first evidence push waits until release(). */
class PausingSink final : public EventSink
{
  public:
    bool
    push(StreamEvent event) override
    {
        if (event.kind == StreamEvent::Kind::EvidenceChunk && !paused_) {
            paused_ = true;
            release_.get_future().wait();
        }
        return true;
    }

    bool cancelled() const override { return false; }

    void release() { release_.set_value(); }

  private:
    bool paused_ = false;
    std::promise<void> release_;
};

} // namespace

TEST(AskStreamTest, PausedPushSinkNeverBlocksABlockingAskOnTheSameKey)
{
    // A serving session's sink blocks in its socket write while the
    // client is slow. Like askStream, a run with a sink must not hold
    // the cache's in-flight claim meanwhile: a blocking ask() of the
    // same question on an engine sharing the cache still answers.
    auto cache = std::make_shared<retrieval::RetrievalCache>(
        retrieval::RetrievalCache::Options{1024});
    auto pushing = CacheMind::Builder(sharedDb())
                       .withSharedRetrievalCache(cache)
                       .build()
                       .expect("pushing engine");
    auto blocking = CacheMind::Builder(sharedDb())
                        .withSharedRetrievalCache(cache)
                        .build()
                        .expect("blocking engine");
    const auto question = suiteQuestions()[0];

    PausingSink sink;
    auto paused = std::async(std::launch::async, [&] {
        return pushing.ask(RequestContext(question), sink);
    });
    for (int i = 0; i < 10000 && cache->counters().misses == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GT(cache->counters().misses, 0u);

    auto pending = std::async(std::launch::async,
                              [&] { return blocking.ask(question); });
    const bool answered = pending.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    // Release the sink either way, so a failing run still finishes.
    sink.release();
    const Response pushed = paused.get().expect("push ask");
    EXPECT_TRUE(answered) << "blocking ask() waited on a paused sink";
    EXPECT_EQ(pending.get().expect("blocking ask").text, pushed.text);
}

// ------------------------------------------------------ flush contract

namespace {

/**
 * The log a run must leave: its events in pipeline order, with a FLUSH
 * before the retriever computes (a miss), after every evidence chunk,
 * after every delta when paced, and after done.
 */
std::string
flushContract(const RecordingSink &run, bool computed, bool paced)
{
    std::string log = "parsed planned ";
    if (computed)
        log += "FLUSH ";
    for (const auto &e : run.events) {
        if (e.kind == StreamEvent::Kind::EvidenceChunk)
            log += "evidence:" + e.label + " FLUSH ";
    }
    for (const auto &e : run.events) {
        if (e.kind == StreamEvent::Kind::AnswerDelta)
            log += paced ? "delta FLUSH " : "delta ";
    }
    return log + "done FLUSH ";
}

} // namespace

TEST(AskStreamTest, FlushesBeforeRetrievalAfterEachChunkAndAfterDone)
{
    // ask(ctx, sink) tells a batching sink (the server's) to deliver
    // before the retriever computes, after every evidence chunk, after
    // every delta when generation is paced, and after Done. No event
    // then waits across computed work or a paced sleep, and an answer
    // from a resident bundle is two batches: parsed, planned, cached,
    // FLUSH, deltas, done, FLUSH.
    std::size_t hits = 0;
    for (const std::string retriever : {"sieve", "ranger"}) {
        for (const double pace : {0.0, 1e6}) {
            for (const auto &question : suiteQuestions()) {
                SCOPED_TRACE(retriever + " pace=" + std::to_string(pace) +
                             " " + question);
                // A cache of its own per question: the first ask
                // computes, the second is a hit.
                auto engine = CacheMind::Builder(sharedDb())
                                  .withRetriever(retriever)
                                  .withRetrievalCacheCapacity(1024)
                                  .withTokensPerSecond(pace)
                                  .build()
                                  .expect("engine");
                RecordingSink first, second;
                engine.ask(RequestContext(question), first).expect("cold");
                engine.ask(RequestContext(question), second).expect("hot");
                const bool paced = pace > 0.0;
                const bool cacheable = !first.events.at(1).cache_key.empty();
                EXPECT_TRUE(first.cachedText().empty());
                EXPECT_EQ(first.log, flushContract(first, true, paced));
                EXPECT_EQ(second.log,
                          flushContract(second, !cacheable, paced));
                if (cacheable) {
                    ++hits;
                    EXPECT_EQ(second.log.find("parsed planned "
                                              "evidence:cached FLUSH "),
                              0u);
                }
            }
        }
    }
    EXPECT_GT(hits, 0u);
}

TEST(AskStreamTest, CachedChunkIsTheResidentBundleRenderedOnce)
{
    // A streamed hit sends its resident bundle's text, rendered by the
    // first hit and kept for the rest: render() of the blocking
    // answer's bundle, and the same kept string on every later hit.
    const auto questions = suiteQuestions();
    std::size_t hits = 0;
    for (const std::string retriever : {"sieve", "ranger"}) {
        auto cache = std::make_shared<retrieval::RetrievalCache>(
            retrieval::RetrievalCache::Options{1024});
        auto engine = CacheMind::Builder(sharedDb())
                          .withRetriever(retriever)
                          .withSharedRetrievalCache(cache)
                          .build()
                          .expect("engine");
        auto blocking = engineWith(retriever, 0);
        for (const auto &question : questions) {
            SCOPED_TRACE(retriever + " " + question);
            RecordingSink first, hit, again;
            engine.ask(RequestContext(question), first).expect("first");
            const std::string key = first.events.at(1).cache_key;
            if (key.empty())
                continue; // not cacheable: never a hit
            engine.ask(RequestContext(question), hit).expect("hit");
            engine.ask(RequestContext(question), again).expect("again");
            const Response want = blocking.ask(question).expect("blocking");
            EXPECT_EQ(hit.cachedText(), want.bundle.render());
            EXPECT_EQ(again.cachedText(), hit.cachedText());
            const auto resident = cache->peek(key);
            ASSERT_NE(resident, nullptr);
            EXPECT_EQ(&resident->renderOnce(), &resident->renderOnce());
            EXPECT_EQ(resident->renderOnce(), hit.cachedText());
            ++hits;
        }
    }
    EXPECT_GT(hits, 0u);
}

TEST(AskStreamTest, ConcurrentHitsOnOneKeyStreamOneText)
{
    // Four threads, an engine each on one shared cache, stream hits on
    // a key whose resident bundle no stream has rendered yet (a
    // blocking ask published it): every hit carries the same text.
    auto cache = std::make_shared<retrieval::RetrievalCache>(
        retrieval::RetrievalCache::Options{1024});
    const auto build = [&] {
        return CacheMind::Builder(sharedDb())
            .withSharedRetrievalCache(cache)
            .build()
            .expect("engine");
    };
    const std::string question = suiteQuestions()[0];
    auto warm = build();
    const std::string want =
        warm.ask(question).expect("warm").bundle.render();
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kHits = 8;
    std::vector<CacheMind> engines;
    engines.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t)
        engines.push_back(build());
    std::vector<std::vector<std::string>> chunks(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < kHits; ++i) {
                RecordingSink sink;
                engines[t].ask(RequestContext(question), sink).expect("hit");
                chunks[t].push_back(sink.cachedText());
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (const auto &texts : chunks) {
        ASSERT_EQ(texts.size(), kHits);
        for (const auto &text : texts)
            EXPECT_EQ(text, want);
    }
}

TEST(AskStreamTest, ACopiedOrAssignedBundleRendersItsOwnText)
{
    // The kept text belongs to one bundle object: a copy, an assigned
    // bundle or a moved-to bundle starts without it, so changing it
    // afterwards renders the changed bundle.
    retrieval::ContextBundle original;
    original.retriever = "sieve";
    original.trace_key = "astar_evictions_lru";
    const std::string &kept = original.renderOnce();
    EXPECT_EQ(kept, original.render());

    retrieval::ContextBundle copy = original;
    copy.trace_key = "mcf_evictions_lru";
    EXPECT_EQ(copy.renderOnce(), copy.render());
    EXPECT_NE(copy.renderOnce(), kept);

    retrieval::ContextBundle assigned;
    EXPECT_EQ(assigned.renderOnce(), assigned.render());
    assigned = original;
    assigned.retriever = "ranger";
    EXPECT_EQ(assigned.renderOnce(), assigned.render());
    EXPECT_NE(assigned.renderOnce(), kept);

    retrieval::ContextBundle moved = std::move(copy);
    moved.result_text = "moved";
    EXPECT_EQ(moved.renderOnce(), moved.render());

    // The original still holds the text it kept first.
    EXPECT_EQ(&original.renderOnce(), &kept);
    EXPECT_EQ(kept, original.render());
}
