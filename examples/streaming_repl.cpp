/**
 * @file
 * Streaming REPL: the interactive "why did this line get evicted?"
 * workflow with first evidence on screen before the full answer is
 * generated. Each question runs through CacheMind::askStream; the
 * loop prints pipeline events as they arrive — parsed slots, the
 * retrieval plan, every evidence section mid-retrieval, then the
 * answer text delta by delta — and the terminal response is
 * byte-identical to a blocking ask(). Every question runs as a
 * traced RequestContext, so after the done frame the REPL prints
 * which pipeline stage produced the first on-screen event and the
 * per-stage span tree of the request that just streamed.
 *
 *   $ ./example_streaming_repl          # type questions, ^D to exit
 *   $ ./example_streaming_repl < /dev/null   # scripted demo
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "base/str.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "obs/trace_export.hh"

using namespace cachemind;

namespace {

void
streamOne(core::CacheMind &engine, const std::string &question,
          std::size_t number)
{
    // The unified request surface: question + correlation id + trace
    // in one value. Tracing changes nothing about the answer; it
    // only records where the time went.
    core::RequestContext ctx(question);
    ctx.withRequestId("repl-" + std::to_string(number)).traced();
    auto result = engine.askStream(ctx);
    if (!result.ok()) {
        std::printf("error: %s\n",
                    core::errorMessage(result.error()).c_str());
        return;
    }
    auto stream = std::move(result).value();
    bool in_answer = false;
    std::string first_stage;
    while (auto event = stream.next()) {
        const char *kind = core::streamEventKindName(event->kind);
        if (first_stage.empty() && event->span != 0)
            first_stage = ctx.trace->spanName(event->span);
        switch (event->kind) {
          case core::StreamEvent::Kind::Parsed:
            std::printf("  [%s] %s\n", kind,
                        event->parsed.slotKey().c_str());
            break;
          case core::StreamEvent::Kind::Planned:
            std::printf("  [%s] cache key %s\n", kind,
                        event->cache_key.empty()
                            ? "(uncacheable)"
                            : event->cache_key.c_str());
            break;
          case core::StreamEvent::Kind::EvidenceChunk:
            std::printf("  [%s:%s] %zu bytes\n", kind,
                        event->label.c_str(), event->text.size());
            break;
          case core::StreamEvent::Kind::AnswerDelta:
            if (!in_answer) {
                std::printf("A: ");
                in_answer = true;
            }
            std::printf("%s", event->text.c_str());
            std::fflush(stdout);
            break;
          case core::StreamEvent::Kind::Done:
            if (!in_answer)
                std::printf("A: %s", event->response->text.c_str());
            std::printf("\n");
            break;
        }
    }
    std::printf("  first event from stage '%s'\n%s",
                first_stage.c_str(), obs::toText(*ctx.trace).c_str());
}

} // namespace

int
main()
{
    std::printf("Building trace database (mcf under LRU + Belady)"
                "...\n");
    db::BuildOptions options;
    options.workloads = {trace::WorkloadKind::Mcf};
    options.policies = {policy::PolicyKind::Lru,
                        policy::PolicyKind::Belady};
    options.accesses_override = 60000;
    const db::TraceDatabase database = db::buildDatabase(options);

    auto engine = core::CacheMind::Builder(database)
                      .withRetriever("sieve")
                      .withBackend("gpt-4o")
                      .build()
                      .expect("building the CacheMind engine");

    // Warm every shard's postings index in parallel up front so the
    // first question's first event is not delayed by a lazy build
    // (askStream would otherwise do this on its first call).
    engine.warmup();

    std::printf("Ask trace-grounded questions; ^D to exit.\n");
    std::string question;
    bool interactive = false;
    std::size_t number = 0;
    while (std::printf("> "), std::fflush(stdout),
           std::getline(std::cin, question)) {
        interactive = true;
        if (!str::trim(question).empty())
            streamOne(engine, question, ++number);
    }
    std::printf("\n");

    if (!interactive) {
        // No stdin (CI smoke run): stream a scripted demo instead.
        const auto *entry = database.find("mcf_evictions_lru");
        const std::vector<std::string> demo = {
            "What is the miss rate for PC " +
                str::hex(entry->table.pcAt(0)) +
                " in the mcf workload with LRU?",
            "Which policy has the lowest miss rate in the mcf "
            "workload?",
            "Why does Belady outperform LRU in the mcf workload?",
        };
        for (const auto &q : demo) {
            std::printf("> %s\n", q.c_str());
            streamOne(engine, q, ++number);
        }
    }

    const auto stats = engine.stats();
    std::printf("\n%llu streams, %llu events (%llu evidence chunks, "
                "%llu answer deltas), first event p50 %.3f ms vs "
                "full-answer p50 %.3f ms\n",
                static_cast<unsigned long long>(stats.stream.streams),
                static_cast<unsigned long long>(stats.stream.events),
                static_cast<unsigned long long>(
                    stats.stream.evidence_chunks),
                static_cast<unsigned long long>(
                    stats.stream.answer_deltas),
                stats.stream.first_event_ms.percentile(50.0),
                stats.latency_ms.percentile(50.0));
    return 0;
}
