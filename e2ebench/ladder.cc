/**
 * @file
 * The per-layer ladder of the traced run, the build-stage timings,
 * and the default-suite grading every workload reports.
 */

#include <cmath>
#include <memory>

#include "benchsuite/generator.hh"
#include "benchsuite/harness.hh"
#include "client.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "inputs.hh"
#include "policy/parrot.hh"
#include "retrieval/bundle_codec.hh"
#include "sim/llc_replay.hh"
#include "trace/workload.hh"
#include "workloads.hh"

namespace e2ebench {

using namespace cachemind;

namespace {

std::unique_ptr<core::CacheMind>
makeEngine(const db::TraceDatabase &db, std::uint8_t retriever,
           bool cache_on)
{
    return std::make_unique<core::CacheMind>(
        core::CacheMind::Builder(db)
            .withRetriever(retrieverName(retriever))
            .withRetrievalCacheCapacity(cache_on ? 1024 : 0)
            .build()
            .expect("ladder engine"));
}

/** Per-layer samples, one vector per metric. */
struct LadderSamples
{
    std::vector<double> parse, retrieve[2], generate, encode, decode, ask,
        ask_hit, first_evidence, stream_done, events, round_trip, frames,
        bytes;
};

} // namespace

void
runLadder(const db::TraceDatabase &db, std::uint16_t port,
          const std::vector<LadderQuestion> &sample, bool hit_path,
          SpanLog *spans, RunResult &res)
{
    std::unique_ptr<core::CacheMind> off[2], on[2];
    for (std::uint8_t r = 0; r < 2; ++r) {
        off[r] = makeEngine(db, r, false);
        on[r] = makeEngine(db, r, true);
        off[r]->warmup();
        on[r]->warmup();
    }
    Connection conn;
    if (!conn.open(port))
        res.check(false, "ladder: could not connect");

    LadderSamples s;
    for (std::size_t i = 0; i < sample.size(); ++i) {
        const LadderQuestion &q = sample[i];
        const std::uint8_t r = q.retriever;
        const std::string id = "ladder-" + std::to_string(i);
        const auto q0 = Clock::now();
        const std::uint32_t root =
            spans ? spans->begin("ladder.question", id, 0, q0) : 0;
        auto timed = [&](const char *name, std::vector<double> &into,
                         auto &&fn) {
            const auto t0 = Clock::now();
            fn();
            const auto t1 = Clock::now();
            into.push_back(microsBetween(t0, t1));
            if (spans)
                spans->add(name, id, root, t0, t1);
        };

        query::ParsedQuery parsed;
        timed("query.parse", s.parse,
              [&] { parsed = off[r]->parser().parse(q.text); });
        retrieval::ContextBundle bundle;
        for (std::uint8_t rr = 0; rr < 2; ++rr) {
            retrieval::ContextBundle b;
            timed(rr == 0 ? "retrieval.sieve" : "retrieval.ranger",
                  s.retrieve[rr],
                  [&] { b = off[rr]->retriever().retrieveParsed(parsed); });
            if (rr == r)
                bundle = std::move(b);
        }
        timed("llm.generate", s.generate,
              [&] { (void)off[r]->generator().answer(bundle); });
        std::string encoded;
        timed("retrieval.codec_encode", s.encode,
              [&] { encoded = retrieval::encodeBundle(bundle); });
        std::optional<retrieval::ContextBundle> decoded;
        timed("retrieval.codec_decode", s.decode,
              [&] { decoded = retrieval::decodeBundle(encoded); });
        res.check(decoded.has_value(), "ladder: bundle codec round trip");

        std::string ask_text;
        timed("core.ask", s.ask, [&] {
            auto a = off[r]->ask(q.text);
            if (a.ok())
                ask_text = a.value().text;
        });
        (void)on[r]->ask(q.text); // make the bundle resident
        timed("core.ask_hit", s.ask_hit, [&] { (void)on[r]->ask(q.text); });

        core::CacheMind &streamer = hit_path ? *on[r] : *off[r];
        const auto st0 = Clock::now();
        auto stream = streamer.askStream(q.text);
        double events = 0.0;
        Clock::time_point first = st0, done = st0;
        bool saw_evidence = false;
        if (stream.ok()) {
            auto &as = stream.value();
            while (auto ev = as.next()) {
                ++events;
                if (ev->kind == core::StreamEvent::Kind::EvidenceChunk &&
                    !saw_evidence) {
                    first = Clock::now();
                    saw_evidence = true;
                }
                if (ev->kind == core::StreamEvent::Kind::Done)
                    done = Clock::now();
            }
        }
        res.check(saw_evidence && done > st0,
                  "ladder: askStream produced no evidence or no done event");
        s.first_evidence.push_back(microsBetween(st0, first));
        s.stream_done.push_back(microsBetween(st0, done));
        s.events.push_back(events);
        if (spans) {
            spans->add("core.stream_first_evidence", id, root, st0, first);
            spans->add("core.stream_done", id, root, st0, done);
        }

        const AskOutcome out = conn.ask(q.text, retrieverName(r), id);
        res.check(out.ok, "ladder: serve round trip: " + out.failure);
        res.check(out.answer == ask_text,
                  "ladder: served answer differs from ask()");
        s.round_trip.push_back(microsBetween(out.sent, out.done));
        s.frames.push_back(static_cast<double>(out.frames));
        s.bytes.push_back(static_cast<double>(out.bytes));
        if (spans) {
            spans->add("serve.round_trip", id, root, out.sent, out.done);
            spans->end(root, Clock::now());
        }
    }

    // Batch path: askBatch over the sample on fresh engines.
    std::vector<double> batch_us;
    for (std::uint8_t r = 0; r < 2; ++r) {
        std::vector<std::string> texts;
        for (const auto &q : sample)
            texts.push_back(q.text);
        auto engine = makeEngine(db, r, true);
        const auto t0 = Clock::now();
        const auto out = engine->askBatch(texts);
        const auto t1 = Clock::now();
        res.check(out.ok(), "ladder: askBatch failed");
        batch_us.push_back(microsBetween(t0, t1) /
                           static_cast<double>(std::max<std::size_t>(
                               texts.size(), 1)));
        if (spans)
            spans->add("core.ask_batch", "ladder-batch", 0, t0, t1);
    }

    const double ask_ref = median(hit_path ? s.ask_hit : s.ask);
    const double stream_done = median(s.stream_done);
    const double round_trip = median(s.round_trip);
    res.set("query.parse_us", median(s.parse));
    res.set("retrieval.sieve_us", median(s.retrieve[0]));
    res.set("retrieval.ranger_us", median(s.retrieve[1]));
    res.set("llm.generate_us", median(s.generate));
    res.set("retrieval.codec_encode_us", median(s.encode));
    res.set("retrieval.codec_decode_us", median(s.decode));
    res.set("core.ask_us", median(s.ask));
    res.set("core.ask_hit_us", median(s.ask_hit));
    res.set("core.stream_first_evidence_us", median(s.first_evidence));
    res.set("core.stream_done_us", stream_done);
    res.set("core.stream_hop_us", stream_done - ask_ref);
    res.set("serve.round_trip_us", round_trip);
    res.set("serve.overhead_us", round_trip - stream_done);
    // Counts measured over the untraced window win; these are fallbacks.
    res.values.emplace("core.events_per_answer", median(s.events));
    res.values.emplace("serve.frames_per_answer", median(s.frames));
    res.values.emplace("serve.bytes_per_answer", median(s.bytes));
    res.values.emplace("core.batch_us_per_question", median(batch_us));
    res.samples["ladder_questions"] = sample.size();
}

void
runBuildStages(RunResult &res)
{
    const db::BuildOptions opts;
    double generate = 0.0, capture = 0.0, oracle_s = 0.0, replay = 0.0;
    for (const auto wk : opts.workloads) {
        auto t0 = Clock::now();
        const auto model = trace::makeWorkload(wk);
        const auto cpu_trace = opts.accesses_override
                                   ? model->generate(opts.accesses_override)
                                   : model->generate();
        generate += secondsSince(t0);
        t0 = Clock::now();
        const auto stream = sim::captureLlcStream(cpu_trace, opts.hierarchy);
        capture += secondsSince(t0);
        t0 = Clock::now();
        const auto oracle = sim::computeOracle(stream);
        oracle_s += secondsSince(t0);
        for (const auto pk : opts.policies) {
            t0 = Clock::now();
            std::unique_ptr<policy::ReplacementPolicy> pol;
            if (pk == policy::PolicyKind::Parrot) {
                auto parrot = std::make_unique<policy::ParrotPolicy>();
                parrot->setModel(
                    sim::ParrotModelBuilder::train(stream, oracle));
                pol = std::move(parrot);
            } else {
                pol = policy::makePolicy(pk);
            }
            sim::LlcReplayer replayer(opts.hierarchy.llc, std::move(pol));
            (void)replayer.replay(stream, &oracle, {});
            replay += secondsSince(t0);
        }
    }
    res.set("trace.generate_s", generate);
    res.set("sim.capture_s", capture);
    res.set("sim.oracle_s", oracle_s);
    res.set("sim.replay_s", replay);
    const auto build = res.values.find("db.build_s");
    const double build_s = build == res.values.end() ? 0.0 : build->second;
    res.set("db.table_build_s",
            build_s - (generate + capture + oracle_s + replay));
}

Quality
gradeDefaultSuite(const db::TraceDatabase &db, const AnswerFn &served)
{
    Quality q;
    const benchsuite::BenchGenerator gen(db, kDefaultSuiteSeed);
    const auto suite = gen.generate();
    for (std::uint8_t r = 0; r < 2; ++r) {
        auto engine = core::CacheMind::Builder(db)
                          .withRetriever(retrieverName(r))
                          .withBackend("gpt-4o")
                          .build()
                          .expect("quality engine");
        benchsuite::EvalResult result;
        for (const auto &question : suite) {
            ++q.attempted;
            auto resp = engine.ask(question.text);
            if (!resp.ok()) {
                ++q.failed;
                continue;
            }
            const core::Response &response = resp.value();
            if (served) {
                const auto other = served(question.text, r);
                if (!other || *other != response.text)
                    ++q.failed;
            }
            benchsuite::QuestionRecord rec;
            rec.category = question.category;
            const auto t0 = Clock::now();
            rec.grade = benchsuite::grade(question, response.answer);
            q.grade_us.push_back(microsBetween(t0, Clock::now()));
            result.records.push_back(rec);
        }
        q.tg[r] = result.tgPct();
        q.ara[r] = result.araPct();
    }
    return q;
}

void
reportQuality(const Quality &q, RunResult &res)
{
    res.set("tg_pct_sieve", q.tg[0]);
    res.set("ara_pct_sieve", q.ara[0]);
    res.set("tg_pct_ranger", q.tg[1]);
    res.set("ara_pct_ranger", q.ara[1]);
    res.attempted += q.attempted;
    res.failed += q.failed;
    res.check(q.failed == 0,
              "default suite: answers differ between paths or failed");
    for (int r = 0; r < 2; ++r) {
        res.check(std::fabs(q.tg[r] - kExpectedTg[r]) < 0.005 &&
                      std::fabs(q.ara[r] - kExpectedAra[r]) < 0.005,
                  std::string("default suite: ") + retrieverName(r) +
                      " scores differ from the recorded HEAD scores");
    }
}

} // namespace e2ebench
