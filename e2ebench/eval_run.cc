/**
 * @file
 * eval_sweep: the Figure 4/8 sweep with no server. For each seeded
 * CacheMindBench suite, every registered backend x {sieve, ranger}
 * runs through EvalHarness::evaluate(engine) (askBatch on the
 * engine's batch workers), with one retrieval cache shared by the
 * suite's engines.
 */

#include <map>
#include <memory>
#include <thread>

#include "base/random.hh"
#include "benchsuite/generator.hh"
#include "benchsuite/harness.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "inputs.hh"
#include "llm/registry.hh"
#include "serve/server.hh"
#include "workloads.hh"

namespace e2ebench {

using namespace cachemind;

namespace {

constexpr std::size_t kMaxKept = 160;

struct Kept
{
    std::size_t suite = 0;
    std::string backend;
    std::uint8_t retriever = 0;
    std::size_t question = 0;
    std::string answer;
};

/** One suite sweep: its latencies and when it finished. */
struct SuiteSample
{
    Clock::time_point start;
    Clock::time_point done;
    double ttfe_ms = 0.0;
    double ttlb_ms = 0.0;
};

/** What one sweep window produced. */
struct SweepWindow
{
    std::vector<SuiteSample> suites;
    /** (completion time, answers) per evaluation. */
    std::vector<std::pair<Clock::time_point, std::size_t>> completions;
    std::uint64_t answers = 0;
    std::uint64_t failed = 0;
    double evaluate_s = 0.0;
    retrieval::RetrievalCache::Counters cache;
    retrieval::RetrievalCache::TieredCounters tiers;
    db::IndexTotals index_before;
    db::IndexTotals index_after;
    std::vector<Kept> kept;
};

SweepWindow
sweep(const db::TraceDatabase &db,
      const std::vector<benchsuite::EvalHarness> &harnesses,
      const std::vector<std::string> &backends, WindowMonitor &mon,
      std::uint64_t seed, SpanLog *spans, RunResult &res)
{
    SweepWindow w;
    const db::ShardSet shards(db);
    w.index_before = shards.indexTotals();
    std::thread monitor([&mon] { mon.run(); });
    for (std::size_t k = 0; mon.running(); ++k) {
        const std::size_t s = k % harnesses.size();
        const auto suite_start = Clock::now();
        const std::string suite_id = "suite-" + std::to_string(k);
        const std::uint32_t root =
            spans ? spans->begin("sweep.suite", suite_id, 0, suite_start) : 0;
        auto cache = std::make_shared<retrieval::RetrievalCache>(
            retrieval::RetrievalCache::Options{});
        std::size_t e = 0;
        double ttfe_ms = 0.0;
        for (const auto &backend : backends) {
            for (std::uint8_t r = 0; r < 2; ++r, ++e) {
                const auto t0 = Clock::now();
                auto built = core::CacheMind::Builder(db)
                                 .withRetriever(retrieverName(r))
                                 .withBackend(backend)
                                 .withSharedRetrievalCache(cache)
                                 .build();
                if (!built.ok()) {
                    res.check(false, "engine " + backend + ": " +
                                         core::errorMessage(built.error()));
                    w.failed += harnesses[s].suite().size();
                    continue;
                }
                auto engine = std::move(built).value();
                const auto result = harnesses[s].evaluate(engine);
                const auto t1 = Clock::now();
                w.evaluate_s += std::chrono::duration<double>(t1 - t0).count();
                if (e == 0)
                    ttfe_ms = microsBetween(suite_start, t1) / 1e3;
                w.answers += result.records.size();
                w.completions.emplace_back(t1, result.records.size());
                const std::uint64_t h =
                    hashCombine(seed, hashCombine(k, e));
                if (h % 8 == 0 && w.kept.size() < kMaxKept &&
                    !result.records.empty()) {
                    const std::size_t j = (h >> 8) % result.records.size();
                    w.kept.push_back(Kept{s, backend, r, j,
                                          result.records[j].answer_text});
                }
                if (spans) {
                    spans->add("sweep.evaluate." + backend + "." +
                                   retrieverName(r),
                               suite_id, root, t0, t1);
                }
            }
        }
        const auto suite_done = Clock::now();
        if (spans)
            spans->end(root, suite_done);
        w.suites.push_back(SuiteSample{suite_start, suite_done, ttfe_ms,
                                       microsBetween(suite_start, suite_done) /
                                           1e3});
        const auto c = cache->counters();
        w.cache.hits += c.hits;
        w.cache.misses += c.misses;
        w.cache.evictions += c.evictions;
        const auto t = cache->tiered();
        w.tiers.promotions += t.promotions;
        w.tiers.demotions += t.demotions;
    }
    monitor.join();
    w.index_after = shards.indexTotals();
    return w;
}

/** Figures over the usable sub-windows of one sweep window. */
struct SweepSummary
{
    std::vector<double> ttfe_ms;
    std::vector<double> ttlb_ms;
    double answers_per_s = 0.0;
    double cpu_us_per_answer = 0.0;
};

SweepSummary
summarize(const SweepWindow &w, const WindowMonitor &mon)
{
    SweepSummary out;
    const std::size_t n = mon.subWindows();
    // A sweep lasts ~30 ms; it counts only when the sub-windows it
    // started and ended in are both usable.
    for (const auto &s : w.suites) {
        const std::size_t a = mon.indexOf(s.start);
        const std::size_t b = mon.indexOf(s.done);
        if (a < n && b < n && mon.usable(a) && mon.usable(b)) {
            out.ttfe_ms.push_back(s.ttfe_ms);
            out.ttlb_ms.push_back(s.ttlb_ms);
        }
    }
    std::vector<double> answers(n, 0.0);
    for (const auto &[t, count] : w.completions) {
        const std::size_t b = mon.indexOf(t);
        if (b < n)
            answers[b] += static_cast<double>(count);
    }
    std::vector<double> rate, cpu;
    for (std::size_t b = 0; b < n; ++b) {
        if (!mon.usable(b) || answers[b] == 0.0)
            continue;
        rate.push_back(answers[b] / mon.width());
        cpu.push_back(mon.sub(b).program_cpu_s * 1e6 / answers[b]);
    }
    out.answers_per_s = median(rate);
    out.cpu_us_per_answer = median(cpu);
    return out;
}

} // namespace

RunResult
runEvalSweep(const Args &args)
{
    RunResult res;

    // ---- set-up: build, then warm every shard on both retrievers.
    std::unique_ptr<db::TraceDatabase> db;
    std::vector<double> setup_s, build_s, warm_s;
    for (int i = 0; i < kSetups; ++i) {
        db.reset();
        const auto t0 = Clock::now();
        db = std::make_unique<db::TraceDatabase>(db::buildDatabase());
        build_s.push_back(secondsSince(t0));
        const auto t1 = Clock::now();
        const auto warm = warmupQuestions(*db);
        for (std::uint8_t r = 0; r < 2; ++r) {
            auto engine = core::CacheMind::Builder(*db)
                              .withRetriever(retrieverName(r))
                              .build()
                              .expect("warm-up engine");
            engine.warmup();
            for (const auto &q : warm)
                res.check(engine.ask(q).ok(), "warm-up ask failed");
        }
        warm_s.push_back(secondsSince(t1));
        setup_s.push_back(secondsSince(t0));
    }

    // ---- inputs (untimed).
    const EvalInputs in = makeEvalInputs(*db, args.seed);
    std::vector<benchsuite::EvalHarness> harnesses;
    for (const auto &suite : in.suites)
        harnesses.emplace_back(suite);
    const auto backends = llm::BackendRegistry::instance().names();

    // ---- the measured window.
    WindowMonitor mon(args.seconds);
    const SweepWindow w =
        sweep(*db, harnesses, backends, mon, args.seed, nullptr, res);
    res.steal.emplace_back("window", mon.steal());
    res.samples["window_sub_windows_disturbed"] = mon.disturbed();
    res.samples["window_sub_windows_repeated"] = mon.repeated();
    res.attempted += w.answers;
    res.failed += w.failed;
    const SweepSummary sum = summarize(w, mon);
    const double answers = static_cast<double>(w.answers);
    const double lookups =
        static_cast<double>(w.cache.hits + w.cache.misses);

    res.set("setup_s", median(setup_s));
    res.set("ttfe_p50_ms", percentile(sum.ttfe_ms, 50.0));
    res.set("ttlb_p50_ms", percentile(sum.ttlb_ms, 50.0));
    res.set("questions_per_s", sum.answers_per_s);
    res.set("cpu_us_per_answer", sum.cpu_us_per_answer);
    res.samples["answers"] = w.answers;
    res.samples["suite_sweeps"] = sum.ttlb_ms.size();
    res.samples["setups"] = setup_s.size();
    const auto [tail_q, beyond] = supportedTailPercentile(sum.ttlb_ms.size());
    res.diag("ttlb_p90_ms", percentile(sum.ttlb_ms, 90.0), "ms");
    res.diag("ttlb_p99_ms", percentile(sum.ttlb_ms, 99.0), "ms");
    res.diag("ttlb_tail_percentile", tail_q, "%");
    res.diag("ttlb_tail_ms", percentile(sum.ttlb_ms, tail_q), "ms");
    res.diag("ttlb_tail_samples_beyond", static_cast<double>(beyond), "count");
    res.diag("cache.cross_engine_share", ratio(w.cache.hits, lookups), "ratio");
    res.check(w.cache.hits > 0, "eval_sweep: no cross-engine cache hits");

    // ---- traced window.
    SpanLog spans(Clock::now());
    SweepWindow traced;
    WindowMonitor traced_mon(args.trace ? args.seconds : 0.0);
    if (args.trace) {
        traced = sweep(*db, harnesses, backends, traced_mon, args.seed,
                       &spans, res);
        res.steal.emplace_back("traced_window", traced_mon.steal());
        res.samples["traced_window_sub_windows_disturbed"] =
            traced_mon.disturbed();
        res.samples["traced_window_sub_windows_repeated"] =
            traced_mon.repeated();
        res.attempted += traced.answers;
        res.failed += traced.failed;
    }

    // ---- answer checks: sampled askBatch answers vs sequential ask().
    std::map<std::pair<std::string, std::uint8_t>,
             std::unique_ptr<core::CacheMind>>
        reference;
    std::uint64_t mismatches = 0, checked = 0;
    for (const SweepWindow *win :
         std::initializer_list<const SweepWindow *>{&w, &traced}) {
        for (const auto &kept : win->kept) {
            auto &engine = reference[{kept.backend, kept.retriever}];
            if (!engine) {
                engine = std::make_unique<core::CacheMind>(
                    core::CacheMind::Builder(*db)
                        .withRetriever(retrieverName(kept.retriever))
                        .withBackend(kept.backend)
                        .build()
                        .expect("reference engine"));
            }
            const auto ref =
                engine->ask(in.suites[kept.suite][kept.question].text);
            ++checked;
            if (!ref.ok() || ref.value().text != kept.answer)
                ++mismatches;
        }
    }
    res.attempted += checked;
    res.failed += mismatches;
    res.check(mismatches == 0, "askBatch answers differ from sequential ask()");
    res.samples["blocking_checks"] = checked;

    // ---- quality: the default suite through askBatch, each answer
    // byte-identical to a sequential ask() and graded.
    const benchsuite::BenchGenerator default_gen(*db, kDefaultSuiteSeed);
    const benchsuite::EvalHarness default_harness(default_gen.generate());
    std::map<std::string, std::string> batch_answers[2];
    double batch_tg[2], batch_ara[2];
    for (std::uint8_t r = 0; r < 2; ++r) {
        auto engine = core::CacheMind::Builder(*db)
                          .withRetriever(retrieverName(r))
                          .withBackend("gpt-4o")
                          .build()
                          .expect("quality engine");
        const auto result = default_harness.evaluate(engine);
        for (std::size_t i = 0; i < result.records.size(); ++i) {
            batch_answers[r][default_harness.suite()[i].text] =
                result.records[i].answer_text;
        }
        batch_tg[r] = result.tgPct();
        batch_ara[r] = result.araPct();
    }
    const Quality quality = gradeDefaultSuite(
        *db, [&](const std::string &q, std::uint8_t r)
                 -> std::optional<std::string> {
            const auto it = batch_answers[r].find(q);
            if (it == batch_answers[r].end())
                return std::nullopt;
            return it->second;
        });
    reportQuality(quality, res);
    for (int r = 0; r < 2; ++r) {
        res.check(batch_tg[r] == quality.tg[r] && batch_ara[r] == quality.ara[r],
                  "default suite: askBatch grades differ from sequential");
    }
    res.set("peak_rss_mb", peakRssMb());
    res.set("ok_frac",
            ratio(static_cast<double>(res.attempted - res.failed),
                  static_cast<double>(res.attempted)));

    if (!args.trace)
        return res;

    // ---- per-layer metrics.
    const double untraced_p50 = percentile(sum.ttlb_ms, 50.0);
    res.set("bench.trace_overhead_frac",
            ratio(percentile(summarize(traced, traced_mon).ttlb_ms, 50.0) -
                      untraced_p50,
                  untraced_p50));
    res.set("retrieval.cache.cross_engine_hit_frac",
            ratio(w.cache.hits, lookups));
    res.set("retrieval.cache.hot_hit_frac",
            ratio(w.cache.hits - w.tiers.promotions, lookups));
    res.set("retrieval.cache.secondary_hit_frac",
            ratio(w.tiers.promotions, lookups));
    res.set("retrieval.cache.miss_frac", ratio(w.cache.misses, lookups));
    res.set("retrieval.cache.promotions_per_answer",
            ratio(w.tiers.promotions, answers));
    res.set("retrieval.cache.demotions_per_answer",
            ratio(w.tiers.demotions, answers));
    res.set("retrieval.cache.evictions_per_answer",
            ratio(w.cache.evictions, answers));
    res.set("retrieval.cache.secondary_bytes", 0.0);
    res.set("db.index_lookups_per_answer",
            ratio(static_cast<double>(w.index_after.lookups -
                                      w.index_before.lookups),
                  answers));
    res.set("db.rows_skipped_per_answer",
            ratio(static_cast<double>(w.index_after.rows_skipped -
                                      w.index_before.rows_skipped),
                  answers));
    res.set("core.batch_us_per_question", ratio(w.evaluate_s * 1e6, answers));
    res.set("benchsuite.grade_us", median(quality.grade_us));
    res.set("db.build_s", median(build_s));
    res.set("core.warmup_s", median(warm_s));

    // The ladder samples the sweep's own questions; its serve round
    // trip needs a server, started here and outside every window.
    serve::Server server(*db, serve::ServeOptions{});
    std::string why;
    res.check(server.start(&why), "ladder server: " + why);
    std::vector<LadderQuestion> sample;
    Rng rng(hashCombine(args.seed, 0x1add3));
    for (std::size_t i = 0; i < 128; ++i) {
        const auto &suite = in.suites[rng.nextBelow(in.suites.size())];
        sample.push_back({suite[rng.nextBelow(suite.size())].text,
                          static_cast<std::uint8_t>(i % 2)});
    }
    runLadder(*db, server.port(), sample, false, &spans, res);
    server.stop();
    runBuildStages(res);
    if (!args.span_dir.empty()) {
        spans.writeChromeJson(args.span_dir + "/eval_sweep-" +
                              std::to_string(args.seed) + ".trace.json");
    }
    res.samples["spans"] = spans.size();
    return res;
}

} // namespace e2ebench
