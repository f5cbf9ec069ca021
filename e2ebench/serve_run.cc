/**
 * @file
 * serve_hot, serve_cold and serve_longtail: a closed loop on two
 * connections against a loopback serve::Server with the default
 * ServeOptions, alternating Sieve and Ranger.
 */

#include <algorithm>
#include <memory>
#include <thread>

#include "base/random.hh"
#include "client.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "inputs.hh"
#include "serve/server.hh"
#include "workloads.hh"

namespace e2ebench {

using namespace cachemind;

namespace {

/** Served answers kept per connection for the blocking-ask check. */
constexpr std::size_t kKeptPerConnection = 128;

struct ServeSetup
{
    std::unique_ptr<db::TraceDatabase> db;
    std::unique_ptr<serve::Server> server;
    double build_s = 0.0;
    double warmup_s = 0.0;
    double total_s = 0.0;
};

/**
 * Drive both connections at once until both pooled engines of each
 * retriever exist (the server builds engines lazily per concurrent
 * lease) and every shard was touched on both retrievers.
 */
bool
warmConnections(serve::Server &server,
                const std::vector<std::string> &questions, std::string *why)
{
    Connection conn[2];
    if (!conn[0].open(server.port()) || !conn[1].open(server.port())) {
        *why = "warm-up could not connect";
        return false;
    }
    const std::size_t n = questions.size();
    for (std::size_t round = 0; round < 2 * n + 400; ++round) {
        const char *retriever = retrieverName(round % 2);
        const std::string &q = questions[(round / 2) % n];
        AskOutcome out[2];
        std::string ids[2];
        for (int c = 0; c < 2; ++c) {
            ids[c] = "warm-" + std::to_string(round) + "-" + std::to_string(c);
            conn[c].send(q, retriever, ids[c], out[c]);
        }
        for (int c = 0; c < 2; ++c) {
            conn[c].finish(ids[c], out[c]);
            if (!out[c].ok) {
                *why = "warm-up ask failed: " + out[c].failure;
                return false;
            }
        }
        if (round + 1 >= 2 * n &&
            server.stats().engine.stream.warmups >= 4) {
            return true;
        }
    }
    *why = "fewer than two engines per retriever after warm-up";
    return false;
}

ServeSetup
setUp(RunResult &res)
{
    ServeSetup s;
    const auto t0 = Clock::now();
    s.db = std::make_unique<db::TraceDatabase>(db::buildDatabase());
    s.build_s = secondsSince(t0);
    const auto t1 = Clock::now();
    s.server =
        std::make_unique<serve::Server>(*s.db, serve::ServeOptions{});
    std::string why;
    if (!s.server->start(&why))
        res.check(false, "server start: " + why);
    else if (!warmConnections(*s.server, warmupQuestions(*s.db), &why))
        res.check(false, why);
    s.warmup_s = secondsSince(t1);
    s.total_s = secondsSince(t0);
    return s;
}

struct Sample
{
    Clock::time_point done;
    double ttfe_ms = 0.0;
    double ttlb_ms = 0.0;
};

struct Served
{
    Draw draw;
    std::string answer;
};

/** What one connection saw in one window. */
struct ConnWindow
{
    std::vector<Sample> samples;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::vector<Served> kept;
    std::string first_failure;
    bool exhausted = false;
};

struct WindowResult
{
    ConnWindow conn[2];
    serve::ServeStats before;
    serve::ServeStats after;

    std::uint64_t
    answers() const
    {
        return conn[0].samples.size() + conn[1].samples.size();
    }
};

/**
 * One closed loop on two connections, each sending its sequence from
 * `cursor[c]` while `mon` runs — or, without a monitor, until the
 * sequence ends (the untimed pre-fill).
 */
WindowResult
runWindow(serve::Server &server, const ServeInputs &in,
          const std::vector<Draw> *sequence, std::size_t *cursor,
          WindowMonitor *mon, std::uint64_t seed, SpanLog *spans,
          const std::string &tag)
{
    WindowResult w;
    auto body = [&](int c) {
        ConnWindow &cw = w.conn[c];
        Connection conn;
        if (!conn.open(server.port())) {
            cw.first_failure = "connect failed";
            ++cw.failed;
            ++cw.attempted;
            return;
        }
        const auto &seq = sequence[c];
        while (!mon || mon->running()) {
            if (cursor[c] >= seq.size()) {
                cw.exhausted = mon != nullptr;
                break;
            }
            const std::uint64_t ordinal = cursor[c]++;
            const Draw d = seq[ordinal];
            const std::string question = in.render(in.items[d.item]);
            const std::string id =
                tag + std::to_string(c) + "-" + std::to_string(ordinal);
            AskOutcome out = conn.ask(question, retrieverName(d.retriever), id);
            ++cw.attempted;
            cw.frames += out.frames;
            cw.bytes += out.bytes;
            if (!out.ok) {
                ++cw.failed;
                if (cw.first_failure.empty())
                    cw.first_failure = out.failure;
                if (out.failure == "connection closed" ||
                    out.failure == "send failed")
                    break;
                continue;
            }
            cw.samples.push_back(
                Sample{out.done, microsBetween(out.sent, out.first_evidence) / 1e3,
                       microsBetween(out.sent, out.done) / 1e3});
            if (hashCombine(seed, hashCombine(c, ordinal)) % 64 == 0 &&
                cw.kept.size() < kKeptPerConnection) {
                cw.kept.push_back(Served{d, out.answer});
            }
            if (spans) {
                const std::uint32_t root =
                    spans->add("client.ask", id, 0, out.sent, out.done);
                spans->add("client.send", id, root, out.sent, out.written);
                spans->add("client.first_evidence", id, root, out.written,
                           out.first_evidence);
                spans->add("client.done", id, root, out.first_evidence,
                           out.done);
            }
        }
    };

    w.before = server.stats();
    std::thread t0(body, 0), t1(body, 1);
    if (mon) {
        mon->addLoadThread(t0);
        mon->addLoadThread(t1);
        mon->run();
    }
    t0.join();
    t1.join();
    w.after = server.stats();
    return w;
}

/** Per-sub-window figures, and their medians over usable sub-windows. */
struct LatencySummary
{
    double ttfe_p50_ms = 0.0;
    double ttlb_p50_ms = 0.0;
    double ttlb_p90_ms = 0.0;
    double answers_per_s = 0.0;
    double cpu_us_per_answer = 0.0;
    double load_cpu_us_per_answer = 0.0;
    std::size_t sub_windows = 0;
    std::vector<double> all_ttlb;
};

LatencySummary
summarize(const WindowResult &w, const WindowMonitor &mon)
{
    const std::size_t n = mon.subWindows();
    std::vector<std::vector<double>> ttfe(n), ttlb(n);
    LatencySummary out;
    for (const auto &cw : w.conn) {
        for (const auto &s : cw.samples) {
            const std::size_t b = mon.indexOf(s.done);
            if (b >= n || !mon.usable(b))
                continue;
            ttfe[b].push_back(s.ttfe_ms);
            ttlb[b].push_back(s.ttlb_ms);
            out.all_ttlb.push_back(s.ttlb_ms);
        }
    }
    std::vector<double> p50e, p50, p90, rate, cpu, load_cpu;
    for (std::size_t b = 0; b < n; ++b) {
        if (ttlb[b].empty())
            continue;
        const double answers = static_cast<double>(ttlb[b].size());
        p50e.push_back(percentile(ttfe[b], 50.0));
        p50.push_back(percentile(ttlb[b], 50.0));
        p90.push_back(percentile(ttlb[b], 90.0));
        rate.push_back(answers / mon.width());
        cpu.push_back(mon.sub(b).program_cpu_s * 1e6 / answers);
        load_cpu.push_back(mon.sub(b).load_cpu_s * 1e6 / answers);
    }
    out.ttfe_p50_ms = median(p50e);
    out.ttlb_p50_ms = median(p50);
    out.ttlb_p90_ms = median(p90);
    out.answers_per_s = median(rate);
    out.cpu_us_per_answer = median(cpu);
    out.load_cpu_us_per_answer = median(load_cpu);
    out.sub_windows = p50.size();
    return out;
}

/** Tier split of the window's cache lookups (from Server::stats()). */
struct CacheSplit
{
    std::uint64_t lookups = 0;
    std::uint64_t hot = 0;
    std::uint64_t secondary = 0;
    std::uint64_t misses = 0;
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t evictions = 0;
};

CacheSplit
cacheSplit(const WindowResult &w)
{
    const auto &a = w.before.engine;
    const auto &b = w.after.engine;
    CacheSplit s;
    const std::uint64_t hits = b.cache.hits - a.cache.hits;
    s.misses = b.cache.misses - a.cache.misses;
    s.lookups = hits + s.misses;
    s.promotions = b.cache_tiers.promotions - a.cache_tiers.promotions;
    s.demotions = b.cache_tiers.demotions - a.cache_tiers.demotions;
    s.evictions = b.cache.evictions - a.cache.evictions;
    s.secondary = s.promotions;
    s.hot = hits - std::min(hits, s.promotions);
    return s;
}

void
tally(const WindowResult &w, const WindowMonitor &mon,
      const std::string &name, RunResult &res)
{
    for (const auto &cw : w.conn) {
        res.attempted += cw.attempted;
        res.failed += cw.failed;
        if (!cw.first_failure.empty())
            res.problems.push_back(name + ": " + cw.first_failure);
        res.check(!cw.exhausted, name + ": inputs ran out before the window "
                                        "ended");
    }
    res.steal.emplace_back(name, mon.steal());
    res.samples[name + "_sub_windows_disturbed"] = mon.disturbed();
    res.samples[name + "_sub_windows_repeated"] = mon.repeated();
}

/** Served sample vs a blocking ask() on separate engines. */
std::uint64_t
checkAgainstBlocking(const db::TraceDatabase &db, const ServeInputs &in,
                     const std::vector<const Served *> &kept)
{
    std::unique_ptr<core::CacheMind> engines[2];
    for (std::uint8_t r = 0; r < 2; ++r) {
        engines[r] = std::make_unique<core::CacheMind>(
            core::CacheMind::Builder(db)
                .withRetriever(retrieverName(r))
                .build()
                .expect("reference engine"));
    }
    std::uint64_t mismatches = 0;
    for (const Served *s : kept) {
        const auto ref =
            engines[s->draw.retriever]->ask(in.render(in.items[s->draw.item]));
        if (!ref.ok() || ref.value().text != s->answer)
            ++mismatches;
    }
    return mismatches;
}

/** The ladder sample: questions of this workload not asked yet. */
std::vector<LadderQuestion>
ladderSample(const std::string &workload, const ServeInputs &in,
             const std::size_t *cursor)
{
    constexpr std::size_t kSample = 64;
    std::vector<LadderQuestion> out;
    if (workload == "serve_hot") {
        // Evenly across the families, each on its bound retriever, so
        // the serve round trip stays a hot-tier hit.
        const std::size_t step = std::max<std::size_t>(1, in.prefill.size() / kSample);
        for (std::size_t i = 0; i < in.prefill.size() && out.size() < kSample;
             i += step) {
            const Draw &d = in.prefill[i];
            out.push_back({in.render(in.items[d.item]), d.retriever});
        }
        return out;
    }
    // Cold: the next unused questions; longtail: the next draws.
    for (std::size_t k = 0; out.size() < kSample; ++k) {
        const auto &seq = in.sequence[k % 2];
        const std::size_t at = cursor[k % 2] + k / 2;
        if (at >= seq.size())
            break;
        out.push_back({in.render(in.items[seq[at].item]), seq[at].retriever});
    }
    return out;
}

} // namespace

RunResult
runServeWorkload(const Args &args)
{
    RunResult res;
    const std::string &wl = args.workload;

    // ---- set-up, timed kSetups times; the last one is kept.
    ServeSetup setup;
    std::vector<double> setup_s, build_s, warm_s;
    for (int i = 0; i < kSetups; ++i) {
        setup.server.reset();
        setup.db.reset();
        setup = setUp(res);
        setup_s.push_back(setup.total_s);
        build_s.push_back(setup.build_s);
        warm_s.push_back(setup.warmup_s);
        if (!res.problems.empty())
            return res;
    }
    const db::TraceDatabase &db = *setup.db;
    serve::Server &server = *setup.server;

    // ---- inputs and cache pre-fill (neither is timed).
    const int windows = args.trace ? 2 : 1;
    const ServeInputs in =
        makeServeInputs(wl, db, args.seed, args.seconds, windows);
    if (!in.prefill.empty()) {
        std::vector<Draw> halves[2];
        for (std::size_t i = 0; i < in.prefill.size(); ++i)
            halves[i % 2].push_back(in.prefill[i]);
        std::size_t pcursor[2] = {0, 0};
        const WindowResult fill = runWindow(server, in, halves, pcursor,
                                            nullptr, args.seed, nullptr,
                                            "fill");
        for (const auto &cw : fill.conn) {
            res.check(cw.failed == 0,
                      "pre-fill: " + cw.first_failure);
        }
    }

    // ---- the measured window.
    std::size_t cursor[2] = {0, 0};
    WindowMonitor mon(args.seconds);
    const WindowResult w = runWindow(server, in, in.sequence, cursor, &mon,
                                     args.seed, nullptr, "q");
    tally(w, mon, "window", res);
    const LatencySummary lat = summarize(w, mon);
    const CacheSplit split = cacheSplit(w);
    const double answers = static_cast<double>(w.answers());

    res.set("setup_s", median(setup_s));
    res.set("ttfe_p50_ms", lat.ttfe_p50_ms);
    res.set("ttlb_p50_ms", lat.ttlb_p50_ms);
    // Closed-loop throughput on 2 connections is 2 / mean latency and
    // inherits every stall, so it is only a diagnostic here; the gated
    // questions_per_s is the capacity: answers per second of server CPU.
    res.set("questions_per_s", ratio(1e6, lat.cpu_us_per_answer));
    res.set("cpu_us_per_answer", lat.cpu_us_per_answer);
    res.samples["answers"] = w.answers();
    res.samples["sub_windows"] = lat.sub_windows;
    res.samples["setups"] = setup_s.size();
    const auto [tail_q, beyond] =
        supportedTailPercentile(lat.all_ttlb.size());
    res.diag("closed_loop_answers_per_s", lat.answers_per_s, "1/s");
    res.diag("load_generator_cpu_us_per_answer", lat.load_cpu_us_per_answer,
             "us");
    res.diag("ttlb_p90_ms", lat.ttlb_p90_ms, "ms");
    res.diag("ttlb_p99_ms", percentile(lat.all_ttlb, 99.0), "ms");
    res.diag("ttlb_tail_percentile", tail_q, "%");
    res.diag("ttlb_tail_ms", percentile(lat.all_ttlb, tail_q), "ms");
    res.diag("ttlb_tail_samples_beyond", static_cast<double>(beyond), "count");

    // ---- workload self-checks: the defining property must hold.
    const double lookups = static_cast<double>(split.lookups);
    res.diag("cache.hot_share", ratio(split.hot, lookups), "ratio");
    res.diag("cache.secondary_share", ratio(split.secondary, lookups), "ratio");
    res.diag("cache.miss_share", ratio(split.misses, lookups), "ratio");
    if (wl == "serve_hot") {
        res.check(split.lookups > 0 && split.hot == split.lookups,
                  "serve_hot: in-window hot-hit share is not 1");
    } else if (wl == "serve_cold") {
        res.check(split.lookups > 0 && split.hot + split.secondary == 0,
                  "serve_cold: in-window hit share is not 0");
    } else {
        res.check(split.hot > 0 && split.secondary > 0 && split.misses > 0,
                  "serve_longtail: hot, secondary and miss shares must all "
                  "be above 0");
    }

    // ---- traced window: same inputs, client spans on.
    SpanLog spans(Clock::now());
    WindowResult traced;
    WindowMonitor traced_mon(args.trace ? args.seconds : 0.0);
    if (args.trace) {
        traced = runWindow(server, in, in.sequence, cursor, &traced_mon,
                           args.seed, &spans, "t");
        tally(traced, traced_mon, "traced_window", res);
    }

    // ---- answer checks after the windows.
    std::vector<const Served *> kept;
    for (const WindowResult *win :
         std::initializer_list<const WindowResult *>{&w, &traced}) {
        for (const auto &cw : win->conn) {
            for (const auto &s : cw.kept)
                kept.push_back(&s);
        }
    }
    const std::uint64_t mismatches = checkAgainstBlocking(db, in, kept);
    res.attempted += kept.size();
    res.failed += mismatches;
    res.check(mismatches == 0,
              "served answers differ from blocking ask() answers");
    res.samples["blocking_checks"] = kept.size();

    Connection quality_conn;
    const bool connected = quality_conn.open(server.port());
    std::uint64_t qid = 0;
    const Quality quality = gradeDefaultSuite(
        db, [&](const std::string &q, std::uint8_t r)
                -> std::optional<std::string> {
            if (!connected)
                return std::nullopt;
            const auto out = quality_conn.ask(q, retrieverName(r),
                                              "suite-" + std::to_string(qid++));
            if (!out.ok)
                return std::nullopt;
            return out.answer;
        });
    reportQuality(quality, res);
    res.set("peak_rss_mb", peakRssMb());
    const double ok_answers =
        static_cast<double>(res.attempted) - static_cast<double>(res.failed);
    res.set("ok_frac", ratio(ok_answers, static_cast<double>(res.attempted)));

    if (!args.trace)
        return res;

    // ---- per-layer metrics: counts from the untraced window.
    const LatencySummary tlat = summarize(traced, traced_mon);
    res.set("bench.trace_overhead_frac",
            ratio(tlat.ttlb_p50_ms - lat.ttlb_p50_ms, lat.ttlb_p50_ms));
    res.set("retrieval.cache.hot_hit_frac", ratio(split.hot, lookups));
    res.set("retrieval.cache.secondary_hit_frac",
            ratio(split.secondary, lookups));
    res.set("retrieval.cache.miss_frac", ratio(split.misses, lookups));
    res.set("retrieval.cache.cross_engine_hit_frac",
            ratio(split.hot + split.secondary, lookups));
    res.set("retrieval.cache.promotions_per_answer",
            ratio(split.promotions, answers));
    res.set("retrieval.cache.demotions_per_answer",
            ratio(split.demotions, answers));
    res.set("retrieval.cache.evictions_per_answer",
            ratio(split.evictions, answers));
    res.set("retrieval.cache.secondary_bytes",
            static_cast<double>(w.after.engine.cache_tiers.secondary.bytes));
    const auto &ia = w.before.engine.index;
    const auto &ib = w.after.engine.index;
    res.set("db.index_lookups_per_answer",
            ratio(static_cast<double>(ib.lookups - ia.lookups), answers));
    res.set("db.rows_skipped_per_answer",
            ratio(static_cast<double>(ib.rows_skipped - ia.rows_skipped),
                  answers));
    const auto &sa = w.before.engine.stream;
    const auto &sb = w.after.engine.stream;
    res.set("core.events_per_answer",
            ratio(static_cast<double>(sb.events - sa.events),
                  static_cast<double>(sb.streams - sa.streams)));
    res.set("serve.frames_per_answer",
            ratio(static_cast<double>(w.conn[0].frames + w.conn[1].frames),
                  answers));
    res.set("serve.bytes_per_answer",
            ratio(static_cast<double>(w.conn[0].bytes + w.conn[1].bytes),
                  answers));
    res.set("benchsuite.grade_us", median(quality.grade_us));
    res.set("db.build_s", median(build_s));
    res.set("core.warmup_s", median(warm_s));

    runLadder(db, server.port(), ladderSample(wl, in, cursor),
              wl != "serve_cold", &spans, res);
    runBuildStages(res);
    if (!args.span_dir.empty()) {
        spans.writeChromeJson(args.span_dir + "/" + wl + "-" +
                              std::to_string(args.seed) + ".trace.json");
    }
    res.samples["spans"] = spans.size();
    return res;
}

} // namespace e2ebench
