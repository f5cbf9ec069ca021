/**
 * @file
 * The end-to-end benchmark binary. One invocation runs one workload:
 *
 *   e2ebench --workload serve_hot --seed 7 --seconds 5 --trace 0
 *
 * It prints a host record and diagnostics, then, as its last line, one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end catalogue below; with
 * --trace 1 they are the per-layer catalogue. The catalogues mirror
 * BENCHMARK.json at the repository root.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "core/cachemind.hh"
#include "db/builder.hh"
#include "inputs.hh"
#include "query/parser.hh"
#include "retrieval/bundle_codec.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "workloads.hh"

using namespace e2ebench;
using namespace cachemind;

namespace {

struct CatalogEntry
{
    const char *name;
    const char *unit;
};

const CatalogEntry kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "ratio"},
    {"ttfe_p50_ms", "ms"},
    {"ttlb_p50_ms", "ms"},
    {"cpu_us_per_answer", "us"},
    {"questions_per_s", "1/s"},
    {"tg_pct_sieve", "%"},
    {"ara_pct_sieve", "%"},
    {"tg_pct_ranger", "%"},
    {"ara_pct_ranger", "%"},
};

const CatalogEntry kPerLayer[] = {
    {"query.parse_us", "us"},
    {"retrieval.sieve_us", "us"},
    {"retrieval.ranger_us", "us"},
    {"llm.generate_us", "us"},
    {"core.ask_us", "us"},
    {"core.ask_hit_us", "us"},
    {"core.stream_first_evidence_us", "us"},
    {"core.stream_done_us", "us"},
    {"core.stream_hop_us", "us"},
    {"core.events_per_answer", "count"},
    {"serve.round_trip_us", "us"},
    {"serve.overhead_us", "us"},
    {"serve.frames_per_answer", "count"},
    {"serve.bytes_per_answer", "bytes"},
    {"retrieval.codec_encode_us", "us"},
    {"retrieval.codec_decode_us", "us"},
    {"retrieval.cache.hot_hit_frac", "ratio"},
    {"retrieval.cache.secondary_hit_frac", "ratio"},
    {"retrieval.cache.miss_frac", "ratio"},
    {"retrieval.cache.promotions_per_answer", "count"},
    {"retrieval.cache.demotions_per_answer", "count"},
    {"retrieval.cache.evictions_per_answer", "count"},
    {"retrieval.cache.secondary_bytes", "bytes"},
    {"retrieval.cache.cross_engine_hit_frac", "ratio"},
    {"db.index_lookups_per_answer", "count"},
    {"db.rows_skipped_per_answer", "count"},
    {"core.batch_us_per_question", "us"},
    {"benchsuite.grade_us", "us"},
    {"trace.generate_s", "s"},
    {"sim.capture_s", "s"},
    {"sim.oracle_s", "s"},
    {"sim.replay_s", "s"},
    {"db.table_build_s", "s"},
    {"db.build_s", "s"},
    {"core.warmup_s", "s"},
    {"bench.trace_overhead_frac", "ratio"},
};

const char *const kWorkloads[] = {"serve_hot", "serve_cold",
                                  "serve_longtail", "eval_sweep"};

std::string
number(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: e2ebench --workload "
                 "<serve_hot|serve_cold|serve_longtail|eval_sweep> "
                 "--seed <n> --seconds <s> --trace <0|1> [--span-dir <dir>] "
                 "[--dump-inputs]\n");
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--dump-inputs") {
            args.dump_inputs = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = v;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(v.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = v == "1";
            if (v != "0" && v != "1")
                return false;
        } else if (flag == "--span-dir") {
            args.span_dir = v;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    if (args.dump_inputs)
        return true;
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || args.workload == w;
    return known && args.seconds > 0.0;
}

/** The host record: never gated, printed beside the metrics. */
void
printHost(const Args &args, const RunResult &res)
{
    std::uint64_t repeated = 0;
    for (const auto &[name, n] : res.samples) {
        if (name.size() > 21 &&
            name.compare(name.size() - 21, 21, "_sub_windows_repeated") == 0)
            repeated += n;
    }
    std::ostringstream os;
    os << "host {\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu_model\":\"" << serve::jsonEscape(cpuModel())
       << "\",\"workload\":\"" << args.workload << "\",\"seed\":"
       << args.seed << ",\"seconds\":" << number(args.seconds)
       << ",\"trace\":" << (args.trace ? 1 : 0)
       << ",\"sub_windows_repeated\":" << repeated
       << ",\"steal_share\":{";
    bool first = true;
    for (const auto &[name, share] : res.steal) {
        os << (first ? "" : ",") << "\"" << name << "\":" << number(share);
        first = false;
    }
    os << "},\"samples\":{";
    first = true;
    for (const auto &[name, n] : res.samples) {
        os << (first ? "" : ",") << "\"" << name << "\":" << n;
        first = false;
    }
    os << "}}";
    std::cout << os.str() << "\n";
}

int
emit(const Args &args, RunResult res)
{
    std::ostringstream metrics;
    bool first = true;
    const auto add = [&](const CatalogEntry &e) {
        const auto it = res.values.find(e.name);
        double v = 0.0;
        if (it == res.values.end())
            res.problems.push_back(std::string("metric not measured: ") +
                                   e.name);
        else if (!std::isfinite(it->second))
            res.problems.push_back(std::string("metric not finite: ") + e.name);
        else
            v = it->second;
        metrics << (first ? "" : ",") << "\"" << e.name << "\":{\"value\":"
                << number(v) << ",\"unit\":\"" << e.unit << "\"}";
        first = false;
    };
    if (args.trace) {
        for (const auto &e : kPerLayer)
            add(e);
    } else {
        for (const auto &e : kEndToEnd)
            add(e);
    }

    printHost(args, res);
    std::ostringstream diag;
    diag << "diagnostics {";
    first = true;
    for (const auto &d : res.diagnostics) {
        diag << (first ? "" : ",") << "\"" << d.name << "\":{\"value\":"
             << number(d.value) << ",\"unit\":\"" << d.unit << "\"}";
        first = false;
    }
    diag << "}";
    std::cout << diag.str() << "\n";
    for (const auto &p : res.problems)
        std::cout << "problem: " << p << "\n";

    std::cout << "{\"correct\":" << (res.correct() ? "true" : "false")
              << ",\"attempted\":" << std::max<std::uint64_t>(res.attempted, 1)
              << ",\"failed\":" << res.failed << ",\"metrics\":{"
              << metrics.str() << "}}" << std::endl;
    return 0;
}

// ------------------------------------------------------- --dump-inputs

void
dumpServe(const std::string &wl, const db::TraceDatabase &db,
          const query::NlQueryParser &parser, const Args &args)
{
    const ServeInputs in = makeServeInputs(wl, db, args.seed, args.seconds, 1);
    const serve::ServeOptions defaults;
    std::map<std::string, std::size_t> kinds;
    std::map<std::string, std::set<std::string>> intents;
    std::set<std::string> slot_keys;
    // Cold draws are checked over the prefix one window consumes at
    // most (both connections); the other populations in full.
    const std::size_t checked =
        std::min<std::size_t>(in.items.size(), wl == "serve_cold" ? 20000 : in.items.size());
    for (std::size_t i = 0; i < checked; ++i) {
        const Item &item = in.items[i];
        ++kinds[kindName(item.kind)];
        const auto parsed = parser.parse(in.render(item));
        intents[kindName(item.kind)].insert(query::intentName(parsed.intent));
        slot_keys.insert(parsed.slotKey());
    }
    std::ostringstream os;
    os << "inputs {\"workload\":\"" << wl << "\",\"seed\":" << args.seed
       << ",\"digest\":\"" << std::hex << digest(in) << std::dec
       << "\",\"items\":" << in.items.size()
       << ",\"requests_per_connection\":" << in.sequence[0].size()
       << ",\"prefill\":" << in.prefill.size() << ",\"checked\":" << checked
       << ",\"distinct_slot_keys\":" << slot_keys.size() << ",\"kinds\":{";
    bool first = true;
    for (const auto &[k, n] : kinds) {
        os << (first ? "" : ",") << "\"" << k << "\":" << n;
        first = false;
    }
    os << "},\"intents\":{";
    first = true;
    for (const auto &[k, set] : intents) {
        os << (first ? "" : ",") << "\"" << k << "\":\"";
        for (const auto &i : set)
            os << i << (i == *set.rbegin() ? "" : "|");
        os << "\"";
        first = false;
    }
    os << "}";
    if (wl == "serve_hot") {
        std::set<std::pair<std::uint32_t, std::uint8_t>> keys;
        for (const auto &d : in.prefill)
            keys.insert({d.item, d.retriever});
        for (const auto &seq : in.sequence) {
            for (const auto &d : seq)
                keys.insert({d.item, d.retriever});
        }
        os << ",\"keys\":" << keys.size()
           << ",\"hot_capacity\":" << defaults.retrieval_cache_capacity;
    }
    if (wl == "serve_longtail") {
        // Sizing: mean encoded bundle over a sample of the population,
        // against the hot tier's bundle count and the secondary budget.
        std::unique_ptr<core::CacheMind> engines[2];
        for (std::uint8_t r = 0; r < 2; ++r) {
            engines[r] = std::make_unique<core::CacheMind>(
                core::CacheMind::Builder(db)
                    .withRetriever(retrieverName(r))
                    .withRetrievalCacheCapacity(0)
                    .build()
                    .expect("sizing engine"));
        }
        double bytes = 0.0;
        std::size_t n = 0;
        for (std::size_t i = 0; i < in.items.size(); i += 64) {
            for (std::uint8_t r = 0; r < 2; ++r) {
                const auto resp = engines[r]->ask(in.render(in.items[i]));
                if (resp.ok()) {
                    bytes += static_cast<double>(
                        retrieval::encodeBundle(resp.value().bundle).size());
                    ++n;
                }
            }
        }
        const double mean = n ? bytes / static_cast<double>(n) : 0.0;
        os << ",\"keys\":" << 2 * in.items.size()
           << ",\"hot_capacity\":" << defaults.retrieval_cache_capacity
           << ",\"mean_encoded_bytes\":" << number(mean)
           << ",\"secondary_fit_keys\":"
           << number(mean > 0 ? static_cast<double>(
                                    defaults.retrieval_cache_secondary_bytes) /
                                    mean
                              : 0.0);
    }
    os << "}";
    std::cout << os.str() << "\n";
}

void
dumpEval(const db::TraceDatabase &db, const Args &args)
{
    const EvalInputs in = makeEvalInputs(db, args.seed);
    std::map<std::string, std::size_t> categories;
    for (const auto &suite : in.suites) {
        for (const auto &q : suite)
            ++categories[benchsuite::categoryName(q.category)];
    }
    std::ostringstream os;
    os << "inputs {\"workload\":\"eval_sweep\",\"seed\":" << args.seed
       << ",\"digest\":\"" << std::hex << digest(in) << std::dec
       << "\",\"suites\":" << in.suites.size()
       << ",\"questions\":" << in.suites.size() * in.suites[0].size()
       << ",\"categories\":{";
    bool first = true;
    for (const auto &[k, n] : categories) {
        os << (first ? "" : ",") << "\"" << k << "\":" << n;
        first = false;
    }
    os << "}}";
    std::cout << os.str() << "\n";
}

/** Print every workload's input digest and properties (tests). */
int
dumpInputs(const Args &args)
{
    const auto db = db::buildDatabase();
    const query::NlQueryParser parser(db.workloads(), db.policies());
    for (const char *wl : kWorkloads) {
        if (!args.workload.empty() && args.workload != wl)
            continue;
        if (std::strcmp(wl, "eval_sweep") == 0)
            dumpEval(db, args);
        else
            dumpServe(wl, db, parser, args);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 2;
    }
    if (args.dump_inputs)
        return dumpInputs(args);
    RunResult res = args.workload == "eval_sweep" ? runEvalSweep(args)
                                                  : runServeWorkload(args);
    return emit(args, std::move(res));
}
