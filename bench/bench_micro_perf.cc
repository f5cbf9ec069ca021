/**
 * @file
 * E15: google-benchmark microbenchmarks for the performance-critical
 * substrate paths — cache simulation throughput, oracle pre-passes,
 * embedding, retrieval latency (Sieve vs Ranger), the DSL
 * interpreter, cold-question retrieval over the postings index vs the
 * reference scan, the per-shard index build itself, and the serving
 * pipeline's cross-question retrieval cache (repeated-slot askBatch,
 * cache on vs off). These back the Figure 9 latency ordering with
 * statistically sound timings.
 *
 * The binary emits the machine-readable perf trajectory
 * `BENCH_micro_perf.json` by default (cold vs cached retrieval
 * throughput, index build time, cache hit rates); pass your own
 * --benchmark_out=... to override.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/str.hh"
#include "core/cachemind.hh"
#include "obs/trace.hh"
#include "obs/trace_export.hh"
#include "db/builder.hh"
#include "db/index.hh"
#include "db/postings_ops.hh"
#include "policy/basic_policies.hh"
#include "query/dsl.hh"
#include "query/parser.hh"
#include "retrieval/cache.hh"
#include "retrieval/ranger.hh"
#include "retrieval/sieve.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/core_model.hh"
#include "sim/llc_replay.hh"
#include "text/embedding.hh"
#include "trace/workload.hh"

using namespace cachemind;

namespace {

/** Shared fixtures (built once; google-benchmark reruns the loop). */
const trace::Trace &
mcfTrace()
{
    static const trace::Trace t =
        trace::makeWorkload(trace::WorkloadKind::Mcf)->generate(60000);
    return t;
}

const std::vector<sim::LlcAccess> &
mcfStream()
{
    static const auto stream = sim::captureLlcStream(mcfTrace());
    return stream;
}

const db::TraceDatabase &
microDb()
{
    static const auto database = db::buildSingleDatabase(
        trace::WorkloadKind::Mcf, policy::PolicyKind::Lru, 60000);
    return database;
}

} // namespace

static void
BM_CacheSimThroughput(benchmark::State &state)
{
    const auto &t = mcfTrace();
    for (auto _ : state) {
        sim::Hierarchy hier(sim::defaultHierarchyConfig(),
                            std::make_unique<policy::LruPolicy>());
        for (const auto &r : t)
            benchmark::DoNotOptimize(hier.access(r.pc, r.address,
                                                 r.type));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_CacheSimThroughput)->Unit(benchmark::kMillisecond);

static void
BM_OraclePrePass(benchmark::State &state)
{
    const auto &stream = mcfStream();
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::computeOracle(stream));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_OraclePrePass)->Unit(benchmark::kMillisecond);

static void
BM_BeladyReplay(benchmark::State &state)
{
    const auto &stream = mcfStream();
    static const auto oracle = sim::computeOracle(stream);
    for (auto _ : state) {
        sim::LlcReplayer rep(sim::defaultHierarchyConfig().llc,
                             std::make_unique<policy::BeladyPolicy>());
        benchmark::DoNotOptimize(rep.replay(stream, &oracle, nullptr));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_BeladyReplay)->Unit(benchmark::kMillisecond);

static void
BM_HashEmbedder(benchmark::State &state)
{
    const text::HashEmbedder embedder(128);
    const std::string doc =
        "TRACE_ID: mcf_evictions_lru program_counter=0x4037aa "
        "memory_address=0x1b73be82e3f evict=Cache Miss recency=recent";
    for (auto _ : state)
        benchmark::DoNotOptimize(embedder.embed(doc));
}
BENCHMARK(BM_HashEmbedder);

namespace {

/**
 * Questions of the shapes the engine parses most: per-PC and
 * per-access questions as the serving benchmark asks them, and a
 * spread of CacheMindBench suite questions.
 */
const std::vector<std::string> &
nameRankQuestions()
{
    static const std::vector<std::string> questions = {
        "What is the miss rate for PC 0x4037aa in the mcf workload with "
        "LRU?",
        "How many times did PC 0x409270 appear in the astar workload "
        "under PARROT?",
        "What is the average evicted reuse distance of PC 0x40170a for "
        "the lbm workload with Belady?",
        "What is the standard deviation of the reuse distance of PC "
        "0x401d9b in the mcf workload under MLP?",
        "What is the average recency of PC 0x402ec1 in the mcf workload "
        "with PARROT?",
        "Why does PC 0x409228 have a high miss rate in the astar "
        "workload under LRU? Examine the assembly context and analyze.",
        "Which policy has the lowest miss rate for PC 0x405832 in the "
        "astar workload?",
        "Does the memory access with PC 0x401dd4 and address "
        "0x35e78006d28 result in a cache hit or cache miss for the lbm "
        "workload and Belady replacement policy?",
        "Does the memory access with PC 0x4037ba and address "
        "0x1b75001b6c0 result in a cache hit or cache miss for the mcf "
        "workload and PARROT replacement policy?",
        "Does the memory access with PC 0x409270 and address "
        "0x2bfd44dd8d3 result in a cache hit or cache miss for the astar "
        "workload and LRU replacement policy?",
        "Decompose a memory address into offset, index and tag bits for "
        "a cache with 64-byte lines and 2048 sets.",
        "Write code to compute the number of cache hits for PC 0x401e4c "
        "and address 0x35e7a598de0 in the lbm workload under Belady.",
        "Why does Belady outperform LRU on PC 0x4037ca in the mcf "
        "workload?",
        "Comparing the astar, lbm, mcf workloads under MLP, which has the "
        "highest cache miss rate? Analyze the workload characteristics "
        "that explain it.",
        "What is the sum of the evicted reuse distances caused by PC "
        "0x405832 in the astar workload under PARROT?",
        "Compare beladys decisions with lru on the lbm workload.",
    };
    return questions;
}

} // namespace

static void
BM_NameRank(benchmark::State &state)
{
    // Both vocabularies of the default database, ranked for every
    // question: arg 0 through the reference text::rankNames, arg 1
    // through the parser's prepared name indexes, including
    // lower-casing, tokenizing and embedding each question.
    const bool use_index = state.range(0) != 0;
    const std::vector<std::string> workloads = {"astar", "lbm", "mcf"};
    const std::vector<std::string> policies = {"belady", "lru", "mlp",
                                               "parrot"};
    const text::HashEmbedder embedder(128);
    const text::NameIndex workload_index(workloads, embedder);
    const text::NameIndex policy_index(policies, embedder);
    const auto &questions = nameRankQuestions();
    for (auto _ : state) {
        for (const auto &q : questions) {
            if (use_index) {
                const text::PreparedQuery prepared(q, embedder);
                benchmark::DoNotOptimize(workload_index.rank(prepared));
                benchmark::DoNotOptimize(policy_index.rank(prepared));
            } else {
                benchmark::DoNotOptimize(
                    text::rankNames(q, workloads, embedder));
                benchmark::DoNotOptimize(
                    text::rankNames(q, policies, embedder));
            }
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(questions.size()));
}
BENCHMARK(BM_NameRank)
    ->Arg(0)  // reference: text::rankNames
    ->Arg(1)  // prepared name indexes
    ->Unit(benchmark::kMicrosecond);

static void
BM_SieveRetrieval(benchmark::State &state)
{
    const auto &database = microDb();
    retrieval::SieveRetriever sieve(database);
    const query::NlQueryParser parser(database.workloads(),
                                      database.policies());
    const std::string query =
        "What is the miss rate for PC 0x4037aa in the mcf workload "
        "with LRU?";
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sieve.retrieveParsed(parser.parse(query)));
}
BENCHMARK(BM_SieveRetrieval)->Unit(benchmark::kMicrosecond);

static void
BM_RangerRetrieval(benchmark::State &state)
{
    const auto &database = microDb();
    retrieval::RangerRetriever ranger(database);
    const query::NlQueryParser parser(database.workloads(),
                                      database.policies());
    const std::string query =
        "What is the miss rate for PC 0x4037aa in the mcf workload "
        "with LRU?";
    for (auto _ : state)
        benchmark::DoNotOptimize(
            ranger.retrieveParsed(parser.parse(query)));
}
BENCHMARK(BM_RangerRetrieval)->Unit(benchmark::kMicrosecond);

static void
BM_DslCountFullTable(benchmark::State &state)
{
    const auto &database = microDb();
    const query::Interpreter interp(database);
    query::DslProgram prog;
    prog.trace_key = "mcf_evictions_lru";
    prog.pc = 0x4037aa;
    prog.op = query::DslOp::CountRows;
    for (auto _ : state)
        benchmark::DoNotOptimize(interp.run(prog));
}
BENCHMARK(BM_DslCountFullTable)->Unit(benchmark::kMicrosecond);

static void
BM_StatsExpertBuild(benchmark::State &state)
{
    const auto &database = microDb();
    const auto *entry = database.find("mcf_evictions_lru");
    for (auto _ : state)
        benchmark::DoNotOptimize(db::StatsExpert(entry->table));
}
BENCHMARK(BM_StatsExpertBuild)->Unit(benchmark::kMillisecond);

static void
BM_TraceIndexBuild(benchmark::State &state)
{
    // The one-time per-shard cost the lazy postings index pays before
    // filters and DSL aggregates go sublinear.
    const auto &database = microDb();
    const auto *entry = database.find("mcf_evictions_lru");
    for (auto _ : state) {
        db::TraceIndex index(entry->table);
        benchmark::DoNotOptimize(index.totals());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(entry->table.size()));
}
BENCHMARK(BM_TraceIndexBuild)->Unit(benchmark::kMillisecond);

namespace {

/**
 * The postings-intersection grid: row-id lists drawn at the given
 * densities (per-mille of a 4-chunk universe), so the arms cover the
 * adaptive selector's whole decision surface — skewed pairs (gallop),
 * balanced sparse pairs (linear SIMD merge), and dense pairs (bitmap
 * containers, word-wise AND).
 */
struct IntersectFixture
{
    std::vector<std::uint32_t> a, b;
    db::PostingsStore sa, sb;

    IntersectFixture(int density_a_pm, int density_b_pm)
    {
        std::mt19937 rng(0x9E3779B9u ^
                         static_cast<std::uint32_t>(
                             density_a_pm * 1000 + density_b_pm));
        const std::uint32_t universe = 4u * db::kPostingsChunkSize;
        const auto draw = [&](int pm) {
            std::bernoulli_distribution keep(pm / 1000.0);
            std::vector<std::uint32_t> rows;
            for (std::uint32_t r = 0; r < universe; ++r)
                if (keep(rng))
                    rows.push_back(r);
            return rows;
        };
        a = draw(density_a_pm);
        b = draw(density_b_pm);
        sa.appendKey(a.data(), a.size());
        sa.shrink();
        sb.appendKey(b.data(), b.size());
        sb.shrink();
    }
};

const IntersectFixture &
intersectFixture(int density_a_pm, int density_b_pm)
{
    // One fixture per grid point, built lazily and kept for the run.
    static std::vector<std::unique_ptr<IntersectFixture>> cache;
    static std::vector<std::pair<int, int>> keys;
    for (std::size_t i = 0; i < keys.size(); ++i)
        if (keys[i] == std::make_pair(density_a_pm, density_b_pm))
            return *cache[i];
    keys.emplace_back(density_a_pm, density_b_pm);
    cache.push_back(std::make_unique<IntersectFixture>(density_a_pm,
                                                       density_b_pm));
    return *cache.back();
}

/**
 * The pre-PR kernel, kept verbatim for the speedup denominator: flat
 * uint32 postings with exponential-probe galloping from the old
 * TraceIndex::intersect. BM_PostingsIntersect's perf gate is measured
 * against this arm on the same lists.
 */
std::size_t
flatGallopLowerBound(const std::vector<std::uint32_t> &rows,
                     std::size_t lo, std::uint32_t target)
{
    std::size_t step = 1;
    std::size_t hi = lo;
    while (hi < rows.size() && rows[hi] < target) {
        lo = hi;
        hi += step;
        step <<= 1;
    }
    const auto begin = rows.begin() +
                       static_cast<std::ptrdiff_t>(lo);
    const auto end = rows.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(hi, rows.size()));
    return static_cast<std::size_t>(
        std::lower_bound(begin, end, target) - rows.begin());
}

void
flatGallopIntersect(const std::vector<std::uint32_t> &small,
                    const std::vector<std::uint32_t> &large,
                    std::vector<std::uint32_t> &out)
{
    out.clear();
    std::size_t pos = 0;
    for (const std::uint32_t row : small) {
        pos = flatGallopLowerBound(large, pos, row);
        if (pos == large.size())
            break;
        if (large[pos] == row)
            out.push_back(row);
    }
}

} // namespace

static void
BM_PostingsIntersect(benchmark::State &state)
{
    // Chunked containers + adaptive kernel selector (the PR under
    // test). Grid: {skewed sparse/dense, balanced sparse, balanced
    // mid, dense/dense} as (density_a, density_b) per-mille pairs.
    const auto &fx = intersectFixture(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(1)));
    const db::PostingsList la = fx.sa.list(0);
    const db::PostingsList lb = fx.sb.list(0);
    std::vector<std::uint32_t> out;
    for (auto _ : state) {
        db::intersectLists(la, lb, 0, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(fx.a.size() + fx.b.size()));
    state.counters["matches"] = static_cast<double>(out.size());
    state.counters["simd"] = db::simdCompiled() ? 1.0 : 0.0;
}
BENCHMARK(BM_PostingsIntersect)
    ->Args({1, 100})   // skewed: gallop territory
    ->Args({10, 10})   // balanced sparse: linear (SIMD) merge
    ->Args({50, 50})   // balanced mid: merge near the array cap
    ->Args({200, 200}) // dense: bitmap word-AND
    ->Unit(benchmark::kMicrosecond);

static void
BM_PostingsIntersectRef(benchmark::State &state)
{
    // The pre-PR galloping baseline on the identical lists; the perf
    // gate tracks BM_PostingsIntersect's speedup over this arm.
    const auto &fx = intersectFixture(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(1)));
    const auto &small = fx.a.size() <= fx.b.size() ? fx.a : fx.b;
    const auto &large = fx.a.size() <= fx.b.size() ? fx.b : fx.a;
    std::vector<std::uint32_t> out;
    for (auto _ : state) {
        flatGallopIntersect(small, large, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(fx.a.size() + fx.b.size()));
    state.counters["matches"] = static_cast<double>(out.size());
}
BENCHMARK(BM_PostingsIntersectRef)
    ->Args({1, 100})
    ->Args({10, 10})
    ->Args({50, 50})
    ->Args({200, 200})
    ->Unit(benchmark::kMicrosecond);

namespace {

/**
 * The cold-sweep scenario (the CacheMindBench common case): every
 * question is unique, so the cross-question bundle cache never hits
 * and each question pays full filter/DSL execution on its shard.
 */
const db::TraceDatabase &
fullDb()
{
    // The default 12-table composition (3 workloads x 4 policies),
    // bounded per-trace so the one-time fixture build stays quick.
    static const auto database = [] {
        db::BuildOptions options;
        options.accesses_override = 150000;
        options.build_threads = 0;
        return db::buildDatabase(options);
    }();
    return database;
}

std::vector<std::string>
coldUniqueQuestions()
{
    const auto &database = fullDb();
    std::vector<std::string> questions;
    for (const auto &key : database.keys()) {
        const auto *entry = database.find(key);
        const auto &pcs = entry->table.uniquePcsScan();
        // 8 distinct PCs per shard, spread across the PC space; one
        // DSL-heavy question form per (shard, pc) — all unique.
        for (std::size_t k = 0; k < 8 && k < pcs.size(); ++k) {
            const std::string pc = str::hex(
                pcs[(k * pcs.size()) / 8 % pcs.size()]);
            const std::string where = " in the " + entry->workload +
                                      " workload under " +
                                      entry->policy + "?";
            switch (k % 4) {
              case 0:
                questions.push_back(
                    "What is the miss rate for PC " + pc + where);
                break;
              case 1:
                questions.push_back("How many times did PC " + pc +
                                    " appear" + where);
                break;
              case 2:
                questions.push_back(
                    "What is the average reuse distance of PC " + pc +
                    where);
                break;
              default:
                questions.push_back(
                    "What is the standard deviation of the reuse "
                    "distance of PC " + pc + where);
                break;
            }
        }
    }
    return questions;
}

} // namespace

static void
BM_ColdQuestionRetrieval(benchmark::State &state)
{
    // All-unique questions, retrieval cache off: arg 0 executes on
    // the pre-index reference scan path, arg 1 on the postings index.
    const bool use_index = state.range(0) != 0;
    const auto questions = coldUniqueQuestions();
    auto engine =
        core::CacheMind::Builder(fullDb())
            .withRetriever("ranger")
            .withBatchWorkers(4)
            .withRetrievalCacheCapacity(0)
            .withRetrieverParam("use_index", use_index ? "1" : "0")
            .build()
            .expect("cold-question bench engine");
    // Build every shard index off the clock: otherwise whichever arm
    // runs first pays the lazy builds inside its timed loop.
    engine.warmup();
    for (auto _ : state) {
        auto batch = engine.askBatch(questions);
        benchmark::DoNotOptimize(batch);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(questions.size()));
    const auto stats = engine.stats();
    state.counters["index_build_ms"] = stats.index.build_ms_total;
    state.counters["indexed_lookups"] =
        static_cast<double>(stats.index.lookups);
    state.counters["rows_skipped"] =
        static_cast<double>(stats.index.rows_skipped);
}
BENCHMARK(BM_ColdQuestionRetrieval)
    ->Arg(0)  // reference scan path
    ->Arg(1)  // postings index
    ->Unit(benchmark::kMillisecond);

static void
BM_MultiProgramPlan(benchmark::State &state)
{
    // Ranger's policy-comparison plan: parse, then one DSL program per
    // policy shard, executed in plan order on the calling thread.
    const auto &database = fullDb();
    retrieval::RangerRetriever ranger(database);
    const query::NlQueryParser parser(database.workloads(),
                                      database.policies());
    const std::vector<std::string> questions = {
        "Which policy has the lowest miss rate in the mcf workload?",
        "Which policy has the highest miss rate in the astar "
        "workload?",
        "Which policy has the lowest miss rate in the lbm workload?",
    };
    std::size_t qi = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(ranger.retrieveParsed(
            parser.parse(questions[qi++ % questions.size()])));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MultiProgramPlan)->Unit(benchmark::kMillisecond);

namespace {

/**
 * The serving-cache scenario: a batch of 64 questions drawn from 8
 * distinct slot tuples (each asked through several phrasings, the
 * overlapping-users pattern of the paper's serving story). With the
 * cross-question cache on, slot-equal questions share one retrieval.
 */
std::vector<std::string>
repeatedSlotQuestions()
{
    const auto &database = microDb();
    const auto *entry = database.find("mcf_evictions_lru");
    std::vector<std::string> questions;
    for (std::size_t slot = 0; slot < 8; ++slot) {
        const std::string pc =
            str::hex(entry->table.pcAt(slot * 64));
        const std::string a = "What is the miss rate for PC " + pc +
                              " in the mcf workload with LRU?";
        const std::string b = "For the mcf workload under LRU, what "
                              "miss rate does PC " +
                              pc + " have?";
        for (int rep = 0; rep < 4; ++rep) {
            questions.push_back(a);
            questions.push_back(b);
        }
    }
    return questions;
}

} // namespace

static void
BM_AskBatchRepeatedSlots(benchmark::State &state)
{
    const bool cache_on = state.range(0) != 0;
    const auto questions = repeatedSlotQuestions();
    auto engine =
        core::CacheMind::Builder(microDb())
            .withBatchWorkers(4)
            .withRetrievalCacheCapacity(cache_on ? 4096 : 0)
            .build()
            .expect("bench engine");
    // Index builds off the clock, as in BM_ColdQuestionRetrieval.
    engine.warmup();
    for (auto _ : state) {
        auto batch = engine.askBatch(questions);
        benchmark::DoNotOptimize(batch);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(questions.size()));
    const auto stats = engine.stats();
    state.counters["hit_rate"] = stats.cache.hitRate();
    state.counters["cache_hits"] =
        static_cast<double>(stats.cache.hits);
    state.counters["cache_misses"] =
        static_cast<double>(stats.cache.misses);
}
BENCHMARK(BM_AskBatchRepeatedSlots)
    ->Arg(0)  // cache off
    ->Arg(1)  // cache on
    ->Unit(benchmark::kMillisecond);

namespace {

/**
 * The interactive cold sweep: reasoning-heavy per-PC "why" questions,
 * one per shard with a distinct PC, every question unique so the
 * bundle cache never hits. Each full answer pays real analytic
 * retrieval — premise scan, evidence slice, per-PC statistics across
 * every policy shard, ranked top-PC stats — plus generation, while
 * the streamed overview chunk goes on the wire before any of it.
 */
std::vector<std::string>
explainQuestions()
{
    const auto &database = fullDb();
    std::vector<std::string> questions;
    const auto policies = database.policies();
    std::size_t k = 0;
    for (const auto &key : database.keys()) {
        const auto *entry = database.find(key);
        const std::string pc =
            str::hex(entry->table.pcAt((k * 257) % entry->table.size()));
        const std::string &other =
            policies[(k + 1) % policies.size()];
        questions.push_back("Why does " + entry->policy +
                            " outperform " + other + " on PC " + pc +
                            " in the " + entry->workload +
                            " workload?");
        ++k;
    }
    return questions;
}

} // namespace

static void
BM_AskStreamFirstEvent(benchmark::State &state)
{
    // Time-to-first-evidence vs full-answer latency on the cold
    // sweep: arg 0 measures a blocking ask() end to end; arg 1
    // measures askStream() from call to the first EvidenceChunk
    // reaching the consumer (the streamed overview goes on the wire
    // before the ranked-stats analysis and generation run). Same
    // engine config, same questions, warmed indexes for both.
    const bool streamed = state.range(0) != 0;
    const auto questions = explainQuestions();
    auto engine = core::CacheMind::Builder(fullDb())
                      .withRetrievalCacheCapacity(0)
                      .build()
                      .expect("stream bench engine");
    engine.warmup();
    std::size_t qi = 0;
    for (auto _ : state) {
        const auto &question = questions[qi++ % questions.size()];
        if (streamed) {
            auto stream =
                engine.askStream(question).expect("askStream");
            while (auto event = stream.next()) {
                if (event->kind ==
                    core::StreamEvent::Kind::EvidenceChunk) {
                    break;
                }
            }
            // Drain the rest off the clock: only the latency until
            // first evidence is the measured quantity.
            state.PauseTiming();
            while (stream.next()) {
            }
            state.ResumeTiming();
        } else {
            benchmark::DoNotOptimize(engine.ask(question));
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
    const auto stats = engine.stats();
    if (streamed) {
        state.counters["first_event_p50_ms"] =
            stats.stream.first_event_p50_ms;
        state.counters["events"] =
            static_cast<double>(stats.stream.events);
    }
}
BENCHMARK(BM_AskStreamFirstEvent)
    ->Arg(0)  // full blocking answer
    ->Arg(1)  // time to first streamed evidence
    ->Unit(benchmark::kMicrosecond);

static void
BM_ServeRoundTrip(benchmark::State &state)
{
    // One line-protocol ask round trip through the real serving
    // path: TCP write -> the session thread runs the pipeline and
    // writes each event as a frame -> done, against a warm pooled
    // engine with the shared retrieval cache on. The gap between this and BM_AskStreamFirstEvent's blocking
    // arm is the serving overhead itself (framing, socket hops,
    // session bookkeeping), which is what this entry tracks.
    static serve::Server *server = [] {
        serve::ServeOptions opts;
        opts.max_sessions = 4;
        auto *s = new serve::Server(fullDb(), opts);
        std::string error;
        if (!s->start(&error))
            std::fprintf(stderr, "serve bench: %s\n", error.c_str());
        return s;
    }();
    serve::LineClient client;
    if (!client.connect("127.0.0.1", server->port()) ||
        !client.recvLine().has_value()) { // hello banner
        state.SkipWithError("serve bench: connect failed");
        return;
    }
    const auto questions = explainQuestions();
    std::size_t qi = 0;
    const auto roundTrip = [&](const std::string &question) {
        serve::Request req;
        req.op = serve::Request::Op::Ask;
        req.id = std::to_string(qi);
        req.question = question;
        req.retriever = "sieve";
        if (!client.sendLine(serve::renderRequest(req)))
            return false;
        while (auto line = client.recvLine()) {
            if (line->find("\"frame\":\"done\"") != std::string::npos)
                return true;
            if (line->find("\"frame\":\"error\"") != std::string::npos)
                return false;
        }
        return false;
    };
    // Pay engine construction + index warm-up off the clock.
    if (!roundTrip(questions[0])) {
        state.SkipWithError("serve bench: warm-up ask failed");
        return;
    }
    for (auto _ : state) {
        if (!roundTrip(questions[qi++ % questions.size()])) {
            state.SkipWithError("serve bench: ask failed");
            return;
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
    const auto stats = server->stats();
    state.counters["completed"] =
        static_cast<double>(stats.completed);
    state.counters["cache_hits"] =
        static_cast<double>(stats.engine.cache.hits);
}
BENCHMARK(BM_ServeRoundTrip)->Unit(benchmark::kMicrosecond);

static void
BM_CacheHitConcurrent(benchmark::State &state)
{
    // Threads hammer RetrievalCache::getOrCompute's hit path over 4
    // resident keys (the serving pattern: many sessions asking about
    // the same trace slice). Every hit takes the hot tier's one mutex
    // to move its key to the front of the recency list, so the
    // 4- and 16-thread arms time that lock passed between cores
    // back to back with no other work in between.
    static constexpr std::size_t kHotKeys = 4;
    static retrieval::RetrievalCache cache(
        retrieval::RetrievalCache::Options{256});
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        for (std::size_t i = 0; i < kHotKeys; ++i) {
            k.push_back("bench-slot-key-" + std::to_string(i));
            auto bundle = std::make_shared<retrieval::ContextBundle>();
            bundle->retriever = "bench";
            bundle->trace_key = "mcf_evictions_lru";
            bundle->result_text = k.back();
            cache.publish(k.back(), std::move(bundle));
        }
        return k;
    }();
    const retrieval::RetrievalCache::ComputeFn never =
        []() -> retrieval::RetrievalCache::BundlePtr {
        std::abort(); // every key is resident: a miss is a bench bug
    };
    std::size_t i = static_cast<std::size_t>(state.thread_index());
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.getOrCompute(keys[i++ % kHotKeys], never));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheHitConcurrent)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime();

static void
BM_CacheDemotionChurn(benchmark::State &state)
{
    // A key population 8x the hot tier cycled round-robin: every
    // admission demotes a bundle into the compressed secondary tier,
    // and every re-access recovers it by decode + re-promote instead
    // of a recompute. After the first revolution computes stop — the
    // steady state this measures is the codec round trip itself. The
    // counters archive per-tier occupancy and the compression ratio
    // into BENCH_micro_perf.json for the CI perf-smoke artifact.
    retrieval::RetrievalCache::Options copts;
    copts.capacity = 8;
    copts.secondary_capacity_bytes = 4u << 20;
    retrieval::RetrievalCache cache(copts);
    std::uint64_t computes = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const std::string key = "churn-" + std::to_string(i++ % 64);
        auto bundle = cache.getOrCompute(key, [&] {
            ++computes;
            auto bundle =
                std::make_shared<retrieval::ContextBundle>();
            bundle->retriever = "bench";
            bundle->trace_key = key;
            bundle->metadata = std::string(512, 'm');
            bundle->result_text = key;
            return bundle;
        });
        benchmark::DoNotOptimize(bundle);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
    const auto tiers = cache.tiered();
    const auto counters = cache.counters();
    state.counters["computes"] = static_cast<double>(computes);
    state.counters["recovered_frac"] =
        counters.hits ? static_cast<double>(tiers.secondary.hits) /
                            static_cast<double>(counters.hits)
                      : 0.0;
    state.counters["hot_entries"] =
        static_cast<double>(tiers.hot.entries);
    state.counters["secondary_entries"] =
        static_cast<double>(tiers.secondary.entries);
    state.counters["secondary_hits"] =
        static_cast<double>(tiers.secondary.hits);
    state.counters["secondary_bytes"] =
        static_cast<double>(tiers.secondary.bytes);
    state.counters["compression_ratio"] =
        tiers.secondary.compressionRatio();
    state.counters["promotions"] =
        static_cast<double>(tiers.promotions);
}
BENCHMARK(BM_CacheDemotionChurn)->Unit(benchmark::kMicrosecond);

static void
BM_AskTracedOverhead(benchmark::State &state)
{
    // The tracing cost discipline's perf gate, on the hottest path
    // the subsystem touches (a warm cached ask): arg 0 runs the plain
    // untraced RequestContext (the disarmed cost the <3% CI assertion
    // tracks — every potential span is one null-pointer test), arg 1
    // traces every 64th request (the serve layer's sampling shape),
    // arg 2 traces every request. The full arm archives its last span
    // tree as TRACE_sample.json, the chrome-format CI artifact.
    const int mode = static_cast<int>(state.range(0));
    auto engine = core::CacheMind::Builder(microDb())
                      .build()
                      .expect("traced-overhead bench engine");
    const std::string question =
        "What is the miss rate for PC 0x4037aa in the mcf workload "
        "with LRU?";
    benchmark::DoNotOptimize(
        engine.ask(question)); // warm the retrieval cache
    std::shared_ptr<obs::RequestTrace> last;
    std::uint64_t seq = 0;
    std::uint64_t traced = 0;
    for (auto _ : state) {
        core::RequestContext ctx(question);
        if (mode == 2 || (mode == 1 && seq % 64 == 0)) {
            ctx.traced("bench-traced-" + std::to_string(seq));
            ++traced;
        }
        ++seq;
        benchmark::DoNotOptimize(engine.ask(ctx));
        if (ctx.trace)
            last = ctx.trace;
    }
    state.counters["traced"] = static_cast<double>(traced);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
    if (mode == 2 && last) {
        const std::string json = obs::toChromeJson(*last);
        if (std::FILE *f = std::fopen("TRACE_sample.json", "w")) {
            std::fwrite(json.data(), 1, json.size(), f);
            std::fclose(f);
        }
    }
}
BENCHMARK(BM_AskTracedOverhead)
    ->Arg(0)  // tracing disarmed (the <3% overhead gate)
    ->Arg(1)  // sampled: every 64th request traced
    ->Arg(2)  // every request traced (writes TRACE_sample.json)
    ->Unit(benchmark::kMicrosecond);

int
main(int argc, char **argv)
{
    // Default to the machine-readable perf trajectory (consumed by
    // the CI perf-smoke step) unless the caller chose an output.
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        // Exact flag only: "--benchmark_out_format" must not match.
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
            has_out = true;
    }
    std::vector<char *> args(argv, argv + argc);
    std::string out_flag = "--benchmark_out=BENCH_micro_perf.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int argn = static_cast<int>(args.size());
    benchmark::Initialize(&argn, args.data());
    if (benchmark::ReportUnrecognizedArguments(argn, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
