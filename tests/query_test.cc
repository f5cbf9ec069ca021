/**
 * @file
 * Tests for the query layer: natural-language parsing (intent +
 * symbolic slots) and the retrieval DSL interpreter, including the
 * exact semantics Ranger's execution runtime depends on.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <random>
#include <sstream>

#include "base/random.hh"
#include "db/builder.hh"
#include "query/dsl.hh"
#include "query/parser.hh"
#include "text/embedding.hh"
#include "byte_mutations.hh"

using namespace cachemind;
using namespace cachemind::query;

namespace {

NlQueryParser
makeParser()
{
    return NlQueryParser({"astar", "lbm", "mcf", "milc", "microbench"},
                         {"belady", "lru", "mlp", "parrot"});
}

const db::TraceDatabase &
sharedDb()
{
    static const db::TraceDatabase database = [] {
        db::BuildOptions options;
        options.workloads = {trace::WorkloadKind::Microbench};
        options.policies = {policy::PolicyKind::Lru,
                            policy::PolicyKind::Belady};
        options.accesses_override = 40000;
        return db::buildDatabase(options);
    }();
    return database;
}

} // namespace

TEST(ParserTest, HitMissQueryExtractsEverything)
{
    const auto parser = makeParser();
    const auto q = parser.parse(
        "Does the memory access with PC 0x401e31 and address "
        "0x35e798a637f result in a cache hit or cache miss for the "
        "lbm workload under PARROT?");
    EXPECT_EQ(q.intent, QueryIntent::HitMiss);
    ASSERT_TRUE(q.pc.has_value());
    EXPECT_EQ(*q.pc, 0x401e31u);
    ASSERT_TRUE(q.address.has_value());
    EXPECT_EQ(*q.address, 0x35e798a637fULL);
    ASSERT_TRUE(q.hasWorkload());
    EXPECT_EQ(q.workload(), "lbm");
    ASSERT_TRUE(q.hasPolicy());
    EXPECT_EQ(q.policy(), "parrot");
}

TEST(ParserTest, MissRateQuery)
{
    const auto parser = makeParser();
    const auto q = parser.parse(
        "What is the miss rate for PC 0x4037ba in mcf with PARROT?");
    EXPECT_EQ(q.intent, QueryIntent::MissRate);
    EXPECT_EQ(*q.pc, 0x4037bau);
    EXPECT_EQ(q.workload(), "mcf");
}

TEST(ParserTest, PolicyComparisonNeedsWorkload)
{
    const auto parser = makeParser();
    const auto q = parser.parse(
        "Which policy has the lowest miss rate for PC 0x409270 in "
        "astar?");
    EXPECT_EQ(q.intent, QueryIntent::PolicyComparison);
    const auto concept_q = parser.parse(
        "Which choice gives a lower miss rate, more sets or more "
        "ways, for a fixed cache size?");
    EXPECT_EQ(concept_q.intent, QueryIntent::Concept);
}

TEST(ParserTest, CountQuery)
{
    const auto parser = makeParser();
    const auto q = parser.parse(
        "How many times did PC 0x405832 appear in astar under LRU?");
    EXPECT_EQ(q.intent, QueryIntent::Count);
    EXPECT_EQ(*q.pc, 0x405832u);
}

TEST(ParserTest, ArithmeticSlots)
{
    const auto parser = makeParser();
    const auto q = parser.parse(
        "What is the average evicted reuse distance of PC 0x40170a "
        "for the lbm workload with MLP?");
    EXPECT_EQ(q.intent, QueryIntent::Arithmetic);
    EXPECT_EQ(q.agg, AggKind::Mean);
    EXPECT_EQ(q.field, FieldKind::EvictedReuseDistance);

    const auto q2 = parser.parse(
        "What is the standard deviation of the reuse distance of PC "
        "0x413930 in the milc workload under LRU?");
    EXPECT_EQ(q2.agg, AggKind::Std);
    EXPECT_EQ(q2.field, FieldKind::ReuseDistance);
}

TEST(ParserTest, ExplainAndCodeGen)
{
    const auto parser = makeParser();
    EXPECT_EQ(parser
                  .parse("Why does Belady outperform LRU on PC "
                         "0x409270 in astar?")
                  .intent,
              QueryIntent::Explain);
    EXPECT_EQ(parser
                  .parse("Write code to compute hits for PC 0x4037ba "
                         "in mcf under LRU.")
                  .intent,
              QueryIntent::CodeGen);
}

TEST(ParserTest, ListingsAndSets)
{
    const auto parser = makeParser();
    EXPECT_EQ(parser.parse("List all unique PCs in the mcf workload "
                           "under LRU.")
                  .intent,
              QueryIntent::ListPcs);
    EXPECT_EQ(parser
                  .parse("For astar and Belady, could you list the "
                         "unique cache sets in ascending order?")
                  .intent,
              QueryIntent::ListSets);
    const auto hot = parser.parse(
        "Identify 5 hot and 5 cold sets by hit rate for astar under "
        "LRU.");
    EXPECT_EQ(hot.intent, QueryIntent::SetStats);
    EXPECT_EQ(hot.top_n, 5u);
}

TEST(ParserTest, ConceptQuestions)
{
    const auto parser = makeParser();
    EXPECT_EQ(parser
                  .parse("How does increasing cache size affect miss "
                         "rate? Compare sets vs ways.")
                  .intent,
              QueryIntent::Concept);
    EXPECT_EQ(parser
                  .parse("Decompose a memory address into offset, "
                         "index and tag bits for 64-byte lines.")
                  .intent,
              QueryIntent::Concept);
}

TEST(ParserTest, PcVsAddressDisambiguation)
{
    const auto parser = makeParser();
    // Small hex value = PC; large = data address, regardless of order.
    const auto q =
        parser.parse("check 0x2bfd401c63f against 0x409270 in astar");
    ASSERT_TRUE(q.pc.has_value());
    EXPECT_EQ(*q.pc, 0x409270u);
    ASSERT_TRUE(q.address.has_value());
    EXPECT_EQ(*q.address, 0x2bfd401c63fULL);
}

TEST(ParserTest, OverflowingNumbersAreOutOfRange)
{
    const auto parser = makeParser();
    // 2^64 + 1 once wrapped around to 1 and became top_n = 1; it now
    // saturates and fails the range check like any other huge limit.
    const auto q = parser.parse(
        "Show the top 18446744073709551617 PCs for mcf under lru");
    EXPECT_EQ(q.top_n, 0u);
    const auto s = parser.parse(
        "What are the hits per set for set 18446744073709551616 in "
        "mcf under lru?");
    EXPECT_FALSE(s.set_id.has_value());
}

// ------------------------------------------------------ parser fuzz

namespace {

/**
 * Seed questions for the parser fuzz: CacheMindBench suite questions of
 * every category, and the serving benchmark's question shapes.
 */
const std::vector<std::string> &
fuzzSeeds()
{
    static const std::vector<std::string> seeds = {
        "Does the memory access with PC 0x409228 and address "
        "0x2bfd4124072 result in a cache hit or cache miss for the astar "
        "workload and LRU replacement policy?",
        "What is the miss rate for PC 0x40170a in the lbm workload with "
        "Belady?",
        "Which policy has the lowest miss rate for PC 0x409538 in the "
        "astar workload?",
        "Which policy has the highest miss rate in the mcf workload?",
        "How many times did PC 0x409270 appear in the astar workload "
        "under MLP?",
        "What is the average evicted reuse distance of PC 0x409270 for "
        "the astar workload with LRU?",
        "What is the standard deviation of the reuse distance of PC "
        "0x40138f in the mcf workload under LRU?",
        "What is the maximum reuse distance observed for PC 0x405832 in "
        "the astar workload under Belady?",
        "What is the sum of the evicted reuse distances caused by PC "
        "0x405832 in the astar workload under PARROT?",
        "What is the average recency of PC 0x402ec1 in the mcf workload "
        "with PARROT?",
        "How does increasing cache size affect miss rate? Compare "
        "increasing the number of sets vs the number of ways.",
        "Decompose a memory address into offset, index and tag bits for "
        "a cache with 64-byte lines and 2048 sets.",
        "Explain the difference between compulsory, capacity and "
        "conflict misses in a set-associative cache.",
        "Write code to compute the number of cache hits for PC 0x4037ba "
        "and address 0x1b750029e40 in the mcf workload under MLP.",
        "Why does Belady outperform LRU on PC 0x409538 in the astar "
        "workload?",
        "Comparing the astar, lbm, mcf workloads under MLP, which has the "
        "highest cache miss rate? Analyze the workload characteristics "
        "that explain it.",
        "Why does PC 0x401d9b have a high miss rate in the mcf workload "
        "under PARROT? Examine the assembly context and analyze.",
        "Identify 5 hot and 5 cold sets by hit rate for milc under LRU.",
        "Show the top 10 PCs causing the most misses in microbench "
        "under lru.",
        "For astar and Belady, could you list the unique cache sets in "
        "ascending order?",
    };
    return seeds;
}

/** The default database's vocabulary. */
const std::vector<std::string> kFuzzWorkloads = {"astar", "lbm", "mcf"};
const std::vector<std::string> kFuzzPolicies = {"belady", "lru", "mlp",
                                                "parrot"};
/** A vocabulary name longer than the name index's stack rows. */
const std::string kLongName =
    "an_unusually_long_workload_name_that_runs_past_sixty_three_chars";

/** `name` with one to three random edits (substitute, insert, delete). */
std::string
nearName(std::string name, Rng &rng)
{
    const auto edits = 1 + rng.nextBelow(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
        const char c = static_cast<char>('a' + rng.nextBelow(26));
        const std::size_t pos = rng.nextBelow(name.size() + 1);
        const auto op = rng.nextBelow(3);
        if (op == 0 && pos < name.size())
            name[pos] = c;
        else if (op == 1 || name.empty())
            name.insert(pos, 1, c);
        else
            name.erase(std::min(pos, name.size() - 1), 1);
    }
    return name;
}

/** One random mutation of `s` at a random position. */
void
mutateOnce(std::string &s, Rng &rng, const std::vector<std::string> &names)
{
    const std::size_t pos = rng.nextBelow(s.size() + 1);
    const std::size_t at = s.empty() ? 0 : std::min(pos, s.size() - 1);
    switch (rng.nextBelow(9)) {
      case 0: // flip one bit of a byte
        if (!s.empty())
            s[at] = static_cast<char>(s[at] ^ (1 << rng.nextBelow(8)));
        break;
      case 1: // insert any byte
        s.insert(pos, 1, static_cast<char>(rng.nextBelow(256)));
        break;
      case 2: // delete a short run
        if (!s.empty())
            s.erase(at, 1 + rng.nextBelow(4));
        break;
      case 3: { // NUL bytes and bytes 0x80-0xff
        std::string run(1 + rng.nextBelow(4), '\0');
        for (auto &c : run) {
            if (rng.nextBelow(4) != 0)
                c = static_cast<char>(0x80 + rng.nextBelow(128));
        }
        s.insert(pos, run);
        break;
      }
      case 4: // flip the case of a run
        for (std::size_t i = at, n = 1 + rng.nextBelow(16);
             i < s.size() && n > 0; ++i, --n) {
            const auto c = static_cast<unsigned char>(s[i]);
            s[i] = static_cast<char>(std::isupper(c) ? std::tolower(c)
                                                     : std::toupper(c));
        }
        break;
      case 5: { // a run of 20 or more decimal or hex digits
        const bool hex = rng.nextBelow(2) != 0;
        std::string run = hex ? " 0x" : " ";
        const char *digits = hex ? "0123456789abcdefABCDEF" : "0123456789";
        const std::size_t n_digits = hex ? 22 : 10;
        for (std::size_t i = 0, n = 20 + rng.nextBelow(30); i < n; ++i)
            run.push_back(digits[rng.nextBelow(n_digits)]);
        s.insert(pos, run + " ");
        break;
      }
      case 6: { // a token longer than 64 characters
        std::string run = " ";
        for (std::size_t i = 0, n = 65 + rng.nextBelow(32); i < n; ++i)
            run.push_back(static_cast<char>('a' + rng.nextBelow(26)));
        s.insert(pos, run + " ");
        break;
      }
      case 7: // a vocabulary name one to three edits away
        s.insert(pos,
                 " " + nearName(names[rng.nextBelow(names.size())], rng) +
                     " ");
        break;
      default: { // splice a piece of the text elsewhere
        const std::size_t from = rng.nextBelow(s.size() + 1);
        s.insert(pos, s.substr(from, rng.nextBelow(24)));
        break;
      }
    }
}

/** A vocabulary with one name mutated the way question bytes are. */
std::vector<std::string>
mutateVocabulary(std::vector<std::string> names, Rng &rng)
{
    auto &name = names[rng.nextBelow(names.size())];
    if (rng.nextBelow(2) == 0)
        name = nearName(name, rng);
    else
        mutateOnce(name, rng, names);
    return names;
}

/** A parser, and name indexes over the same vocabulary. */
struct FuzzTarget
{
    FuzzTarget(const std::vector<std::string> &workloads,
               const std::vector<std::string> &policies,
               const text::HashEmbedder &embedder)
        : parser(workloads, policies), workload_index(workloads, embedder),
          policy_index(policies, embedder)
    {}

    NlQueryParser parser;
    text::NameIndex workload_index;
    text::NameIndex policy_index;
};

/**
 * Parse `text`, and check that the name indexes rank both vocabularies
 * exactly like text::rankNames does.
 */
void
checkMutant(const FuzzTarget &target, const std::string &text,
            const text::HashEmbedder &embedder)
{
    const auto q = target.parser.parse(text);
    EXPECT_EQ(q.raw, text);
    EXPECT_LE(q.top_n, 1000u);
    if (q.set_id) {
        EXPECT_LT(*q.set_id, 1u << 20);
    }
    const text::PreparedQuery prepared(text, embedder);
    for (const auto *index :
         {&target.workload_index, &target.policy_index}) {
        const auto got = index->rank(prepared);
        const auto want = text::rankNames(text, index->names(), embedder);
        ASSERT_EQ(got.size(), want.size()) << fuzz::escaped(text);
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].name, want[i].name) << fuzz::escaped(text);
            ASSERT_EQ(got[i].score, want[i].score) << fuzz::escaped(text);
        }
    }
}

} // namespace

TEST(ParserFuzzTest, MutantsParseAndRankExactlyLikeRankNames)
{
    const text::HashEmbedder embedder(128);
    auto long_workloads = kFuzzWorkloads;
    long_workloads.push_back(kLongName);
    // Three vocabularies take turns: the default database's, the same
    // with a name too long for the index's stack rows (every 4th
    // mutant), and that one with a name mutated (every 16th).
    const FuzzTarget base(kFuzzWorkloads, kFuzzPolicies, embedder);
    const FuzzTarget with_long(long_workloads, kFuzzPolicies, embedder);
    auto all_names = long_workloads;
    all_names.insert(all_names.end(), kFuzzPolicies.begin(),
                     kFuzzPolicies.end());

    Rng rng(0xf022ULL);
    for (int i = 0; i < 20000 && !HasFailure(); ++i) {
        std::string text = fuzzSeeds()[rng.nextBelow(fuzzSeeds().size())];
        for (auto n = 1 + rng.nextBelow(4); n > 0; --n)
            mutateOnce(text, rng, all_names);
        if (i % 16 == 0) {
            const FuzzTarget mutated(mutateVocabulary(long_workloads, rng),
                                     mutateVocabulary(kFuzzPolicies, rng),
                                     embedder);
            checkMutant(mutated, text, embedder);
        } else {
            checkMutant(i % 4 == 0 ? with_long : base, text, embedder);
        }
    }
}

TEST(ParserFuzzTest, EdgeInputsRankExactlyLikeRankNames)
{
    // Inputs aimed at the name index's separate paths, which the
    // mutants reach only by chance: the long-name fallback at zero,
    // one and two edits, tokens either side of the stack rows' length,
    // names cut by NUL or high bytes, and overflowing numbers.
    const text::HashEmbedder embedder(128);
    auto long_workloads = kFuzzWorkloads;
    long_workloads.push_back(kLongName);
    const FuzzTarget target(long_workloads, kFuzzPolicies, embedder);
    std::string one_edit = kLongName;
    one_edit[10] = 'x';
    std::string two_edits = kLongName.substr(1);
    two_edits[20] = 'q';
    const char cut_names[] = "lb\0m under lr\xffu";
    const std::string inputs[] = {
        "miss rate of " + kLongName + " under lru",
        "miss rate of " + one_edit + " under lru",
        "miss rate of " + two_edits + " under lru",
        "compare BELADYS and parot on mcf",
        std::string(cut_names, sizeof cut_names - 1),
        "astar\x80\x81 belady\xc3\xa9",
        std::string(63, 'a') + " " + std::string(64, 'b') + " " +
            std::string(300, 'c'),
        "Show the top 99999999999999999999999 PCs for 0x" +
            std::string(40, 'f'),
        "",
        "?",
    };
    for (const auto &text : inputs)
        checkMutant(target, text, embedder);
}

// ------------------------------------------------------ interpreter

TEST(DslTest, MissRateMatchesStatsExpert)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    const auto *expert = database.statsFor("microbench_evictions_lru");
    const auto stats = expert->pcStats(0x400512);
    ASSERT_TRUE(stats.has_value());

    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.pc = 0x400512;
    prog.op = DslOp::MissRate;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    ASSERT_TRUE(res.number.has_value());
    EXPECT_NEAR(*res.number, stats->missRate(), 1e-12);
}

TEST(DslTest, CountMatchesAccesses)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    const auto *expert = database.statsFor("microbench_evictions_lru");
    const auto stats = expert->pcStats(0x400512);

    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.pc = 0x400512;
    prog.op = DslOp::CountRows;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    EXPECT_DOUBLE_EQ(*res.number,
                     static_cast<double>(stats->accesses));
}

TEST(DslTest, HitCountPlusMissesEqualsAccesses)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.pc = 0x400512;

    prog.op = DslOp::HitCount;
    const auto hits = interp.run(prog);
    prog.op = DslOp::CountRows;
    const auto total = interp.run(prog);
    prog.op = DslOp::MissRate;
    const auto rate = interp.run(prog);
    ASSERT_TRUE(hits.ok && total.ok && rate.ok);
    EXPECT_NEAR(*hits.number,
                *total.number * (1.0 - *rate.number), 1e-6);
}

TEST(DslTest, AggregatesRespectSentinels)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.op = DslOp::MinField;
    prog.field = DslField::ReuseDistance;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    EXPECT_GE(*res.number, 0.0); // kNoValue rows are excluded
}

TEST(DslTest, SelectRowsHonoursLimitAndReportsMatched)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.pc = 0x400512;
    prog.op = DslOp::SelectRows;
    prog.limit = 5;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.rows.size(), 5u);
    EXPECT_GT(res.matched, 5u);
    for (const auto &row : res.rows)
        EXPECT_EQ(row.program_counter, 0x400512u);
}

TEST(DslTest, UnknownTraceFails)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    DslProgram prog;
    prog.trace_key = "gcc_evictions_lru";
    prog.op = DslOp::CountRows;
    const auto res = interp.run(prog);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("gcc_evictions_lru"), std::string::npos);
}

TEST(DslTest, MetadataOpReturnsSummary)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.op = DslOp::Metadata;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    EXPECT_NE(res.text.find("total accesses"), std::string::npos);
}

TEST(DslTest, UniqueListingsSorted)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.op = DslOp::UniquePcs;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    ASSERT_GT(res.values.size(), 2u);
    for (std::size_t i = 1; i < res.values.size(); ++i)
        EXPECT_LT(res.values[i - 1], res.values[i]);
}

TEST(DslTest, RenderedPythonMentionsFiltersAndTable)
{
    DslProgram prog;
    prog.trace_key = "lbm_evictions_lru";
    prog.pc = 0x401e31;
    prog.address = 0x35e798a637f;
    prog.op = DslOp::MissRate;
    const auto code = renderProgramAsPython(prog);
    EXPECT_NE(code.find("lbm_evictions_lru"), std::string::npos);
    EXPECT_NE(code.find("0x401e31"), std::string::npos);
    EXPECT_NE(code.find("0x35e798a637f"), std::string::npos);
    EXPECT_NE(code.find("miss rate"), std::string::npos);
    EXPECT_NE(code.find("result ="), std::string::npos);
}

// -------------------------------------- index-vs-scan equivalence

namespace {

/** Deterministic digest of one materialised row, every field. */
std::string
rowSignature(const db::AccessRow &r)
{
    std::ostringstream os;
    os << r.index << '|' << r.program_counter << '|'
       << r.memory_address << '|' << r.cache_set_id << '|' << r.is_miss
       << r.bypassed << r.has_victim << r.wrong_eviction << '|'
       << static_cast<int>(r.miss_type) << '|' << r.evicted_address
       << '|' << r.accessed_reuse_distance << '|' << r.accessed_recency
       << '|' << r.evicted_reuse_distance << '|' << r.recency_text
       << '|' << r.function_name << '|'
       << r.current_cache_lines.size() << '|'
       << r.cache_line_eviction_scores.size() << '|'
       << r.recent_access_history.size();
    return os.str();
}

/** Assert two DslResults are byte-identical, field by field. */
void
expectSameResult(const DslResult &a, const DslResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.ok, b.ok) << what;
    EXPECT_EQ(a.error, b.error) << what;
    EXPECT_EQ(a.matched, b.matched) << what;
    ASSERT_EQ(a.number.has_value(), b.number.has_value()) << what;
    if (a.number) {
        // Bit-exact: the indexed path must visit the same samples in
        // the same order, so even floating aggregates are identical.
        EXPECT_EQ(*a.number, *b.number) << what;
    }
    EXPECT_EQ(a.values, b.values) << what;
    EXPECT_EQ(a.text, b.text) << what;
    ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        EXPECT_EQ(rowSignature(a.rows[i]), rowSignature(b.rows[i]))
            << what << " row " << i;
    }
}

} // namespace

TEST(DslIndexEquivalenceTest, RandomizedProgramsMatchReferenceScan)
{
    // Property test: the indexed interpreter must produce
    // byte-identical results to the reference O(n) scan over
    // randomized programs — every op, random pc/address/set filters
    // (present and absent), random fields and limits.
    const auto &database = sharedDb();
    const Interpreter indexed(database, ExecMode::Indexed);
    const Interpreter scan(database, ExecMode::ReferenceScan);
    ASSERT_EQ(indexed.mode(), ExecMode::Indexed);
    ASSERT_EQ(scan.mode(), ExecMode::ReferenceScan);

    const std::string key = "microbench_evictions_lru";
    const auto *entry = database.find(key);
    ASSERT_NE(entry, nullptr);
    const db::TraceTable &table = entry->table;
    const auto pcs = table.uniquePcsScan();
    const auto sets = table.uniqueSetsScan();
    ASSERT_FALSE(pcs.empty());
    ASSERT_FALSE(sets.empty());

    const DslOp ops[] = {DslOp::SelectRows, DslOp::CountRows,
                         DslOp::MissRate,   DslOp::HitCount,
                         DslOp::MeanField,  DslOp::SumField,
                         DslOp::MinField,   DslOp::MaxField,
                         DslOp::StdField,   DslOp::UniquePcs,
                         DslOp::UniqueSets};
    const DslField fields[] = {DslField::ReuseDistance,
                               DslField::EvictedReuseDistance,
                               DslField::Recency};
    const std::size_t limits[] = {0, 1, 5, 16};

    std::mt19937_64 rng(0xca6eULL);
    for (int iter = 0; iter < 400; ++iter) {
        DslProgram prog;
        prog.trace_key = key;
        prog.op = ops[rng() % (sizeof(ops) / sizeof(ops[0]))];
        prog.field = fields[rng() % 3];
        prog.limit = limits[rng() % 4];
        if (rng() % 2 == 0) {
            prog.pc = rng() % 5 == 0 ? 0xdead0000 + (rng() % 16)
                                     : pcs[rng() % pcs.size()];
        }
        if (rng() % 3 == 0) {
            prog.address = rng() % 5 == 0
                               ? 0x1230000 + (rng() % 16)
                               : table.addressAt(rng() % table.size());
        }
        if (rng() % 3 == 0) {
            prog.set_id = rng() % 5 == 0
                              ? 0xfff0u + (rng() % 8)
                              : sets[rng() % sets.size()];
        }
        const auto a = indexed.run(prog);
        const auto b = scan.run(prog);
        std::ostringstream what;
        what << "iter=" << iter << " op=" << dslOpName(prog.op);
        if (prog.pc)
            what << " pc=" << *prog.pc;
        if (prog.address)
            what << " addr=" << *prog.address;
        if (prog.set_id)
            what << " set=" << *prog.set_id;
        what << " limit=" << prog.limit;
        expectSameResult(a, b, what.str());
    }
}

TEST(DslIndexEquivalenceTest, UnfilteredAggregatesMatchWithoutRowVector)
{
    // The unfiltered paths (previously an n-element row-index vector
    // per call) must agree with the scan on whole-table answers.
    const auto &database = sharedDb();
    const Interpreter indexed(database, ExecMode::Indexed);
    const Interpreter scan(database, ExecMode::ReferenceScan);
    for (const auto op :
         {DslOp::CountRows, DslOp::HitCount, DslOp::MissRate,
          DslOp::MeanField, DslOp::StdField, DslOp::SelectRows}) {
        DslProgram prog;
        prog.trace_key = "microbench_evictions_lru";
        prog.op = op;
        prog.limit = 4;
        expectSameResult(indexed.run(prog), scan.run(prog),
                         dslOpName(op));
    }
}

TEST(DslTest, PerSetStatsForOneSet)
{
    const auto &database = sharedDb();
    const Interpreter interp(database);
    const auto *expert = database.statsFor("microbench_evictions_lru");
    const auto sets = expert->allSetStats();
    ASSERT_FALSE(sets.empty());

    DslProgram prog;
    prog.trace_key = "microbench_evictions_lru";
    prog.op = DslOp::PerSetStats;
    prog.set_id = sets.front().set;
    const auto res = interp.run(prog);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.set_stats.size(), 1u);
    EXPECT_EQ(res.set_stats[0].accesses, sets.front().accesses);
}
