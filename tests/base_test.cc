/**
 * @file
 * Unit tests for src/base: strings, deterministic RNG, statistics,
 * deadlines, failpoint specs and disarmed failpoint sites. This binary
 * replaces the global operator new to count heap allocations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <thread>
#include <vector>

#include "base/deadline.hh"
#include "base/failpoint.hh"
#include "base/random.hh"
#include "base/stats_util.hh"
#include "base/str.hh"
#include "byte_mutations.hh"
#include "stream_render_reference.hh"

namespace cm = cachemind;
namespace str = cachemind::str;
namespace stats = cachemind::stats;

namespace {

/** Heap allocations made through operator new in this process. */
std::atomic<std::size_t> g_allocations{0};

} // namespace

// The array and nothrow forms forward to these. The deletes stay out
// of line so that no caller sees a new expression paired with free().
void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

TEST(StrTest, ToLowerAndTrim)
{
    EXPECT_EQ(str::toLower("LRU Policy"), "lru policy");
    EXPECT_EQ(str::trim("  x y  "), "x y");
    EXPECT_EQ(str::trim("\t\n"), "");
}

TEST(StrTest, SplitDropsEmptyByDefault)
{
    const auto parts = str::split("a,,b,c,", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
    EXPECT_EQ(str::split("a,,b", ',', true).size(), 3u);
}

TEST(StrTest, SplitWhitespace)
{
    const auto parts = str::splitWhitespace("  foo\tbar \nbaz ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "bar");
}

TEST(StrTest, PrefixSuffixContains)
{
    EXPECT_TRUE(str::startsWith("0x401e31", "0x"));
    EXPECT_FALSE(str::startsWith("x", "0x"));
    EXPECT_TRUE(str::endsWith("trace.bin", ".bin"));
    EXPECT_TRUE(str::containsNoCase("the PARROT policy", "parrot"));
    EXPECT_FALSE(str::containsNoCase("lru", "belady"));
}

TEST(StrTest, HexParsing)
{
    EXPECT_EQ(str::parseHex("0x401e31").value(), 0x401e31u);
    EXPECT_EQ(str::parseHex("401E31").value(), 0x401e31u);
    EXPECT_FALSE(str::parseHex("0xzz").has_value());
    EXPECT_FALSE(str::parseHex("").has_value());
    EXPECT_EQ(str::hex(0x35e798a637fULL), "0x35e798a637f");
}

TEST(StrTest, HexMatchesTheStreamRendering)
{
    // Every digit count, both ends of the range, and seeded values
    // of every width.
    std::vector<std::uint64_t> values = {0, 1, 0xf, 0x10,
                                         0xffffffffffffffffULL};
    for (int bits = 1; bits <= 64; ++bits)
        values.push_back(std::uint64_t{1} << (bits - 1));
    cm::Rng rng(0x4e58);
    for (int k = 0; k < 20000; ++k)
        values.push_back(rng.next() >> rng.nextBelow(64));
    for (const std::uint64_t v : values) {
        ASSERT_EQ(str::hex(v), streamHex(v)) << v;
        std::string appended = "x";
        str::appendHex(appended, v);
        ASSERT_EQ(appended, "x" + streamHex(v).substr(2)) << v;
    }
}

TEST(StrTest, NumberParsing)
{
    EXPECT_EQ(str::parseU64("12345").value(), 12345u);
    EXPECT_FALSE(str::parseU64("12a").has_value());
    // The largest 64-bit value parses; one more is refused instead of
    // wrapping around to 0.
    EXPECT_EQ(str::parseU64("18446744073709551615").value(), UINT64_MAX);
    EXPECT_FALSE(str::parseU64("18446744073709551616").has_value());
    EXPECT_FALSE(str::parseU64("99999999999999999999").has_value());
    EXPECT_DOUBLE_EQ(str::parseDouble("94.91%").value(), 94.91);
    EXPECT_DOUBLE_EQ(str::parseDouble(" 3.5 ").value(), 3.5);
    EXPECT_FALSE(str::parseDouble("abc").has_value());
}

TEST(StrTest, ExtractHexTokens)
{
    const auto toks = str::extractHexTokens(
        "Does PC 0x401dc9 and address 0x47ea85d37f hit?");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0], 0x401dc9u);
    EXPECT_EQ(toks[1], 0x47ea85d37fULL);
}

TEST(StrTest, ExtractIntTokensSkipsHexBodies)
{
    const auto toks =
        str::extractIntTokens("top 5 PCs near 0x40ff plus 12 more");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0], 5u);
    EXPECT_EQ(toks[1], 12u);
}

TEST(StrTest, ExtractIntTokensSaturatesInsteadOfWrapping)
{
    const auto toks = str::extractIntTokens(
        "top 18446744073709551617 and 18446744073709551615 then 7");
    ASSERT_EQ(toks.size(), 3u);
    EXPECT_EQ(toks[0], UINT64_MAX);
    EXPECT_EQ(toks[1], UINT64_MAX);
    EXPECT_EQ(toks[2], 7u);
}

TEST(FailpointSpecTest, OverflowingMaxHitsIsRefused)
{
    // #2^64 once wrapped to max_hits 0, which means unlimited: a
    // bounded failpoint silently became an unbounded one.
    std::string error;
    EXPECT_FALSE(cm::fail::armSpec(
        "base_test.site=error#18446744073709551616", &error));
    EXPECT_NE(error.find("max_hits"), std::string::npos) << error;
    EXPECT_FALSE(cm::fail::armSpec(
        "base_test.site=delay:18446744073709551616", &error));
    EXPECT_EQ(cm::fail::armedCount(), 0u);
}

TEST(FailpointSpecTest, NanProbabilityIsRefused)
{
    // Both range comparisons are false for NaN, so @nan was accepted
    // and the site then fired on every hit.
    for (const char *spec : {"base_test.site=error@nan",
                             "base_test.site=error@-nan",
                             "base_test.site=error@inf"}) {
        std::string error;
        EXPECT_FALSE(cm::fail::armSpec(spec, &error)) << spec;
        EXPECT_NE(error.find("probability"), std::string::npos) << error;
    }
    EXPECT_EQ(cm::fail::armedCount(), 0u);
    cm::fail::disarmAll();
}

TEST(FailpointSiteTest, DisarmedHelpersAllocateNothing)
{
    // A disarmed site is one relaxed load: no std::string is built
    // from the name, even one past the 15-byte small-string buffer.
    cm::fail::disarmAll();
    ASSERT_FALSE(cm::fail::anyArmed());
    std::string bytes = "payload";
    bool dropped = false;
    const std::size_t before = g_allocations.load();
    for (int i = 0; i < 1000; ++i) {
        cm::fail::maybeThrow("core.stream.push");
        dropped |= cm::fail::maybeDrop("serve.write.site.name");
        cm::fail::maybeDelay("retrieve.section");
        cm::fail::maybeCorrupt("cache.secondary.decode", bytes);
    }
    const std::size_t allocations = g_allocations.load() - before;
    EXPECT_EQ(allocations, 0u);
    EXPECT_FALSE(dropped);
    EXPECT_EQ(bytes, "payload");
}

namespace {

/** The examples in failpoint.hh and the specs the serve tests arm. */
const std::vector<std::string> kSpecSeeds = {
    "serve.read=drop@0.05",
    "db.index_build=error#1",
    "retrieve.section=delay:50",
    "serve.lease=delay:50",
    "serve.read=drop@0.05,db.index_build=error#1",
    "serve.write=corrupt:3@0.5#2, retrieve.section = off",
    "off",
};

/** armSpec must not crash on `spec`, and either arm it or say why. */
void
checkSpec(const std::string &spec)
{
    std::string error;
    if (!cm::fail::armSpec(spec, &error)) {
        EXPECT_FALSE(error.empty()) << fuzz::escaped(spec);
    }
    cm::fail::disarmAll();
    EXPECT_EQ(cm::fail::armedCount(), 0u) << fuzz::escaped(spec);
}

} // namespace

TEST(FailpointFuzzTest, TruncatedSpecsArmOrExplain)
{
    for (const auto &seed : kSpecSeeds) {
        for (std::size_t n = 0; n <= seed.size() && !HasFailure(); ++n)
            checkSpec(seed.substr(0, n));
    }
}

TEST(FailpointFuzzTest, MutatedSpecsArmOrExplain)
{
    cm::Rng rng(0xfa11ULL);
    for (int i = 0; i < 10000 && !HasFailure(); ++i) {
        std::string spec = kSpecSeeds[rng.nextBelow(kSpecSeeds.size())];
        for (auto n = 1 + rng.nextBelow(4); n > 0; --n)
            fuzz::mutateOnce(spec, rng);
        checkSpec(spec);
    }
}

TEST(StrTest, PercentFormatting)
{
    EXPECT_EQ(str::percent(0.9491), "94.91%");
    EXPECT_EQ(str::fixed(2.04567, 2), "2.05");
}

TEST(StrTest, EditDistance)
{
    EXPECT_EQ(str::editDistance("lru", "lru"), 0u);
    EXPECT_EQ(str::editDistance("belady", "beladys"), 1u);
    EXPECT_EQ(str::editDistance("parrot", "carrot"), 1u);
    EXPECT_EQ(str::editDistance("", "abc"), 3u);
}

TEST(StrTest, Join)
{
    EXPECT_EQ(str::join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(RandomTest, DeterministicStreams)
{
    cm::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RandomTest, DifferentSeedsDiffer)
{
    cm::Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(RandomTest, NextBelowInRange)
{
    cm::Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(RandomTest, NextRangeInclusive)
{
    cm::Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, BernoulliExtremes)
{
    cm::Rng rng(9);
    EXPECT_FALSE(rng.nextBool(0.0));
    EXPECT_TRUE(rng.nextBool(1.0));
}

TEST(RandomTest, BernoulliApproximation)
{
    cm::Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RandomTest, KeyedDrawsAreStable)
{
    EXPECT_EQ(cm::keyedUniform(123), cm::keyedUniform(123));
    EXPECT_EQ(cm::keyedBernoulli(55, 0.5), cm::keyedBernoulli(55, 0.5));
    EXPECT_EQ(cm::keyedPick(99, 10), cm::keyedPick(99, 10));
    EXPECT_LT(cm::keyedPick(99, 10), 10u);
}

TEST(RandomTest, GaussianMoments)
{
    cm::Rng rng(13);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i)
        xs.push_back(rng.nextGaussian(5.0, 2.0));
    EXPECT_NEAR(stats::mean(xs), 5.0, 0.1);
    EXPECT_NEAR(stats::stdev(xs), 2.0, 0.1);
}

TEST(RandomTest, Fnv1aDistinguishes)
{
    EXPECT_NE(cm::fnv1a("lru"), cm::fnv1a("lrv"));
    EXPECT_EQ(cm::fnv1a("belady"), cm::fnv1a("belady"));
}

TEST(StatsTest, MeanVarianceStdev)
{
    const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(stats::mean(xs), 5.0);
    EXPECT_DOUBLE_EQ(stats::variance(xs), 4.0);
    EXPECT_DOUBLE_EQ(stats::stdev(xs), 2.0);
}

TEST(StatsTest, EmptyInputsAreZero)
{
    EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stats::variance({}), 0.0);
    EXPECT_DOUBLE_EQ(stats::median({}), 0.0);
}

TEST(StatsTest, MedianOddEven)
{
    EXPECT_DOUBLE_EQ(stats::median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(stats::median({4, 1, 2, 3}), 2.5);
}

TEST(StatsTest, Percentile)
{
    std::vector<double> xs;
    for (int i = 1; i <= 100; ++i)
        xs.push_back(i);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 100), 100.0);
    EXPECT_NEAR(stats::percentile(xs, 50), 50.5, 1e-9);
}

TEST(StatsTest, PearsonCorrelation)
{
    const std::vector<double> xs = {1, 2, 3, 4, 5};
    const std::vector<double> ys = {2, 4, 6, 8, 10};
    EXPECT_NEAR(stats::pearson(xs, ys), 1.0, 1e-12);
    const std::vector<double> zs = {10, 8, 6, 4, 2};
    EXPECT_NEAR(stats::pearson(xs, zs), -1.0, 1e-12);
    const std::vector<double> cs = {3, 3, 3, 3, 3};
    EXPECT_DOUBLE_EQ(stats::pearson(xs, cs), 0.0);
}

TEST(StatsTest, RunningStatsMatchesBatch)
{
    stats::RunningStats rs;
    const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
    for (double x : xs)
        rs.push(x);
    EXPECT_DOUBLE_EQ(rs.mean(), stats::mean(xs));
    EXPECT_NEAR(rs.variance(), stats::variance(xs), 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), 2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 9.0);
    EXPECT_EQ(rs.count(), xs.size());
}

TEST(StatsTest, MergedHistogramPercentilesWithinOneBucket)
{
    // Log-uniform latencies from 1 us to 10 s, dealt across three
    // histograms (three engines) and merged.
    cm::Rng rng(0x415dULL);
    std::vector<double> samples(3000);
    for (double &ms : samples)
        ms = 1e-3 * std::pow(1e7, rng.nextDouble());
    stats::Histogram parts[3];
    stats::Histogram forward, backward;
    const std::size_t before = g_allocations.load();
    for (std::size_t i = 0; i < samples.size(); ++i)
        parts[i % 3].record(samples[i]);
    for (int i = 0; i < 3; ++i) {
        forward.merge(parts[i]);
        backward.merge(parts[2 - i]);
    }
    EXPECT_EQ(g_allocations.load() - before, 0u);

    double sum = 0.0;
    for (double ms : samples)
        sum += ms;
    const double mean = sum / static_cast<double>(samples.size());
    EXPECT_EQ(forward.count(), samples.size());
    EXPECT_NEAR(forward.mean(), mean, 1e-12 * mean);
    std::sort(samples.begin(), samples.end());
    for (const double p : {0.0, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
        // The exact nearest-rank percentile: the ceil(p% of n)-th
        // smallest sample, at least the first.
        const auto rank = static_cast<std::size_t>(std::max(
            1.0,
            std::ceil(p * static_cast<double>(samples.size()) / 100.0)));
        const double exact = samples[rank - 1];
        EXPECT_NEAR(forward.percentile(p), exact, exact / 16 + 1e-3)
            << "p" << p;
        EXPECT_EQ(forward.percentile(p), backward.percentile(p))
            << "p" << p;
    }
    EXPECT_EQ(stats::Histogram().count(), 0u);
    EXPECT_EQ(stats::Histogram().mean(), 0.0);
    EXPECT_EQ(stats::Histogram().percentile(50.0), 0.0);
}

TEST(StatsTest, SummaryBundle)
{
    const auto s = stats::summarize({1, 2, 3});
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 3.0);
    EXPECT_DOUBLE_EQ(s.mean, 2.0);
}

// ------------------------------------------------------------ deadlines

TEST(DeadlineTest, DefaultIsInfinite)
{
    const cm::Deadline d;
    EXPECT_FALSE(d.finite());
    EXPECT_FALSE(d.expired());
    EXPECT_EQ(d.remainingMs(),
              std::numeric_limits<double>::infinity());
    EXPECT_FALSE(cm::Deadline::never().finite());
    // A zero or negative budget also means "no budget".
    EXPECT_FALSE(cm::Deadline::afterMs(0.0).finite());
    EXPECT_FALSE(cm::Deadline::afterMs(-10.0).finite());
}

TEST(DeadlineTest, FiniteBudgetRunsOut)
{
    const auto d = cm::Deadline::afterMs(20.0);
    EXPECT_TRUE(d.finite());
    EXPECT_FALSE(d.expired());
    EXPECT_GT(d.remainingMs(), 0.0);
    EXPECT_LE(d.remainingMs(), 20.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(d.expired());
    EXPECT_LE(d.remainingMs(), 0.0);
}

TEST(DeadlineTest, BudgetsPastTheClockRangeNeverExpire)
{
    // Converting these budgets to the clock's int64 nanoseconds once
    // overflowed, and a request that asked for more time was cut off
    // at once.
    for (const double ms :
         {1e13, 1e300, std::numeric_limits<double>::infinity()}) {
        const auto d = cm::Deadline::afterMs(ms);
        EXPECT_FALSE(d.expired()) << ms;
        EXPECT_GT(d.remainingMs(), 1e9) << ms;
    }
    EXPECT_FALSE(
        cm::Deadline::afterMs(std::numeric_limits<double>::quiet_NaN())
            .finite());
    // A budget the clock can hold stays finite.
    const auto decades = cm::Deadline::afterMs(1e12);
    EXPECT_TRUE(decades.finite());
    EXPECT_FALSE(decades.expired());
}

TEST(DeadlineTest, GenerousBudgetStaysUnexpired)
{
    const auto d = cm::Deadline::afterMs(60000.0);
    EXPECT_TRUE(d.finite());
    EXPECT_FALSE(d.expired());
    EXPECT_GT(d.remainingMs(), 1000.0);
    EXPECT_GT(d.timePoint(), cm::Deadline::Clock::now());
}
