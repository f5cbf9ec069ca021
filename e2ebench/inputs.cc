#include "inputs.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <unordered_set>

#include "base/random.hh"
#include "base/str.hh"
#include "bench.hh"
#include "benchsuite/generator.hh"

namespace e2ebench {

using namespace cachemind;

const char *
retrieverName(std::uint8_t retriever)
{
    return retriever == 0 ? "sieve" : "ranger";
}

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::MissRate: return "miss_rate";
      case Kind::Count: return "count";
      case Kind::AvgEvictedReuse: return "avg_evicted_reuse";
      case Kind::StdReuse: return "std_reuse";
      case Kind::MaxReuse: return "max_reuse";
      case Kind::AvgRecency: return "avg_recency";
      case Kind::Why: return "why";
      case Kind::PolicyCompare: return "policy_compare";
      case Kind::HitMiss: return "hit_miss";
      case Kind::ShardMissRate: return "shard_miss_rate";
    }
    return "?";
}

namespace {

/** Display form of a policy name, as the question suite writes it. */
std::string
policyDisplay(const std::string &policy)
{
    std::string out = policy;
    for (auto &c : out)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return out == "BELADY" ? "Belady" : out;
}

/** Cold-start requests per connection per second of window (upper bound). */
constexpr std::size_t kColdPerConnSecond = 12000;

std::vector<std::pair<std::string, std::string>>
shardNames(const db::TraceDatabase &db)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &key : db.keys()) {
        const auto *entry = db.find(key);
        out.emplace_back(entry->workload, policyDisplay(entry->policy));
    }
    return out;
}

/**
 * Requests per connection, for windows stretched to their limit, each
 * after its warm-up.
 */
std::size_t
drawsPerConn(double seconds, int windows, std::size_t per_second)
{
    return static_cast<std::size_t>(
               std::ceil((WindowMonitor::kMaxStretch * seconds +
                          WindowMonitor::kWarmupSeconds) *
                         windows)) *
           per_second;
}

/**
 * serve_hot: every per-PC question, each bound to one retriever. Within
 * each family a seeded shuffle sends half the questions to Sieve and
 * half to Ranger, so every seed asks the same families in the same
 * proportions and only the binding and the draw order change.
 */
void
makeHot(ServeInputs &in, const db::TraceDatabase &db, Rng &rng,
        double seconds, int windows)
{
    const auto keys = db.keys();
    // Candidates per family; policy comparison is per (workload, PC).
    std::vector<std::vector<Item>> families(8);
    std::unordered_set<std::string> seen_wl_pc;
    for (std::size_t s = 0; s < keys.size(); ++s) {
        const auto *entry = db.find(keys[s]);
        for (const auto pc : entry->table.uniquePcs()) {
            Item item;
            item.shard = static_cast<std::uint8_t>(s);
            item.pc = pc;
            for (int f = 0; f < 7; ++f) {
                item.kind = static_cast<Kind>(f);
                families[f].push_back(item);
            }
            if (seen_wl_pc.insert(entry->workload + str::hex(pc)).second) {
                item.kind = Kind::PolicyCompare;
                families[7].push_back(item);
            }
        }
    }
    std::vector<std::uint32_t> bound[2];
    for (auto &family : families) {
        for (std::size_t i = family.size(); i > 1; --i)
            std::swap(family[i - 1], family[rng.nextBelow(i)]);
        const std::size_t first_ranger = (family.size() + rng.nextBelow(2)) / 2;
        for (std::size_t i = 0; i < family.size(); ++i) {
            const std::uint8_t r = i < first_ranger ? 0 : 1;
            bound[r].push_back(static_cast<std::uint32_t>(in.items.size()));
            in.prefill.push_back(
                Draw{static_cast<std::uint32_t>(in.items.size()), r});
            in.items.push_back(family[i]);
        }
    }
    const std::size_t n = drawsPerConn(seconds, windows, kDrawsPerConnSecond);
    for (int c = 0; c < 2; ++c) {
        in.sequence[c].reserve(n);
        for (std::size_t k = 0; k < n; ++k) {
            const auto r = static_cast<std::uint8_t>((k + c) % 2);
            in.sequence[c].push_back(
                Draw{bound[r][rng.nextBelow(bound[r].size())], r});
        }
    }
}

/**
 * serve_cold: every request a per-access hit/miss question no earlier
 * request asked. An access is drawn by seed from all trace rows; its
 * (shard, PC, address) is the slot key, so a repeat is redrawn.
 */
void
makeCold(ServeInputs &in, const db::TraceDatabase &db, Rng &rng,
         double seconds, int windows)
{
    std::vector<const db::TraceTable *> tables;
    for (const auto &key : db.keys())
        tables.push_back(&db.find(key)->table);
    const std::size_t per_conn =
        drawsPerConn(seconds, windows, kColdPerConnSecond);
    std::unordered_set<std::uint64_t> used;
    in.items.reserve(per_conn * 2);
    while (in.items.size() < per_conn * 2) {
        Item item;
        item.shard = static_cast<std::uint8_t>(rng.nextBelow(tables.size()));
        const auto &table = *tables[item.shard];
        const std::size_t row = rng.nextBelow(table.size());
        item.pc = table.pcAt(row);
        item.address = table.addressAt(row);
        if (used.insert(hashCombine(hashCombine(item.shard, item.pc),
                                    item.address))
                .second)
            in.items.push_back(item);
    }
    for (int c = 0; c < 2; ++c) {
        in.sequence[c].reserve(per_conn);
        for (std::size_t k = 0; k < per_conn; ++k) {
            in.sequence[c].push_back(
                Draw{static_cast<std::uint32_t>(2 * k + c),
                     static_cast<std::uint8_t>((k + c) % 2)});
        }
    }
}

/**
 * serve_longtail: Zipf draws over a fixed per-access population. Rank r
 * asks about the (shard, PC) pair r mod 84, at a seeded address that
 * PC touched: an access's bundle size follows its PC, so the head that
 * takes most draws mixes shards and PCs the same way for every seed.
 */
void
makeLongtail(ServeInputs &in, const db::TraceDatabase &db, Rng &rng,
             double seconds, int windows)
{
    struct Pair
    {
        std::uint8_t shard;
        std::uint64_t pc;
        std::vector<std::uint32_t> rows;
    };
    std::vector<Pair> pairs;
    const auto keys = db.keys();
    for (std::size_t s = 0; s < keys.size(); ++s) {
        const auto &table = db.find(keys[s])->table;
        for (const auto pc : table.uniquePcs())
            pairs.push_back(Pair{static_cast<std::uint8_t>(s), pc,
                                 table.filter(&pc, nullptr)});
    }
    std::unordered_set<std::uint64_t> used;
    for (std::size_t i = 0; in.items.size() < kLongtailPopulation; ++i) {
        const Pair &p = pairs[i % pairs.size()];
        const auto &table = db.find(keys[p.shard])->table;
        // A PC with few distinct addresses yields its rank to the
        // next pair once a handful of draws found nothing new.
        for (int attempt = 0; attempt < 16; ++attempt) {
            Item item;
            item.kind = Kind::HitMiss;
            item.shard = p.shard;
            item.pc = p.pc;
            item.address = table.addressAt(p.rows[rng.nextBelow(p.rows.size())]);
            if (used.insert(hashCombine(hashCombine(item.shard, item.pc),
                                        item.address))
                    .second) {
                in.items.push_back(item);
                break;
            }
        }
    }

    std::vector<double> cdf(kLongtailPopulation);
    double sum = 0.0;
    for (std::size_t r = 0; r < cdf.size(); ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
        cdf[r] = sum;
    }
    for (auto &c : cdf)
        c /= sum;

    // Pre-fill from the tail towards the head, both retrievers, so the
    // head ends up resident in the hot tier.
    for (std::size_t r = kLongtailPopulation; r-- > 0;) {
        in.prefill.push_back(Draw{static_cast<std::uint32_t>(r), 0});
        in.prefill.push_back(Draw{static_cast<std::uint32_t>(r), 1});
    }
    const std::size_t n = drawsPerConn(seconds, windows, kDrawsPerConnSecond);
    for (int c = 0; c < 2; ++c) {
        in.sequence[c].reserve(n);
        for (std::size_t k = 0; k < n; ++k) {
            const double u = rng.nextDouble();
            const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
            const std::size_t rank = std::min<std::size_t>(
                static_cast<std::size_t>(it - cdf.begin()),
                kLongtailPopulation - 1);
            in.sequence[c].push_back(
                Draw{static_cast<std::uint32_t>(rank),
                     static_cast<std::uint8_t>((k + c) % 2)});
        }
    }
}

} // namespace

std::string
ServeInputs::render(const Item &item) const
{
    const auto &[wl, pol] = shards[item.shard];
    const std::string pc = str::hex(item.pc);
    switch (item.kind) {
      case Kind::MissRate:
        return "What is the miss rate for PC " + pc + " in the " + wl +
               " workload with " + pol + "?";
      case Kind::Count:
        return "How many times did PC " + pc + " appear in the " + wl +
               " workload under " + pol + "?";
      case Kind::AvgEvictedReuse:
        return "What is the average evicted reuse distance of PC " + pc +
               " for the " + wl + " workload with " + pol + "?";
      case Kind::StdReuse:
        return "What is the standard deviation of the reuse distance "
               "of PC " +
               pc + " in the " + wl + " workload under " + pol + "?";
      case Kind::MaxReuse:
        return "What is the maximum reuse distance observed for PC " +
               pc + " in the " + wl + " workload under " + pol + "?";
      case Kind::AvgRecency:
        return "What is the average recency of PC " + pc + " in the " +
               wl + " workload with " + pol + "?";
      case Kind::Why:
        return "Why does PC " + pc + " have a high miss rate in the " +
               wl + " workload under " + pol +
               "? Examine the assembly context and analyze.";
      case Kind::PolicyCompare:
        return "Which policy has the lowest miss rate for PC " + pc +
               " in the " + wl + " workload?";
      case Kind::HitMiss:
        return "Does the memory access with PC " + pc + " and address " +
               str::hex(item.address) +
               " result in a cache hit or cache miss for the " + wl +
               " workload and " + pol + " replacement policy?";
      case Kind::ShardMissRate:
        return "What is the overall miss rate of the " + wl +
               " workload under " + pol + "?";
    }
    return std::string();
}

std::vector<std::string>
warmupQuestions(const db::TraceDatabase &db)
{
    ServeInputs in;
    in.shards = shardNames(db);
    std::vector<std::string> out;
    for (std::size_t s = 0; s < in.shards.size(); ++s) {
        Item item;
        item.kind = Kind::ShardMissRate;
        item.shard = static_cast<std::uint8_t>(s);
        out.push_back(in.render(item));
    }
    return out;
}

ServeInputs
makeServeInputs(const std::string &workload, const db::TraceDatabase &db,
                std::uint64_t seed, double seconds, int windows)
{
    ServeInputs in;
    in.shards = shardNames(db);
    Rng rng(hashCombine(seed, fnv1a(workload)));
    if (workload == "serve_hot")
        makeHot(in, db, rng, seconds, windows);
    else if (workload == "serve_cold")
        makeCold(in, db, rng, seconds, windows);
    else
        makeLongtail(in, db, rng, seconds, windows);
    return in;
}

EvalInputs
makeEvalInputs(const db::TraceDatabase &db, std::uint64_t seed)
{
    EvalInputs in;
    for (std::size_t i = 0; i < kEvalSuites; ++i) {
        const benchsuite::BenchGenerator gen(
            db, hashCombine(hashCombine(seed, fnv1a("eval_sweep")), i));
        in.suites.push_back(gen.generate());
    }
    return in;
}

std::uint64_t
digest(const ServeInputs &in)
{
    std::uint64_t h = fnv1a("serve");
    for (const auto &item : in.items)
        h = hashCombine(h, fnv1a(in.render(item)));
    for (const auto &seq : in.sequence) {
        for (const auto &d : seq)
            h = hashCombine(h, (std::uint64_t{d.item} << 1) | d.retriever);
    }
    for (const auto &d : in.prefill)
        h = hashCombine(h, (std::uint64_t{d.item} << 1) | d.retriever);
    return h;
}

std::uint64_t
digest(const EvalInputs &in)
{
    std::uint64_t h = fnv1a("eval");
    for (const auto &suite : in.suites) {
        for (const auto &q : suite)
            h = hashCombine(h, fnv1a(q.text));
    }
    return h;
}

} // namespace e2ebench
