#include "retrieval/bundle_codec.hh"

#include <cstring>
#include <unordered_map>
#include <vector>

namespace cachemind::retrieval {
namespace {

constexpr char kMagic0 = 'C';
constexpr char kMagic1 = 'B';
constexpr std::uint8_t kVersion = 2;

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/**
 * Builds the payload while interning every string into the table;
 * finish() prepends header + table so decode can resolve references
 * in one forward pass.
 */
class Encoder
{
  public:
    void
    u64(std::uint64_t v)
    {
        while (v >= 0x80) {
            payload_.push_back(static_cast<char>(v | 0x80));
            v >>= 7;
        }
        payload_.push_back(static_cast<char>(v));
    }

    void i64(std::int64_t v) { u64(zigzag(v)); }
    void boolean(bool v) { u64(v ? 1 : 0); }

    void
    f64(double v)
    {
        // Raw little-endian bits: bit-exact round trip, NaN included.
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        char buf[8];
        for (int i = 0; i < 8; ++i)
            buf[i] = static_cast<char>(bits >> (8 * i));
        payload_.append(buf, 8);
    }

    void
    str(const std::string &s)
    {
        auto [it, inserted] = ids_.emplace(s, table_.size());
        if (inserted)
            table_.push_back(s);
        u64(it->second);
    }

    template <typename T, typename Fn>
    void
    vec(const std::vector<T> &v, Fn &&each)
    {
        u64(v.size());
        for (const T &item : v)
            each(item);
    }

    std::string
    finish() &&
    {
        std::string out;
        out.push_back(kMagic0);
        out.push_back(kMagic1);
        out.push_back(static_cast<char>(kVersion));
        std::string head;
        std::swap(head, payload_);
        u64(table_.size());
        for (const std::string &s : table_) {
            u64(s.size());
            payload_.append(s);
        }
        out += payload_;
        out += head;
        return out;
    }

  private:
    std::string payload_;
    std::vector<std::string> table_;
    std::unordered_map<std::string, std::uint64_t> ids_;
};

/** Thrown on any malformed read; decodeBundle maps it to nullopt. */
struct Corrupt
{
};

class Decoder
{
  public:
    explicit Decoder(const std::string &data)
        : p_(data.data()), end_(data.data() + data.size())
    {
        if (end_ - p_ < 3 || p_[0] != kMagic0 || p_[1] != kMagic1 ||
            static_cast<std::uint8_t>(p_[2]) != kVersion)
            throw Corrupt{};
        p_ += 3;
        const std::uint64_t n = u64();
        table_.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t len = u64();
            if (static_cast<std::uint64_t>(end_ - p_) < len)
                throw Corrupt{};
            table_.emplace_back(p_, len);
            p_ += len;
        }
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        int shift = 0;
        for (;;) {
            if (p_ == end_ || shift > 63)
                throw Corrupt{};
            const std::uint8_t byte = static_cast<std::uint8_t>(*p_++);
            v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
            if (!(byte & 0x80))
                return v;
            shift += 7;
        }
    }

    std::int64_t i64() { return unzigzag(u64()); }
    bool boolean() { return u64() != 0; }

    double
    f64()
    {
        if (end_ - p_ < 8)
            throw Corrupt{};
        std::uint64_t bits = 0;
        for (int i = 0; i < 8; ++i)
            bits |= static_cast<std::uint64_t>(
                        static_cast<std::uint8_t>(p_[i]))
                    << (8 * i);
        p_ += 8;
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    const std::string &
    str()
    {
        const std::uint64_t id = u64();
        if (id >= table_.size())
            throw Corrupt{};
        return table_[id];
    }

    template <typename T, typename Fn>
    std::vector<T>
    vec(Fn &&each)
    {
        const std::uint64_t n = u64();
        // A count can't exceed one element per remaining payload byte;
        // without this cap a corrupt count could reserve petabytes.
        if (n > static_cast<std::uint64_t>(end_ - p_))
            throw Corrupt{};
        std::vector<T> out;
        out.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
            out.push_back(each());
        return out;
    }

  private:
    const char *p_;
    const char *end_;
    std::vector<std::string> table_;
};

void
encodeParsed(Encoder &e, const query::ParsedQuery &q)
{
    e.u64(static_cast<std::uint64_t>(q.intent));
    e.boolean(q.pc.has_value());
    if (q.pc)
        e.u64(*q.pc);
    e.boolean(q.address.has_value());
    if (q.address)
        e.u64(*q.address);
    e.boolean(q.set_id.has_value());
    if (q.set_id)
        e.u64(*q.set_id);
    e.vec(q.workloads, [&](const std::string &s) { e.str(s); });
    e.vec(q.policies, [&](const std::string &s) { e.str(s); });
    e.u64(static_cast<std::uint64_t>(q.agg));
    e.u64(static_cast<std::uint64_t>(q.field));
    e.u64(q.top_n);
    e.str(q.raw);
}

query::ParsedQuery
decodeParsed(Decoder &d)
{
    query::ParsedQuery q;
    q.intent = static_cast<query::QueryIntent>(d.u64());
    if (d.boolean())
        q.pc = d.u64();
    if (d.boolean())
        q.address = d.u64();
    if (d.boolean())
        q.set_id = static_cast<std::uint32_t>(d.u64());
    q.workloads = d.vec<std::string>([&] { return d.str(); });
    q.policies = d.vec<std::string>([&] { return d.str(); });
    q.agg = static_cast<query::AggKind>(d.u64());
    q.field = static_cast<query::FieldKind>(d.u64());
    q.top_n = static_cast<std::size_t>(d.u64());
    q.raw = d.str();
    return q;
}

void
encodeRow(Encoder &e, const db::AccessRow &r)
{
    e.u64(r.index);
    e.u64(r.program_counter);
    e.u64(r.memory_address);
    e.u64(r.cache_set_id);
    e.boolean(r.is_miss);
    e.boolean(r.bypassed);
    e.u64(static_cast<std::uint64_t>(r.miss_type));
    e.boolean(r.has_victim);
    e.u64(r.evicted_address);
    e.i64(r.accessed_reuse_distance);
    e.i64(r.accessed_recency);
    e.i64(r.evicted_reuse_distance);
    e.boolean(r.wrong_eviction);
    e.str(r.recency_text);
    e.vec(r.current_cache_lines, [&](const db::PcAddr &pa) {
        e.u64(pa.pc);
        e.u64(pa.address);
    });
    e.vec(r.cache_line_eviction_scores,
          [&](std::uint64_t v) { e.u64(v); });
    e.vec(r.recent_access_history, [&](const db::PcAddr &pa) {
        e.u64(pa.pc);
        e.u64(pa.address);
    });
}

db::AccessRow
decodeRow(Decoder &d)
{
    db::AccessRow r;
    r.index = d.u64();
    r.program_counter = d.u64();
    r.memory_address = d.u64();
    r.cache_set_id = static_cast<std::uint32_t>(d.u64());
    r.is_miss = d.boolean();
    r.bypassed = d.boolean();
    r.miss_type = static_cast<sim::MissType>(d.u64());
    r.has_victim = d.boolean();
    r.evicted_address = d.u64();
    r.accessed_reuse_distance = d.i64();
    r.accessed_recency = d.i64();
    r.evicted_reuse_distance = d.i64();
    r.wrong_eviction = d.boolean();
    r.recency_text = d.str();
    r.current_cache_lines = d.vec<db::PcAddr>([&] {
        db::PcAddr pa;
        pa.pc = d.u64();
        pa.address = d.u64();
        return pa;
    });
    r.cache_line_eviction_scores =
        d.vec<std::uint64_t>([&] { return d.u64(); });
    r.recent_access_history = d.vec<db::PcAddr>([&] {
        db::PcAddr pa;
        pa.pc = d.u64();
        pa.address = d.u64();
        return pa;
    });
    return r;
}

void
encodePcStats(Encoder &e, const db::PcStats &s)
{
    e.u64(s.pc);
    e.u64(s.accesses);
    e.u64(s.hits);
    e.u64(s.misses);
    e.u64(s.evictions_caused);
    e.u64(s.wrong_evictions);
    e.u64(s.never_reused);
    e.f64(s.mean_reuse_distance);
    e.f64(s.reuse_distance_stdev);
    e.f64(s.mean_evicted_reuse_distance);
    e.f64(s.mean_recency);
}

db::PcStats
decodePcStats(Decoder &d)
{
    db::PcStats s;
    s.pc = d.u64();
    s.accesses = d.u64();
    s.hits = d.u64();
    s.misses = d.u64();
    s.evictions_caused = d.u64();
    s.wrong_evictions = d.u64();
    s.never_reused = d.u64();
    s.mean_reuse_distance = d.f64();
    s.reuse_distance_stdev = d.f64();
    s.mean_evicted_reuse_distance = d.f64();
    s.mean_recency = d.f64();
    return s;
}

std::size_t
stringBytes(const std::string &s)
{
    return sizeof(std::string) + s.capacity();
}

} // namespace

std::string
encodeBundle(const ContextBundle &b)
{
    Encoder e;
    e.str(b.retriever);
    encodeParsed(e, b.parsed);
    e.str(b.trace_key);
    e.vec(b.rows, [&](const db::AccessRow &r) { encodeRow(e, r); });
    e.u64(b.total_matches);
    e.boolean(b.total_is_exact);
    e.boolean(b.pc_stats.has_value());
    if (b.pc_stats)
        encodePcStats(e, *b.pc_stats);
    e.vec(b.pc_stats_list,
          [&](const db::PcStats &s) { encodePcStats(e, s); });
    e.vec(b.set_stats, [&](const db::SetStats &s) {
        e.u64(s.set);
        e.u64(s.accesses);
        e.u64(s.hits);
    });
    e.vec(b.policy_numbers, [&](const PolicyNumber &p) {
        e.str(p.policy);
        e.f64(p.value);
        e.u64(p.samples);
    });
    e.str(b.policy_numbers_label);
    e.str(b.metadata);
    e.str(b.workload_description);
    e.str(b.policy_description);
    e.str(b.function_name);
    e.str(b.function_code);
    e.str(b.assembly);
    e.vec(b.values, [&](std::uint64_t v) { e.u64(v); });
    e.boolean(b.values_complete);
    e.boolean(b.computed.has_value());
    if (b.computed)
        e.f64(*b.computed);
    e.str(b.generated_code);
    e.str(b.result_text);
    e.boolean(b.premise_violation);
    e.str(b.premise_note);
    e.f64(b.retrieval_ms);
    return std::move(e).finish();
}

std::optional<ContextBundle>
decodeBundle(const std::string &data)
{
    try {
        Decoder d(data);
        ContextBundle b;
        b.retriever = d.str();
        b.parsed = decodeParsed(d);
        b.trace_key = d.str();
        b.rows = d.vec<db::AccessRow>([&] { return decodeRow(d); });
        b.total_matches = static_cast<std::size_t>(d.u64());
        b.total_is_exact = d.boolean();
        if (d.boolean())
            b.pc_stats = decodePcStats(d);
        b.pc_stats_list =
            d.vec<db::PcStats>([&] { return decodePcStats(d); });
        b.set_stats = d.vec<db::SetStats>([&] {
            db::SetStats s;
            s.set = static_cast<std::uint32_t>(d.u64());
            s.accesses = d.u64();
            s.hits = d.u64();
            return s;
        });
        b.policy_numbers = d.vec<PolicyNumber>([&] {
            PolicyNumber p;
            p.policy = d.str();
            p.value = d.f64();
            p.samples = d.u64();
            return p;
        });
        b.policy_numbers_label = d.str();
        b.metadata = d.str();
        b.workload_description = d.str();
        b.policy_description = d.str();
        b.function_name = d.str();
        b.function_code = d.str();
        b.assembly = d.str();
        b.values = d.vec<std::uint64_t>([&] { return d.u64(); });
        b.values_complete = d.boolean();
        if (d.boolean())
            b.computed = d.f64();
        b.generated_code = d.str();
        b.result_text = d.str();
        b.premise_violation = d.boolean();
        b.premise_note = d.str();
        b.retrieval_ms = d.f64();
        return b;
    } catch (const Corrupt &) {
        return std::nullopt;
    }
}

std::size_t
approxBundleBytes(const ContextBundle &b)
{
    std::size_t n = sizeof(ContextBundle);
    n += b.retriever.capacity() + b.trace_key.capacity();
    n += b.parsed.raw.capacity();
    for (const std::string &s : b.parsed.workloads)
        n += stringBytes(s);
    for (const std::string &s : b.parsed.policies)
        n += stringBytes(s);
    for (const db::AccessRow &r : b.rows) {
        n += sizeof(db::AccessRow) + r.recency_text.capacity();
        n += r.current_cache_lines.capacity() * sizeof(db::PcAddr);
        n += r.cache_line_eviction_scores.capacity() *
             sizeof(std::uint64_t);
        n += r.recent_access_history.capacity() * sizeof(db::PcAddr);
    }
    n += b.pc_stats_list.capacity() * sizeof(db::PcStats);
    n += b.set_stats.capacity() * sizeof(db::SetStats);
    for (const PolicyNumber &p : b.policy_numbers)
        n += sizeof(PolicyNumber) + p.policy.capacity();
    n += b.policy_numbers_label.capacity() + b.metadata.capacity() +
         b.workload_description.capacity() +
         b.policy_description.capacity() + b.function_name.capacity() +
         b.function_code.capacity() + b.assembly.capacity();
    n += b.values.capacity() * sizeof(std::uint64_t);
    n += b.generated_code.capacity() + b.result_text.capacity() +
         b.premise_note.capacity();
    return n;
}

} // namespace cachemind::retrieval
