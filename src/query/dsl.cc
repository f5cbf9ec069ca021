#include "query/dsl.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/stats_util.hh"
#include "base/str.hh"

namespace cachemind::query {

const char *
dslOpName(DslOp op)
{
    switch (op) {
      case DslOp::SelectRows: return "select_rows";
      case DslOp::CountRows: return "count_rows";
      case DslOp::MissRate: return "miss_rate";
      case DslOp::HitCount: return "hit_count";
      case DslOp::MeanField: return "mean";
      case DslOp::SumField: return "sum";
      case DslOp::MinField: return "min";
      case DslOp::MaxField: return "max";
      case DslOp::StdField: return "std";
      case DslOp::UniquePcs: return "unique_pcs";
      case DslOp::UniqueSets: return "unique_sets";
      case DslOp::PerPcStats: return "per_pc_stats";
      case DslOp::PerSetStats: return "per_set_stats";
      case DslOp::Metadata: return "metadata";
    }
    return "?";
}

const char *
dslFieldName(DslField field)
{
    switch (field) {
      case DslField::ReuseDistance:
        return "accessed_address_reuse_distance_numeric";
      case DslField::EvictedReuseDistance:
        return "evicted_address_reuse_distance_numeric";
      case DslField::Recency:
        return "accessed_address_recency_numeric";
    }
    return "?";
}

std::string
renderProgramAsPython(const DslProgram &prog)
{
    std::ostringstream os;
    os << "df = loaded_data[\"" << prog.trace_key << "\"][\"data_frame\"]\n";
    std::vector<std::string> conds;
    if (prog.pc) {
        conds.push_back("df.program_counter == \"" + str::hex(*prog.pc) +
                        "\"");
    }
    if (prog.address) {
        conds.push_back("df.memory_address == \"" +
                        str::hex(*prog.address) + "\"");
    }
    if (prog.set_id) {
        conds.push_back("df.cache_set_id == " +
                        std::to_string(*prog.set_id));
    }
    if (!conds.empty())
        os << "df = df[" << str::join(conds, " & ") << "]\n";
    switch (prog.op) {
      case DslOp::SelectRows:
        os << "result = df.head(" << prog.limit << ").to_string()\n";
        break;
      case DslOp::CountRows:
        os << "result = f\"count = {len(df)}\"\n";
        break;
      case DslOp::MissRate:
        os << "result = f\"miss rate = "
              "{100.0 * df.is_miss.mean():.2f}%\"\n";
        break;
      case DslOp::HitCount:
        os << "result = f\"hits = {(1 - df.is_miss).sum()}\"\n";
        break;
      case DslOp::MeanField:
      case DslOp::SumField:
      case DslOp::MinField:
      case DslOp::MaxField:
      case DslOp::StdField:
        os << "xs = df[\"" << dslFieldName(prog.field)
           << "\"]; xs = xs[xs >= 0]\n"
           << "result = f\"" << dslOpName(prog.op) << " = {xs."
           << dslOpName(prog.op) << "()}\"\n";
        break;
      case DslOp::UniquePcs:
        os << "result = sorted(df.program_counter.unique())\n";
        break;
      case DslOp::UniqueSets:
        os << "result = sorted(df.cache_set_id.unique())\n";
        break;
      case DslOp::PerPcStats:
        os << "result = df.groupby(\"program_counter\").agg("
              "miss_rate=(\"is_miss\", \"mean\"), "
              "reuse=(\"accessed_address_reuse_distance_numeric\", "
              "\"mean\"))\n";
        break;
      case DslOp::PerSetStats:
        os << "result = df.groupby(\"cache_set_id\").agg("
              "hits=(\"is_miss\", lambda m: (1 - m).sum()))\n";
        break;
      case DslOp::Metadata:
        os << "result = loaded_data[\"" << prog.trace_key
           << "\"][\"metadata\"]\n";
        break;
    }
    return os.str();
}

namespace {

std::int64_t
fieldValue(const db::TraceTable &t, std::size_t i, DslField field)
{
    switch (field) {
      case DslField::ReuseDistance: return t.reuseDistanceAt(i);
      case DslField::EvictedReuseDistance:
        return t.evictedReuseDistanceAt(i);
      case DslField::Recency: return t.recencyAt(i);
    }
    return db::kNoValue;
}

/**
 * Final aggregate over the collected finite samples — shared by both
 * execution modes so the arithmetic (and therefore every output bit)
 * is identical by construction.
 */
void
aggregateSamples(const std::vector<double> &xs, const DslProgram &prog,
                 DslResult &res)
{
    if (xs.empty()) {
        res.error = "no finite samples for field " +
                    std::string(dslFieldName(prog.field));
        return;
    }
    double out = 0.0;
    switch (prog.op) {
      case DslOp::MeanField: out = stats::mean(xs); break;
      case DslOp::SumField:
        for (const double x : xs)
            out += x;
        break;
      case DslOp::MinField:
        out = *std::min_element(xs.begin(), xs.end());
        break;
      case DslOp::MaxField:
        out = *std::max_element(xs.begin(), xs.end());
        break;
      case DslOp::StdField: out = stats::stdev(xs); break;
      default: break;
    }
    res.number = out;
    res.ok = true;
}

bool
isAggregateOp(DslOp op)
{
    return op == DslOp::MeanField || op == DslOp::SumField ||
           op == DslOp::MinField || op == DslOp::MaxField ||
           op == DslOp::StdField;
}

} // namespace

DslResult
Interpreter::run(const DslProgram &prog) const
{
    ExecScratch scratch;
    return run(prog, scratch);
}

DslResult
Interpreter::run(const DslProgram &prog, ExecScratch &scratch) const
{
    DslResult res;
    const db::TraceEntry *entry = shards_.find(prog.trace_key);
    if (!entry) {
        res.error = "no trace named '" + prog.trace_key +
                    "' in the database";
        return res;
    }
    const db::TraceTable &table = entry->table;

    if (prog.op == DslOp::Metadata) {
        res.ok = true;
        res.text = entry->metadata;
        return res;
    }
    if (prog.op == DslOp::UniquePcs) {
        res.ok = true;
        // Indexed: the build-time sorted listing; scan: re-sort.
        res.values = mode_ == ExecMode::Indexed ? table.uniquePcs()
                                                : table.uniquePcsScan();
        return res;
    }
    if (prog.op == DslOp::UniqueSets) {
        res.ok = true;
        if (mode_ == ExecMode::Indexed) {
            for (const auto s : table.uniqueSets())
                res.values.push_back(s);
        } else {
            for (const auto s : table.uniqueSetsScan())
                res.values.push_back(s);
        }
        return res;
    }
    if (prog.op == DslOp::PerPcStats || prog.op == DslOp::PerSetStats) {
        const db::StatsExpert *expert = shards_.statsFor(prog.trace_key);
        res.ok = true;
        if (prog.op == DslOp::PerPcStats) {
            if (prog.pc) {
                if (auto ps = expert->pcStats(*prog.pc))
                    res.pc_stats.push_back(*ps);
            } else {
                res.pc_stats = expert->allPcStats();
            }
        } else {
            if (prog.set_id) {
                if (auto ss = expert->setStats(*prog.set_id))
                    res.set_stats.push_back(*ss);
            } else {
                res.set_stats = expert->allSetStats();
            }
        }
        return res;
    }

    return mode_ == ExecMode::Indexed
               ? runFilteredIndexed(*entry, prog, scratch)
               : runFilteredScan(*entry, prog, scratch);
}

/**
 * Row-filtered operations on the index. Counting aggregates
 * (CountRows/HitCount/MissRate) with no filter or with one PC or set
 * are served straight from precomputed counters without touching a
 * single row, and the other ops decode that one key's chunked
 * postings. A PC and a set intersect their postings through the
 * adaptive kernels (galloping / SIMD merge / bitmap AND). An address
 * walks its run in the index's address-sorted rows (a few hundred
 * rows at most) and checks the PC and set columns. Postings and
 * address runs are ascending, so the visit order — and hence every
 * output bit — matches the reference scan.
 */
DslResult
Interpreter::runFilteredIndexed(const db::TraceEntry &entry,
                                const DslProgram &prog,
                                ExecScratch &scratch) const
{
    const db::TraceTable &table = entry.table;
    const db::TraceIndex *idx_ptr = table.indexOrFallback();
    if (!idx_ptr) {
        // Index build failed for this shard: answer from the
        // reference scan — identical bytes, just slower.
        return runFilteredScan(entry, prog, scratch);
    }
    DslResult res;
    const db::TraceIndex &idx = *idx_ptr;
    const std::size_t n = table.size();

    // Resolve filter keys; any absent key means zero matches.
    bool absent = false;
    std::optional<std::uint32_t> pc_id;
    if (prog.pc) {
        pc_id = table.pcIdOf(*prog.pc);
        absent |= !pc_id;
    }
    if (prog.set_id && !absent && idx.setCounts(*prog.set_id) == nullptr)
        absent = true;
    db::RowSpan addr_rows;
    if (prog.address && !absent) {
        addr_rows = idx.addressRows(*prog.address);
        absent = addr_rows.empty();
    }
    const bool whole_table = !prog.pc && !prog.address && !prog.set_id;

    // Scan-equivalent instrumentation: rows actually walked.
    std::size_t visited = 0;

    // An address, or a PC and a set, gather their matches into `hits`
    // with one walk, ascending. No filter, or one PC or set key, needs
    // no walk: its counters are O(1) reads and `key_list` holds the
    // key's postings.
    const bool gathered =
        !absent && (prog.address || (prog.pc && prog.set_id));
    std::vector<std::uint32_t> &hits = scratch.rows;
    hits.clear();
    db::PostingsList key_list;
    std::size_t matched = 0, misses = 0;
    if (absent) {
        // matched stays 0.
    } else if (prog.address) {
        for (const std::uint32_t i : addr_rows) {
            if ((!prog.pc || table.pcAt(i) == *prog.pc) &&
                (!prog.set_id || table.setAt(i) == *prog.set_id))
                hits.push_back(i);
        }
        visited += addr_rows.size();
        matched = hits.size();
    } else if (prog.pc && prog.set_id) {
        const db::PostingsList a = idx.pcPostings(*pc_id);
        const db::PostingsList b = idx.setPostings(*prog.set_id);
        idx.intersect(a, b, 0, hits);
        visited += std::min(a.size(), b.size());
        matched = hits.size();
    } else if (whole_table) {
        matched = n;
        misses = static_cast<std::size_t>(idx.totals().misses);
    } else {
        key_list = pc_id ? idx.pcPostings(*pc_id)
                         : idx.setPostings(*prog.set_id);
        const db::IndexKeyCounts *c =
            pc_id ? idx.pcCounts(*pc_id) : idx.setCounts(*prog.set_id);
        matched = static_cast<std::size_t>(c->accesses);
        misses = static_cast<std::size_t>(c->misses);
    }

    switch (prog.op) {
      case DslOp::SelectRows: {
        const std::size_t take =
            prog.limit ? std::min(prog.limit, matched) : matched;
        if (take > 0 && whole_table) {
            for (std::size_t i = 0; i < take; ++i)
                res.rows.push_back(table.row(i));
        } else if (take > 0) {
            if (!gathered) {
                // One key: its postings are exactly the match set, so
                // a limit-bounded decode is the whole walk.
                db::decodeList(key_list, hits, take);
                visited += hits.size();
            }
            for (std::size_t k = 0; k < take; ++k)
                res.rows.push_back(table.row(hits[k]));
        }
        res.ok = true;
        break;
      }
      case DslOp::CountRows:
      case DslOp::MissRate:
      case DslOp::HitCount: {
        if (gathered) {
            for (const auto i : hits)
                misses += table.isMissAt(i);
        }
        if (prog.op == DslOp::CountRows) {
            res.number = static_cast<double>(matched);
            res.ok = true;
        } else if (prog.op == DslOp::MissRate) {
            if (matched == 0) {
                res.error = "no rows match the filters";
                break;
            }
            res.number = static_cast<double>(misses) /
                         static_cast<double>(matched);
            res.ok = true;
        } else {
            res.number = static_cast<double>(matched - misses);
            res.ok = true;
        }
        break;
      }
      case DslOp::MeanField:
      case DslOp::SumField:
      case DslOp::MinField:
      case DslOp::MaxField:
      case DslOp::StdField: {
        std::vector<double> &xs = scratch.samples;
        xs.clear();
        xs.reserve(matched);
        const auto collect = [&](std::size_t i) {
            const std::int64_t v = fieldValue(table, i, prog.field);
            if (v != db::kNoValue)
                xs.push_back(static_cast<double>(v));
        };
        if (absent) {
            // No samples.
        } else if (whole_table) {
            for (std::size_t i = 0; i < n; ++i)
                collect(i);
            visited += n;
        } else if (gathered) {
            for (const auto i : hits)
                collect(i);
        } else {
            // One key: walk its postings in place, no materialized
            // row-id vector.
            db::forEachRow(key_list, collect);
            visited += key_list.size();
        }
        aggregateSamples(xs, prog, res);
        break;
      }
      default: res.error = "unsupported operation"; break;
    }

    res.matched = matched;
    idx.noteLookup(visited);
    return res;
}

/** The pre-index O(n) row walk — the executable specification. */
DslResult
Interpreter::runFilteredScan(const db::TraceEntry &entry,
                             const DslProgram &prog,
                             ExecScratch & /*scratch*/) const
{
    DslResult res;
    const db::TraceTable &table = entry.table;

    std::vector<std::uint32_t> rows;
    if (prog.pc || prog.address) {
        const std::uint64_t *pc = prog.pc ? &*prog.pc : nullptr;
        const std::uint64_t *addr =
            prog.address ? &*prog.address : nullptr;
        rows = table.filterScan(pc, addr);
    } else {
        rows.resize(table.size());
        for (std::size_t i = 0; i < table.size(); ++i)
            rows[i] = static_cast<std::uint32_t>(i);
    }
    if (prog.set_id) {
        std::vector<std::uint32_t> keep;
        for (const auto i : rows) {
            if (table.setAt(i) == *prog.set_id)
                keep.push_back(i);
        }
        rows.swap(keep);
    }
    res.matched = rows.size();

    switch (prog.op) {
      case DslOp::SelectRows: {
        const std::size_t take =
            prog.limit ? std::min(prog.limit, rows.size())
                       : rows.size();
        for (std::size_t k = 0; k < take; ++k)
            res.rows.push_back(table.row(rows[k]));
        res.ok = true;
        return res;
      }
      case DslOp::CountRows:
        res.number = static_cast<double>(rows.size());
        res.ok = true;
        return res;
      case DslOp::MissRate: {
        if (rows.empty()) {
            res.error = "no rows match the filters";
            return res;
        }
        std::size_t misses = 0;
        for (const auto i : rows)
            misses += table.isMissAt(i);
        res.number = static_cast<double>(misses) /
                     static_cast<double>(rows.size());
        res.ok = true;
        return res;
      }
      case DslOp::HitCount: {
        std::size_t hits = 0;
        for (const auto i : rows)
            hits += !table.isMissAt(i);
        res.number = static_cast<double>(hits);
        res.ok = true;
        return res;
      }
      default: break;
    }

    if (isAggregateOp(prog.op)) {
        std::vector<double> xs;
        xs.reserve(rows.size());
        for (const auto i : rows) {
            const std::int64_t v = fieldValue(table, i, prog.field);
            if (v != db::kNoValue)
                xs.push_back(static_cast<double>(v));
        }
        aggregateSamples(xs, prog, res);
        return res;
    }
    res.error = "unsupported operation";
    return res;
}

} // namespace cachemind::query
