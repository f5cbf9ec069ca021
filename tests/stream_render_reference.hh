/**
 * @file
 * Test helper: the ostringstream renderings that str::hex and
 * retrieval::renderRowLine replaced, kept verbatim (but for their
 * names) so the append-based versions can be pinned to their bytes.
 */

#ifndef CACHEMIND_TESTS_STREAM_RENDER_REFERENCE_HH
#define CACHEMIND_TESTS_STREAM_RENDER_REFERENCE_HH

#include <cstdint>
#include <sstream>
#include <string>

#include "db/table.hh"
#include "sim/llc_replay.hh"

/** str::hex as it was: "0x" and std::hex through a stream. */
inline std::string
streamHex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** retrieval::renderRowLine as it was, over streamHex. */
inline std::string
streamRowLine(const cachemind::db::AccessRow &row)
{
    using namespace cachemind;
    std::ostringstream os;
    os << "program_counter=" << streamHex(row.program_counter)
       << ", memory_address=" << streamHex(row.memory_address)
       << ", cache_set_id=" << row.cache_set_id << ", evict="
       << (row.is_miss ? "Cache Miss" : "Cache Hit");
    if (row.is_miss)
        os << ", miss_type=" << sim::missTypeName(row.miss_type);
    if (row.accessed_reuse_distance != db::kNoValue)
        os << ", reuse_distance=" << row.accessed_reuse_distance;
    os << ", recency=" << row.recency_text;
    if (row.has_victim) {
        os << ", evicted_address=" << streamHex(row.evicted_address);
        if (row.evicted_reuse_distance != db::kNoValue) {
            os << " (needed again in " << row.evicted_reuse_distance
               << " accesses)";
        }
    }
    return os.str();
}

#endif // CACHEMIND_TESTS_STREAM_RENDER_REFERENCE_HH
