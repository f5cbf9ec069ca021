/**
 * @file
 * Tests for the database artifact export (CSV dataframes + manifest).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/random.hh"
#include "base/str.hh"
#include "db/builder.hh"
#include "db/export.hh"

using namespace cachemind;
using namespace cachemind::db;

namespace {

const TraceDatabase &
sharedDb()
{
    static const TraceDatabase database = buildSingleDatabase(
        trace::WorkloadKind::Microbench, policy::PolicyKind::Lru,
        30000);
    return database;
}

} // namespace

TEST(ExportTest, HeaderListsSchemaColumns)
{
    const auto header = csvHeader();
    EXPECT_NE(header.find("program_counter"), std::string::npos);
    EXPECT_NE(header.find("memory_address"), std::string::npos);
    EXPECT_NE(header.find("evict"), std::string::npos);
    EXPECT_NE(header.find("current_cache_lines"), std::string::npos);
    ExportOptions narrow;
    narrow.include_snapshots = false;
    EXPECT_EQ(csvHeader(narrow).find("current_cache_lines"),
              std::string::npos);
}

TEST(ExportTest, RowRendersValues)
{
    const auto *entry = sharedDb().find("microbench_evictions_lru");
    const auto line = csvRow(entry->table, 0);
    EXPECT_NE(line.find(str::hex(entry->table.pcAt(0))),
              std::string::npos);
    EXPECT_NE(line.find(str::hex(entry->table.addressAt(0))),
              std::string::npos);
    EXPECT_TRUE(line.find("Cache Miss") != std::string::npos ||
                line.find("Cache Hit") != std::string::npos);
}

TEST(ExportTest, ColumnCountMatchesHeader)
{
    const auto *entry = sharedDb().find("microbench_evictions_lru");
    ExportOptions narrow;
    narrow.include_snapshots = false;
    const auto header = csvHeader(narrow);
    const auto line = csvRow(entry->table, 3, narrow);
    const auto count_cols = [](const std::string &s) {
        std::size_t cols = 1;
        bool quoted = false;
        for (const char c : s) {
            if (c == '"')
                quoted = !quoted;
            else if (c == ',' && !quoted)
                ++cols;
        }
        return cols;
    };
    EXPECT_EQ(count_cols(header), count_cols(line));
}

TEST(ExportTest, EntryCsvRespectsRowCap)
{
    const auto *entry = sharedDb().find("microbench_evictions_lru");
    std::ostringstream os;
    ExportOptions options;
    options.max_rows = 10;
    exportEntryCsv(*entry, os, options);
    std::size_t lines = 0;
    for (const char c : os.str())
        lines += c == '\n';
    EXPECT_EQ(lines, 11u); // header + 10 rows
}

TEST(ExportTest, ManifestCoversEveryEntry)
{
    std::ostringstream os;
    exportManifest(sharedDb(), os);
    const auto text = os.str();
    EXPECT_NE(text.find("[microbench_evictions_lru]"),
              std::string::npos);
    EXPECT_NE(text.find("workload = microbench"), std::string::npos);
    EXPECT_NE(text.find("metadata ="), std::string::npos);
    EXPECT_NE(text.find("unique_pcs ="), std::string::npos);
}

TEST(ExportTest, QuotingHandlesCommasAndQuotes)
{
    // The metadata string contains commas; the manifest must quote it.
    std::ostringstream os;
    exportManifest(sharedDb(), os);
    const auto text = os.str();
    const auto pos = text.find("metadata = \"");
    EXPECT_NE(pos, std::string::npos);
}

TEST(ExportTest, EntryCsvBytesMatchTheRecordedDigest)
{
    // Every row of the 30,000-row table, with and without snapshots.
    // The digests were recorded while rows still carried their
    // function name; csvRow now reads it from the symbol table by PC,
    // and the function_name column must keep its bytes.
    const auto *entry = sharedDb().find("microbench_evictions_lru");
    std::ostringstream wide;
    exportEntryCsv(*entry, wide);
    ExportOptions narrow;
    narrow.include_snapshots = false;
    std::ostringstream thin;
    exportEntryCsv(*entry, thin, narrow);
    EXPECT_EQ(fnv1a(wide.str()), 0x0de781c98f0c0304ULL);
    EXPECT_EQ(fnv1a(thin.str()), 0xab17c0d601138c21ULL);
}
