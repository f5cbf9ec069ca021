/**
 * @file
 * Small string utilities used across the query, retrieval, and LLM
 * layers: case folding, splitting, hex parsing/formatting, and numeric
 * formatting suitable for trace artifacts.
 */

#ifndef CACHEMIND_BASE_STR_HH
#define CACHEMIND_BASE_STR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cachemind::str {

/** ASCII lower-case copy. */
std::string toLower(const std::string &s);

/** Strip leading/trailing whitespace. */
std::string trim(const std::string &s);

/** Split on a single character, dropping empty pieces if requested. */
std::vector<std::string> split(const std::string &s, char sep,
                               bool keep_empty = false);

/** Split on any whitespace run. */
std::vector<std::string> splitWhitespace(const std::string &s);

/** True if `s` begins with `prefix`. */
bool startsWith(const std::string &s, const std::string &prefix);

/** True if `s` ends with `suffix`. */
bool endsWith(const std::string &s, const std::string &suffix);

/** Case-insensitive substring containment. */
bool containsNoCase(const std::string &haystack,
                    const std::string &needle);

/** Join strings with a separator. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/**
 * Parse a hex literal with or without the 0x prefix.
 * @return nullopt if any non-hex character is present.
 */
std::optional<std::uint64_t> parseHex(const std::string &s);

/**
 * Parse a decimal unsigned integer.
 * @return nullopt on any non-digit, or when the value exceeds
 *         UINT64_MAX.
 */
std::optional<std::uint64_t> parseU64(const std::string &s);

/** Parse a floating-point number (also accepts trailing '%'). */
std::optional<double> parseDouble(const std::string &s);

/** Format as 0x-prefixed lower-case hex. */
std::string hex(std::uint64_t v);

/** Append `v` in lower-case hex without leading zeros ("0" for 0). */
void appendHex(std::string &out, std::uint64_t v);

/** Format a double with fixed decimals. */
std::string fixed(double v, int decimals = 2);

/** Format a ratio as a percentage string, e.g. "94.91%". */
std::string percent(double ratio, int decimals = 2);

/**
 * Extract every hex-looking token (0x...) from free text, in order.
 * Used by the natural-language query parser to find PCs/addresses.
 */
std::vector<std::uint64_t> extractHexTokens(const std::string &text);

/**
 * Extract every decimal integer token from free text, in order. A
 * token too large for 64 bits comes back as UINT64_MAX.
 */
std::vector<std::uint64_t> extractIntTokens(const std::string &text);

/** Levenshtein edit distance (for fuzzy workload/policy matching). */
std::size_t editDistance(const std::string &a, const std::string &b);

} // namespace cachemind::str

#endif // CACHEMIND_BASE_STR_HH
