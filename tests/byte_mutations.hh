/**
 * @file
 * Byte-level mutations for the fuzz tests of the line parsers: the
 * serve protocol's request lines (serve_test) and failpoint specs
 * (base_test). Modelled on query_test's ParserFuzzTest helpers: bit
 * flips, byte insertions and deletions, runs of NUL and 0x80-0xff
 * bytes, digit runs of 20 or more, the number spellings that break
 * naive range checks or naive number readers, and duplicated
 * comma-separated fields (a JSON member or a spec entry, so keys and
 * sites repeat). Every draw comes
 * from the caller's seeded Rng, so a run is reproducible. query_test
 * prints its own mutants with escaped() too.
 */

#ifndef CACHEMIND_TESTS_BYTE_MUTATIONS_HH
#define CACHEMIND_TESTS_BYTE_MUTATIONS_HH

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <string>

#include "base/random.hh"

namespace fuzz {

/**
 * Number spellings that range checks written with < and > let by, and
 * ones that strtod-based readers take although JSON does not: a
 * trailing '%', hex, padding, and text after an escaped NUL.
 */
inline const char *const kNumberSpellings[] = {
    "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "-0", "1e-400",
    "\"nan\"", "\"inf\"", "\"1e400\"", "9223372036854775808",
    "\"250%\"", "\"0x1p3\"", "\"0x10\"", "\"5\\u0000junk\"", "\" 7 \"",
    "007",
};

/** One random mutation of `s` at a random position. */
inline void
mutateOnce(std::string &s, cachemind::Rng &rng)
{
    const std::size_t pos = rng.nextBelow(s.size() + 1);
    const std::size_t at = s.empty() ? 0 : std::min(pos, s.size() - 1);
    switch (rng.nextBelow(7)) {
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
      case 4: { // a run of 20 or more digits
        std::string run;
        for (std::size_t i = 0, n = 20 + rng.nextBelow(30); i < n; ++i)
            run.push_back(static_cast<char>('0' + rng.nextBelow(10)));
        s.insert(pos, run);
        break;
      }
      case 5: { // a number spelling, often in place of a value
        const std::string word = kNumberSpellings[rng.nextBelow(
            sizeof kNumberSpellings / sizeof kNumberSpellings[0])];
        const auto sep = s.find_first_of(":@#", at);
        if (sep != std::string::npos && rng.nextBelow(2) == 0) {
            const auto end = s.find_first_of(",}", sep + 1);
            s.replace(sep + 1,
                      (end == std::string::npos ? s.size() : end) -
                          sep - 1,
                      word);
        } else {
            s.insert(pos, word);
        }
        break;
      }
      default: { // duplicate the comma-separated field around `at`
        const auto comma = s.rfind(',', at);
        const std::size_t from = comma == std::string::npos ? 0 : comma;
        const auto end = s.find_first_of(",}", from + 1);
        const std::size_t to = end == std::string::npos ? s.size() : end;
        std::string field = s.substr(from, to - from);
        if (!field.empty() && field[0] != ',')
            field.insert(0, 1, ',');
        s.insert(to, field);
        break;
      }
    }
}

/** Printable form of a mutant for failure messages. */
inline std::string
escaped(const std::string &s)
{
    std::ostringstream os;
    for (const unsigned char c : s) {
        if (c >= 0x20 && c < 0x7f && c != '\\')
            os << c;
        else
            os << "\\x" << std::hex << std::setw(2) << std::setfill('0')
               << static_cast<int>(c) << std::dec;
    }
    return os.str();
}

} // namespace fuzz

#endif // CACHEMIND_TESTS_BYTE_MUTATIONS_HH
