/**
 * @file
 * Named failpoints for fault-injection testing.
 *
 * A failpoint is a named site in production code where a test (or an
 * operator chasing a bug) can inject a fault: throw an error, sleep for
 * N milliseconds, corrupt a byte buffer, or drop a connection. Sites
 * are compiled in unconditionally — the disarmed fast path is one
 * inline relaxed load of a global armed-site counter and allocates
 * nothing, so planting a failpoint on a hot path costs nothing
 * measurable until someone arms it.
 *
 * Arming
 * ------
 * Three equivalent ways:
 *   - environment: `CACHEMIND_FAILPOINTS="site=action,..."` read once
 *     at process start;
 *   - programmatic: `fail::arm("site", spec)` / `fail::armSpec("...")`;
 *   - over the wire: the serve layer's `failpoints` verb (only when the
 *     server was started with `debug_failpoints` enabled).
 *
 * Spec syntax (comma-separated list of sites):
 *
 *     <site>=<action>[:<arg>][@<probability>][#<max_hits>]
 *
 *     error            throw fail::InjectedFault at the site
 *     delay:<ms>       sleep <ms> milliseconds, then continue
 *     corrupt[:<n>]    truncate + flip <n> bytes of the site's buffer
 *     drop             report the connection/stream as dead
 *     off              disarm the site
 *
 * Examples:
 *     serve.read=drop@0.05          drop 5% of session reads
 *     db.index_build=error#1        fail exactly one index build
 *     retrieve.section=delay:50     50ms stall between evidence sections
 *
 * Draws are deterministic: each site keeps a hit counter and the
 * probability draw for hit N is keyed by (fnv1a(site), N), so a given
 * spec produces the same fault schedule per site on every run.
 */

#ifndef CACHEMIND_BASE_FAILPOINT_HH
#define CACHEMIND_BASE_FAILPOINT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cachemind::fail {

/** What an armed failpoint does when it fires. */
enum class Action {
    Off,     ///< Disarmed; never fires.
    Error,   ///< Throw InjectedFault.
    Delay,   ///< Sleep `arg` milliseconds.
    Corrupt, ///< Mangle the byte buffer passed to maybeCorrupt().
    Drop,    ///< Report the connection/stream as dead.
};

/** Exception thrown by sites armed with Action::Error. */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string &site)
        : std::runtime_error("injected fault at failpoint '" + site + "'"),
          site_(site)
    {
    }

    const std::string &site() const { return site_; }

  private:
    std::string site_;
};

/** Full description of an armed failpoint. */
struct FailSpec {
    Action action = Action::Off;
    /** Delay: milliseconds to sleep. Corrupt: bytes to flip (>= 1). */
    std::uint64_t arg = 0;
    /** Chance each hit fires, in [0, 1]; draws are deterministic. */
    double probability = 1.0;
    /** Auto-disarm after this many fired hits (0 = unlimited). */
    std::uint64_t max_hits = 0;
};

/** A fired failpoint hit, as seen by the planted site. */
struct Hit {
    Action action = Action::Off;
    std::uint64_t arg = 0;
};

namespace detail {
/** Count of armed sites; the disarmed fast path loads only this. */
inline std::atomic<std::uint64_t> armed_sites{0};
} // namespace detail

/** True when at least one site is armed (one relaxed atomic load). */
inline bool
anyArmed()
{
    return detail::armed_sites.load(std::memory_order_relaxed) != 0;
}

/** Number of currently armed sites. */
std::size_t armedCount();

/** Arm one site programmatically. action Off disarms it. */
void arm(const std::string &site, const FailSpec &spec);

/**
 * Arm sites from a spec string (syntax in the file header). An empty
 * string or the single word "off" disarms every site. Returns false and
 * fills `error` (when non-null) on a malformed spec; sites parsed
 * before the error remain armed.
 */
bool armSpec(const std::string &spec, std::string *error = nullptr);

/** Disarm one site. */
void disarm(const std::string &site);

/** Disarm every site (hit counters are kept). */
void disarmAll();

/** Total faults fired across all sites since process start. */
std::uint64_t injectedTotal();

/** Faults fired per site since process start. */
std::map<std::string, std::uint64_t> injectedBySite();

namespace detail {
/** Bump `site`'s hit counter; the action to perform if it fires. */
std::optional<Hit> evaluateArmed(std::string_view site);
void sleepMs(std::uint64_t ms);
void corruptBytes(std::string_view site, std::string &bytes,
                  std::uint64_t flips);
} // namespace detail

/**
 * Site helper: honor Delay (sleep) and Error (throw InjectedFault).
 * Other actions are ignored at this site.
 */
inline void
maybeThrow(std::string_view site)
{
    if (!anyArmed())
        return;
    if (auto hit = detail::evaluateArmed(site)) {
        if (hit->action == Action::Delay)
            detail::sleepMs(hit->arg);
        else if (hit->action == Action::Error)
            throw InjectedFault(std::string(site));
    }
}

/**
 * Site helper for I/O paths: honor Delay (sleep, then proceed) and
 * Drop/Error (return true — the caller must treat the connection or
 * stream as dead).
 */
inline bool
maybeDrop(std::string_view site)
{
    if (!anyArmed())
        return false;
    if (auto hit = detail::evaluateArmed(site)) {
        if (hit->action == Action::Delay)
            detail::sleepMs(hit->arg);
        else if (hit->action == Action::Drop || hit->action == Action::Error)
            return true;
    }
    return false;
}

/** Site helper: honor Delay only (sleep, then proceed). */
inline void
maybeDelay(std::string_view site)
{
    if (!anyArmed())
        return;
    if (auto hit = detail::evaluateArmed(site)) {
        if (hit->action == Action::Delay)
            detail::sleepMs(hit->arg);
    }
}

/**
 * Site helper for codec paths: honor Corrupt/Error by deterministically
 * truncating `bytes` and flipping `arg` bytes (so a downstream decoder
 * reliably rejects the buffer), and Delay by sleeping.
 */
inline void
maybeCorrupt(std::string_view site, std::string &bytes)
{
    if (!anyArmed())
        return;
    if (auto hit = detail::evaluateArmed(site)) {
        if (hit->action == Action::Delay)
            detail::sleepMs(hit->arg);
        else if (hit->action == Action::Corrupt ||
                 hit->action == Action::Error)
            detail::corruptBytes(site, bytes, hit->arg ? hit->arg : 1);
    }
}

} // namespace cachemind::fail

#endif // CACHEMIND_BASE_FAILPOINT_HH
