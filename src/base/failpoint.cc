#include "base/failpoint.hh"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "base/random.hh"
#include "base/str.hh"

namespace cachemind::fail {

namespace {

/** Total fired faults across all sites. */
std::atomic<std::uint64_t> g_injected_total{0};

struct SiteState {
    FailSpec spec;
    std::uint64_t hits = 0;  ///< Evaluations while the registry was hot.
    std::uint64_t fired = 0; ///< Evaluations that injected a fault.
};

struct Registry {
    std::mutex mu;
    // std::less<> lets a site be looked up by its std::string_view.
    std::map<std::string, SiteState, std::less<>> sites;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

bool
parseAction(const std::string &word, Action &out)
{
    const std::string w = str::toLower(str::trim(word));
    if (w == "error")
        out = Action::Error;
    else if (w == "delay")
        out = Action::Delay;
    else if (w == "corrupt")
        out = Action::Corrupt;
    else if (w == "drop")
        out = Action::Drop;
    else if (w == "off")
        out = Action::Off;
    else
        return false;
    return true;
}

bool
parseEntry(const std::string &entry, std::string &site, FailSpec &spec,
           std::string *error)
{
    const auto eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
        if (error)
            *error = "failpoint entry '" + entry + "' is not <site>=<action>";
        return false;
    }
    site = str::trim(entry.substr(0, eq));
    std::string rhs = str::trim(entry.substr(eq + 1));
    spec = FailSpec{};

    const auto hash = rhs.rfind('#');
    if (hash != std::string::npos) {
        const auto parsed = str::parseU64(str::trim(rhs.substr(hash + 1)));
        if (!parsed) {
            if (error)
                *error = "bad max_hits in failpoint entry '" + entry + "'";
            return false;
        }
        spec.max_hits = *parsed;
        rhs = rhs.substr(0, hash);
    }
    const auto at = rhs.rfind('@');
    if (at != std::string::npos) {
        const auto parsed = str::parseDouble(str::trim(rhs.substr(at + 1)));
        // Written so that NaN, for which every comparison is false,
        // is refused too.
        if (!parsed || !(*parsed >= 0.0 && *parsed <= 1.0)) {
            if (error)
                *error = "bad probability in failpoint entry '" + entry + "'";
            return false;
        }
        spec.probability = *parsed;
        rhs = rhs.substr(0, at);
    }
    const auto colon = rhs.find(':');
    if (colon != std::string::npos) {
        const auto parsed = str::parseU64(str::trim(rhs.substr(colon + 1)));
        if (!parsed) {
            if (error)
                *error = "bad argument in failpoint entry '" + entry + "'";
            return false;
        }
        spec.arg = *parsed;
        rhs = rhs.substr(0, colon);
    }
    if (!parseAction(rhs, spec.action)) {
        if (error)
            *error = "unknown failpoint action '" + str::trim(rhs) + "'";
        return false;
    }
    return true;
}

/** Arm `site` with `spec` while holding the registry mutex. */
void
armLocked(Registry &r, const std::string &site, const FailSpec &spec)
{
    SiteState &state = r.sites[site];
    const bool was_armed = state.spec.action != Action::Off;
    const bool now_armed = spec.action != Action::Off;
    state.spec = spec;
    if (was_armed && !now_armed)
        detail::armed_sites.fetch_sub(1, std::memory_order_relaxed);
    else if (!was_armed && now_armed)
        detail::armed_sites.fetch_add(1, std::memory_order_relaxed);
}

/** Reads CACHEMIND_FAILPOINTS once at process start. */
struct EnvArm {
    EnvArm()
    {
        const char *spec = std::getenv("CACHEMIND_FAILPOINTS");
        if (spec != nullptr && *spec != '\0')
            armSpec(spec);
    }
};

const EnvArm g_env_arm{};

} // namespace

std::size_t
armedCount()
{
    return static_cast<std::size_t>(
        detail::armed_sites.load(std::memory_order_relaxed));
}

void
arm(const std::string &site, const FailSpec &spec)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    armLocked(r, site, spec);
}

bool
armSpec(const std::string &spec, std::string *error)
{
    const std::string trimmed = str::trim(spec);
    if (trimmed.empty() || str::toLower(trimmed) == "off") {
        disarmAll();
        return true;
    }
    Registry &r = registry();
    for (const std::string &entry : str::split(trimmed, ',', /*keep_empty=*/false)) {
        std::string site;
        FailSpec parsed;
        if (!parseEntry(str::trim(entry), site, parsed, error))
            return false;
        std::lock_guard<std::mutex> lock(r.mu);
        armLocked(r, site, parsed);
    }
    return true;
}

void
disarm(const std::string &site)
{
    arm(site, FailSpec{});
}

void
disarmAll()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto &[site, state] : r.sites) {
        if (state.spec.action != Action::Off) {
            state.spec = FailSpec{};
            detail::armed_sites.fetch_sub(1, std::memory_order_relaxed);
        }
    }
}

std::uint64_t
injectedTotal()
{
    return g_injected_total.load(std::memory_order_relaxed);
}

std::map<std::string, std::uint64_t>
injectedBySite()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::map<std::string, std::uint64_t> out;
    for (const auto &[site, state] : r.sites)
        if (state.fired > 0)
            out[site] = state.fired;
    return out;
}

namespace detail {

std::optional<Hit>
evaluateArmed(std::string_view site)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.sites.find(site);
    if (it == r.sites.end())
        return std::nullopt;
    const std::string &name = it->first;
    SiteState &state = it->second;
    const std::uint64_t hit_no = state.hits++;
    if (state.spec.action == Action::Off)
        return std::nullopt;
    if (state.spec.probability < 1.0 &&
        keyedUniform(hashCombine(fnv1a(name), hit_no)) >=
            state.spec.probability)
        return std::nullopt;
    Hit hit{state.spec.action, state.spec.arg};
    ++state.fired;
    g_injected_total.fetch_add(1, std::memory_order_relaxed);
    if (state.spec.max_hits != 0 && state.fired >= state.spec.max_hits)
        armLocked(r, name, FailSpec{});
    return hit;
}

void
sleepMs(std::uint64_t ms)
{
    if (ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

void
corruptBytes(std::string_view site, std::string &bytes,
             std::uint64_t flips)
{
    if (bytes.empty())
        return;
    // Truncation makes the damage unambiguous to length-prefixed
    // decoders; a lone bit flip could survive decoding as a plausible
    // (but wrong) payload.
    bytes.resize(bytes.size() / 2);
    if (bytes.empty())
        return;
    const std::uint64_t key =
        hashCombine(fnv1a(std::string(site)), bytes.size());
    for (std::uint64_t i = 0; i < flips; ++i) {
        const std::size_t pos =
            keyedPick(hashCombine(key, i), bytes.size());
        bytes[pos] = static_cast<char>(bytes[pos] ^ 0xA5);
    }
}

} // namespace detail

} // namespace cachemind::fail
