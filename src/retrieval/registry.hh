/**
 * @file
 * String-keyed factory registry for retrievers.
 *
 * Retrievers self-register from their own translation units (see the
 * registrar blocks at the bottom of sieve.cc, ranger.cc and
 * llamaindex.cc), so the engine core constructs components by name
 * and never changes when a new retriever is added. Downstream users
 * plug in custom retrievers the same way: register a factory under a
 * fresh name and pass that name to CacheMind::Builder.
 *
 * Factories receive a db::ShardSet — the read-only shard view — not a
 * whole database reference, so a retriever can be scoped to any shard
 * subset (one workload, one policy family) as easily as to the full
 * store. A `const TraceDatabase &` still converts implicitly.
 */

#ifndef CACHEMIND_RETRIEVAL_REGISTRY_HH
#define CACHEMIND_RETRIEVAL_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "db/shard.hh"
#include "retrieval/context.hh"

namespace cachemind::retrieval {

/**
 * Scenario knobs forwarded from EngineOptions to a retriever factory
 * as string key/value pairs: each factory consumes the keys it knows
 * (e.g. Sieve's "evidence_window", Ranger's "fidelity") and ignores
 * the rest, so the registry never names concrete retriever types.
 * Every consumed knob must also appear in the constructed retriever's
 * cacheFingerprint() — tuned retrievers must never alias each other's
 * cached bundles.
 */
struct RetrieverOptions
{
    std::map<std::string, std::string> params;

    bool has(const std::string &key) const;
    std::string get(const std::string &key,
                    const std::string &dflt) const;
    std::size_t getSize(const std::string &key, std::size_t dflt) const;
    double getDouble(const std::string &key, double dflt) const;
    bool getBool(const std::string &key, bool dflt) const;
};

/**
 * Thrown by a retriever factory when a knob is out of range. The
 * engine turns it into an `invalid-options` EngineError carrying the
 * message, which names the knob.
 */
struct InvalidRetrieverOptions : std::invalid_argument
{
    using std::invalid_argument::invalid_argument;
};

/** Process-wide name -> retriever-factory table. */
class RetrieverRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<Retriever>(
        const db::ShardSet &, const RetrieverOptions &)>;
    /** Options-unaware factory (custom retrievers with no knobs). */
    using SimpleFactory =
        std::function<std::unique_ptr<Retriever>(const db::ShardSet &)>;

    /** The singleton registry. */
    static RetrieverRegistry &instance();

    /**
     * Register a factory under a (case-insensitive) name. Returns
     * false and leaves the registry unchanged when the name is
     * already taken.
     */
    bool add(const std::string &name, Factory factory);
    bool add(const std::string &name, SimpleFactory factory);

    /** True when a factory is registered under the name. */
    bool has(const std::string &name) const;

    /**
     * Construct the named retriever over a shard view; nullptr when
     * the name is unknown.
     */
    std::unique_ptr<Retriever> create(const std::string &name,
                                      const db::ShardSet &shards) const;
    std::unique_ptr<Retriever>
    create(const std::string &name, const db::ShardSet &shards,
           const RetrieverOptions &options) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    RetrieverRegistry() = default;

    mutable std::mutex mu_;
    std::map<std::string, Factory> factories_;
};

/**
 * Static-initialisation helper: a namespace-scope registrar in a
 * component's translation unit registers it before main() runs.
 */
class RetrieverRegistrar
{
  public:
    RetrieverRegistrar(const std::string &name,
                       RetrieverRegistry::Factory factory);
    RetrieverRegistrar(const std::string &name,
                       RetrieverRegistry::SimpleFactory factory);
};

} // namespace cachemind::retrieval

#endif // CACHEMIND_RETRIEVAL_REGISTRY_HH
