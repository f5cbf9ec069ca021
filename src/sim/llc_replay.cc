#include "sim/llc_replay.hh"

#include <unordered_map>

#include "base/logging.hh"
#include "policy/basic_policies.hh"

namespace cachemind::sim {

std::vector<LlcAccess>
captureLlcStream(const trace::Trace &t, const HierarchyConfig &cfg)
{
    std::vector<LlcAccess> stream;
    stream.reserve(t.size() / 3);
    Hierarchy hier(cfg, std::make_unique<policy::LruPolicy>());
    const std::uint64_t line_bytes = cfg.llc.line_bytes;
    hier.setLlcObserver([&stream, line_bytes](std::uint64_t pc,
                                              std::uint64_t address,
                                              trace::AccessType type) {
        stream.push_back(
            LlcAccess{pc, address, address / line_bytes, type});
    });
    for (const auto &r : t)
        hier.access(r.pc, r.address, r.type);
    return stream;
}

std::vector<LlcAccess>
captureLlcStream(const trace::Trace &t)
{
    return captureLlcStream(t, defaultHierarchyConfig());
}

namespace {

/** Fenwick tree over stream positions (for stack distances). */
class Fenwick
{
  public:
    explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}

    void
    add(std::size_t i, int delta)
    {
        for (++i; i < tree_.size(); i += i & (~i + 1))
            tree_[i] += delta;
    }

    /** Sum of [0, i]. */
    int
    prefix(std::size_t i) const
    {
        int s = 0;
        for (++i; i > 0; i -= i & (~i + 1))
            s += tree_[i];
        return s;
    }

    /** Sum of (a, b) exclusive on both ends. */
    int
    between(std::size_t a, std::size_t b) const
    {
        if (b <= a + 1)
            return 0;
        return prefix(b - 1) - prefix(a);
    }

  private:
    std::vector<int> tree_;
};

} // namespace

OracleInfo
computeOracle(const std::vector<LlcAccess> &stream)
{
    const std::size_t n = stream.size();
    OracleInfo o;
    o.next_use.assign(n, policy::kNoNextUse);
    o.prev_use.assign(n, kNoPrevUse);
    o.stack_distance.assign(n, kNoPrevUse);

    // Backward pass: next use per position.
    {
        std::unordered_map<std::uint64_t, std::uint64_t> seen;
        seen.reserve(n / 4);
        for (std::size_t i = n; i-- > 0;) {
            const auto it = seen.find(stream[i].line);
            if (it != seen.end())
                o.next_use[i] = it->second;
            seen[stream[i].line] = i;
        }
    }

    // Forward pass: previous use + LRU stack distance via Fenwick.
    {
        std::unordered_map<std::uint64_t, std::uint64_t> last;
        last.reserve(n / 4);
        Fenwick marks(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto it = last.find(stream[i].line);
            if (it != last.end()) {
                o.prev_use[i] = it->second;
                o.stack_distance[i] = static_cast<std::uint64_t>(
                    marks.between(it->second, i));
                marks.add(it->second, -1);
            }
            marks.add(i, +1);
            last[stream[i].line] = i;
        }
    }
    return o;
}

const char *
missTypeName(MissType t)
{
    switch (t) {
      case MissType::None: return "None";
      case MissType::Compulsory: return "Compulsory";
      case MissType::Capacity: return "Capacity";
      case MissType::Conflict: return "Conflict";
    }
    return "?";
}

LlcReplayer::LlcReplayer(CacheConfig cfg,
                         std::unique_ptr<policy::ReplacementPolicy> pol)
    : cache_(std::make_unique<Cache>(std::move(cfg), std::move(pol)))
{
}

CacheStats
LlcReplayer::replay(const std::vector<LlcAccess> &stream,
                    const OracleInfo *oracle, const EventCallback &cb,
                    std::uint32_t snapshot_every)
{
    CM_ASSERT(snapshot_every >= 1, "snapshot_every must be >= 1");
    const std::uint64_t total_lines =
        static_cast<std::uint64_t>(cache_->config().sets) *
        cache_->config().ways;

    for (std::size_t i = 0; i < stream.size(); ++i) {
        const LlcAccess &a = stream[i];
        policy::AccessInfo info;
        info.pc = a.pc;
        info.address = a.address;
        info.line = a.line;
        info.access_index = i;
        info.type = a.type;
        if (oracle)
            info.next_use = oracle->next_use[i];

        ReplayEvent ev;
        const bool want_event = static_cast<bool>(cb);
        const std::uint32_t set = cache_->setOf(a.line);
        if (want_event && i % snapshot_every == 0) {
            for (const auto &l : cache_->linesOf(set)) {
                if (l.valid)
                    ev.snapshot.push_back(SnapshotEntry{
                        l.last_pc, l.line, l.last_access_index});
            }
            ev.scores = cache_->setScores(set);
        }

        // Victim forward-reuse info must be captured before access()
        // overwrites the way; the cache reports it in the result.
        const CacheAccessResult res = cache_->access(info);

        if (!want_event)
            continue;

        ev.index = i;
        ev.pc = a.pc;
        ev.address = a.address;
        ev.line = a.line;
        ev.set = res.set;
        ev.hit = res.hit;
        ev.bypassed = res.bypassed;
        if (oracle) {
            ev.recency = oracle->prev_use[i] == kNoPrevUse
                             ? kNoPrevUse
                             : i - oracle->prev_use[i];
            ev.reuse_distance =
                oracle->next_use[i] == policy::kNoNextUse
                    ? policy::kNoNextUse
                    : oracle->next_use[i] - i;
        }
        if (!res.hit) {
            if (!oracle || oracle->prev_use[i] == kNoPrevUse) {
                ev.miss_type = MissType::Compulsory;
            } else if (oracle->stack_distance[i] >= total_lines) {
                ev.miss_type = MissType::Capacity;
            } else {
                ev.miss_type = MissType::Conflict;
            }
        }
        if (res.evicted) {
            ev.has_victim = true;
            ev.evicted_line = res.evicted_line;
            ev.evicted_pc = res.evicted_pc;
            ev.evicted_last_index = res.evicted_last_index;
            if (oracle) {
                // The victim's next use after its last touch is the
                // next use after now (hits refresh last touch).
                const std::uint64_t vlast = res.evicted_last_index;
                const std::uint64_t vnext = oracle->next_use[vlast];
                if (vnext != policy::kNoNextUse && vnext > i)
                    ev.evicted_reuse_distance = vnext - i;
                const bool evicted_finite =
                    ev.evicted_reuse_distance != policy::kNoNextUse;
                const bool inserted_finite =
                    ev.reuse_distance != policy::kNoNextUse;
                ev.wrong_eviction =
                    evicted_finite &&
                    (!inserted_finite ||
                     ev.evicted_reuse_distance < ev.reuse_distance);
            }
        }
        cb(ev);
    }
    return cache_->stats();
}

policy::ParrotModel
ParrotModelBuilder::train(const std::vector<LlcAccess> &stream,
                          const OracleInfo &oracle)
{
    policy::ParrotTrainer trainer;
    for (std::size_t i = 0; i < stream.size(); ++i)
        trainer.observe(stream[i].pc, i, oracle.next_use[i]);
    return trainer.finish();
}

} // namespace cachemind::sim
