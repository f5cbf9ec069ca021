#include "retrieval/secondary_tier.hh"

#include <utility>

#include "base/failpoint.hh"
#include "retrieval/bundle_codec.hh"

namespace cachemind::retrieval {

SecondaryTier::SecondaryTier(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes)
{
}

BundlePtr
SecondaryTier::lookup(const std::string &key)
{
    std::string encoded;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            ++misses_;
            return nullptr;
        }
        // Exclusive tier: extract the entry; the caller re-promotes
        // the decoded bundle into the tier above.
        encoded = std::move(it->second.encoded);
        bytes_ -= chargeOf(key, encoded);
        order_.erase(it->second.order_it);
        map_.erase(it);
        ++hits_;
    }
    // Decode outside the lock — it walks the whole payload.
    fail::maybeCorrupt("cache.secondary.decode", encoded);
    std::optional<ContextBundle> bundle = decodeBundle(encoded);
    if (!bundle) {
        // Self-produced bytes should never be corrupt; degrade to a
        // miss (recompute) rather than surface a broken bundle. The
        // entry was already extracted above, so the corrupt bytes are
        // gone and the recomputed bundle re-enters cleanly.
        std::lock_guard<std::mutex> lock(mu_);
        --hits_;
        ++misses_;
        ++decode_failures_;
        return nullptr;
    }
    return std::make_shared<const ContextBundle>(*std::move(bundle));
}

std::vector<Displaced>
SecondaryTier::insert(const std::string &key, BundlePtr value)
{
    std::vector<Displaced> out;
    if (!value) {
        out.push_back(Displaced{key, nullptr});
        return out;
    }
    // Encode outside the lock; only bookkeeping is serialized.
    std::string encoded = encodeBundle(*value);
    const std::size_t charge = chargeOf(key, encoded);
    const std::size_t decoded_size = approxBundleBytes(*value);

    std::lock_guard<std::mutex> lock(mu_);
    if (map_.count(key) != 0)
        return out; // first copy wins (equal keys, equal bytes)
    if (charge > capacity_bytes_) {
        ++rejected_;
        out.push_back(Displaced{key, std::move(value)});
        return out;
    }
    while (bytes_ + charge > capacity_bytes_) {
        const std::string &victim = order_.front();
        auto it = map_.find(victim);
        bytes_ -= chargeOf(victim, it->second.encoded);
        ++evictions_;
        // The encoded form was the only copy: gone for good.
        out.push_back(Displaced{victim, nullptr});
        map_.erase(it);
        order_.pop_front();
    }
    order_.push_back(key);
    auto it = order_.end();
    --it;
    map_.emplace(key, Entry{std::move(encoded), it});
    bytes_ += charge;
    ++insertions_;
    encoded_bytes_total_ += charge;
    decoded_bytes_total_ += decoded_size;
    return out;
}

std::size_t
SecondaryTier::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

std::size_t
SecondaryTier::bytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

TierStats
SecondaryTier::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    TierStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.insertions = insertions_;
    s.evictions = evictions_;
    s.rejected = rejected_;
    s.decode_failures = decode_failures_;
    s.entries = map_.size();
    s.bytes = bytes_;
    s.capacity_bytes = capacity_bytes_;
    s.encoded_bytes_total = encoded_bytes_total_;
    s.decoded_bytes_total = decoded_bytes_total_;
    return s;
}

} // namespace cachemind::retrieval
