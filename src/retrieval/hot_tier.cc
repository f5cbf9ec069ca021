#include "retrieval/hot_tier.hh"

#include <utility>

namespace cachemind::retrieval {

HotTier::HotTier(std::size_t capacity) : capacity_(capacity) {}

BundlePtr
HotTier::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++misses_;
        return nullptr;
    }
    order_.splice(order_.begin(), order_, it->second.order_it);
    ++hits_;
    return it->second.value;
}

std::vector<Displaced>
HotTier::insert(const std::string &key, BundlePtr value)
{
    std::vector<Displaced> out;
    if (capacity_ == 0) {
        out.push_back(Displaced{key, std::move(value)});
        return out;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.count(key) != 0)
        return out; // first copy wins (equal keys, equal bytes)
    // Evict before admitting, so the budget is never exceeded.
    while (map_.size() >= capacity_) {
        auto victim = map_.find(order_.back());
        out.push_back(Displaced{std::move(order_.back()),
                                std::move(victim->second.value)});
        map_.erase(victim);
        order_.pop_back();
        ++evictions_;
    }
    order_.push_front(key);
    map_.emplace(key, Entry{std::move(value), order_.begin()});
    ++insertions_;
    return out;
}

std::size_t
HotTier::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

TierStats
HotTier::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    TierStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.insertions = insertions_;
    s.evictions = evictions_;
    s.entries = map_.size();
    s.capacity = capacity_;
    return s;
}

} // namespace cachemind::retrieval
