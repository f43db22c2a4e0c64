#include "server/session_cache.h"

#include <stdexcept>

#include "server/server_core.h" // completes Waiter for the shared_ptr deleter

namespace qkc {
namespace server {

namespace {

std::string
entryKey(const std::string& specString, std::uint64_t structure)
{
    return specString + "#" + std::to_string(structure);
}

} // namespace

SessionCache::SessionCache(std::size_t capacity) : capacity_(capacity)
{
    if (capacity_ == 0)
        throw std::invalid_argument("SessionCache: capacity must be >= 1");
}

std::shared_ptr<CacheEntry>
SessionCache::acquire(const std::string& specString, std::uint64_t structure,
                      bool& hit)
{
    const std::string key = entryKey(specString, structure);
    std::lock_guard<std::mutex> lock(mu_);

    auto it = index_.find(key);
    if (it != index_.end()) {
        hit = true;
        // Refresh recency: splice the node to the front of the LRU list.
        lru_.splice(lru_.begin(), lru_, it->second);
        it->second = lru_.begin();
        ++(*lru_.begin())->hits;
        return *lru_.begin();
    }

    hit = false;
    auto entry = std::make_shared<CacheEntry>();
    entry->specString = specString;
    entry->structure = structure;
    lru_.push_front(entry);
    index_[key] = lru_.begin();

    while (lru_.size() > capacity_) {
        // The evicted shared_ptr may still be held by an in-flight batch;
        // its session dies with the last reference, not here.
        const auto& victim = lru_.back();
        index_.erase(entryKey(victim->specString, victim->structure));
        lru_.pop_back();
        ++evictions_;
    }
    return entry;
}

void
SessionCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    evictions_ += lru_.size();
    index_.clear();
    lru_.clear();
}

std::size_t
SessionCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
}

std::size_t
SessionCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

} // namespace server
} // namespace qkc
