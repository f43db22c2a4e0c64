#ifndef QKC_SERVER_SESSION_CACHE_H
#define QKC_SERVER_SESSION_CACHE_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "vqa/simulator_api.h"

namespace qkc {
namespace server {

struct Waiter; // one queued request; defined in server_core.cc

/**
 * One cached (backend spec, circuit structure) pair: the open Session that
 * amortizes plan compilation across requests, plus the queue through which
 * concurrent same-structure requests coalesce into one runBatch. The entry
 * mutex guards the queue and the running flag; the session itself is only
 * ever touched by the one thread that holds `running` (the batch leader),
 * so session work happens outside the lock.
 */
struct CacheEntry {
    /// canonical backend spec, e.g. "statevector:threads=0,fuse=1"
    std::string specString;
    std::uint64_t structure = 0; ///< structureHash of the circuit

    std::mutex mu;
    std::condition_variable cv;
    bool running = false; ///< a leader is currently draining the queue
    std::vector<std::shared_ptr<Waiter>> queue;

    /**
     * Lazily opened on the first batch (under `running`, not the mutex —
     * plan compilation must not block arrivals). Never touched while
     * another thread holds `running`.
     */
    std::unique_ptr<Session> session;

    /** Requests served through this entry with a warm session. */
    std::size_t hits = 0;
};

/**
 * An LRU cache of open sessions keyed by (backend spec, structure hash).
 * structureHash collisions are harmless by construction: the entry's
 * session is rebound to every request's actual circuit before running, and
 * bind() transparently re-plans when the structure genuinely differs.
 *
 * Entries are handed out as shared_ptr, so an entry evicted while a batch
 * is mid-flight stays alive until its last user drops it — eviction never
 * tears state out from under a leader.
 */
class SessionCache {
  public:
    explicit SessionCache(std::size_t capacity);

    /**
     * Returns the entry for (spec, structure), creating it (and evicting
     * the least-recently-used entry past capacity) on a miss. `hit` reports
     * whether the entry already existed — the server's cache-hit metric.
     */
    std::shared_ptr<CacheEntry> acquire(const std::string& specString,
                                        std::uint64_t structure, bool& hit);

    /** Drops every entry (tests exercise the replay-after-eviction path). */
    void clear();

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    std::size_t evictions() const;

  private:
    const std::size_t capacity_;

    mutable std::mutex mu_;
    /** Most-recently-used at the front. */
    std::list<std::shared_ptr<CacheEntry>> lru_;
    std::unordered_map<std::string,
                       std::list<std::shared_ptr<CacheEntry>>::iterator>
        index_;
    std::size_t evictions_ = 0;
};

} // namespace server
} // namespace qkc

#endif // QKC_SERVER_SESSION_CACHE_H
