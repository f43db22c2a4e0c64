#ifndef QKC_SERVER_SERVER_CORE_H
#define QKC_SERVER_SERVER_CORE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "circuit/qasm.h"
#include "server/admission.h"
#include "server/json.h"
#include "server/session_cache.h"
#include "vqa/simulator_api.h"

namespace qkc {
namespace server {

/**
 * One /v1/run request queued on a cache entry. The batch leader that dequeues
 * it flattens its bindings (with their caller-derived seeds) into one
 * runBatch call; because runBatch takes explicit per-binding seeds, the
 * payload this waiter receives is bit-identical whether it ran alone or
 * coalesced with strangers. All fields past `enqueuedNanos` are written by
 * the leader and read by the waiter, synchronized by the entry mutex + cv.
 */
struct Waiter {
    std::vector<ParamBinding> bindings;  ///< this request's parameter bindings
    std::vector<std::uint64_t> seeds;    ///< one seed per binding (seed + i)
    Task task;
    std::string taskSig;        ///< canonical task text; equal sigs coalesce
    std::uint64_t enqueuedNanos = 0;

    std::vector<Result> results;
    bool done = false;
    std::exception_ptr error;
    std::uint64_t waitNanos = 0; ///< enqueue -> service start
    std::size_t batchWidth = 0;  ///< requests coalesced into the serving batch
};

/** Everything the daemon can configure about request handling. */
struct ServerConfig {
    std::size_t cacheCapacity = 8; ///< live sessions (spec x structure pairs)
    std::size_t maxCoalesce = 16;  ///< requests merged into one batch, max
    /**
     * Queued-plus-running /v1/run requests the server accepts before
     * answering 429. Zero rejects every run request — the switch the
     * admission tests flip to exercise the overload path deterministically.
     */
    std::size_t maxInflight = 64;
    AdmissionLimits admission{};
    QasmLimits qasm{};
    JsonLimits json{};
};

/**
 * The backend registry as {"backends": [{name, aliases, options, summary,
 * tasks, batch}, ...]}: the /v1/backends body and the CLI's
 * --list-backends --json output. Rendered from backendRegistry(), the
 * table parseBackendSpec validates against, so neither can drift from
 * what is accepted.
 */
Json backendRegistryJson();

/** One HTTP exchange's outcome, transport-agnostic. */
struct HttpResult {
    int status = 200;
    std::string body; ///< always a JSON document
};

/**
 * The transport-independent request handler: JSON bodies in, JSON bodies
 * out, every socket concern left to HttpServer. Thread-safe — the HTTP
 * layer calls handle() from one thread per connection, and the session
 * cache's per-entry leader protocol is what serializes simulator work.
 *
 * Status mapping: 400 malformed request (JSON, QASM, task or spec), 404/405
 * routing, 422 admission rejection (structurally valid but infeasible), 429
 * over the in-flight bound, 503 draining. Every error body carries
 * {"error": {"code", "message"[, "field"]}}.
 */
class ServerCore {
  public:
    explicit ServerCore(ServerConfig config = {});

    ServerCore(const ServerCore&) = delete;
    ServerCore& operator=(const ServerCore&) = delete;

    /** Routes one request. Never throws; failures become error bodies. */
    HttpResult handle(const std::string& method, const std::string& path,
                      const std::string& body);

    /**
     * Stops admitting /v1/run work (503 from now on) while requests already
     * in flight run to completion; read inflight() == 0 for "drained".
     */
    void beginDrain() { draining_.store(true); }
    bool draining() const { return draining_.load(); }

    /** /v1/run requests currently queued or running. */
    std::size_t inflight() const { return inflight_.load(); }

    const ServerConfig& config() const { return config_; }
    SessionCache& cache() { return cache_; }

  private:
    HttpResult runRequest(const std::string& body);
    HttpResult backendsResponse() const;
    HttpResult statsResponse() const;
    HttpResult healthzResponse() const;

    /**
     * The coalescing rendezvous: enqueue `w` on `entry`; become the batch
     * leader if none is running (draining groups of same-task waiters into
     * single runBatch calls until the queue is empty), otherwise wait for a
     * leader to complete `w`.
     */
    void execute(CacheEntry& entry, const std::shared_ptr<Waiter>& w);

    ServerConfig config_;
    SessionCache cache_;
    std::atomic<bool> draining_{false};
    std::atomic<std::size_t> inflight_{0};
};

} // namespace server
} // namespace qkc

#endif // QKC_SERVER_SERVER_CORE_H
