#ifndef QKC_SERVER_HTTP_SERVER_H
#define QKC_SERVER_HTTP_SERVER_H

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <thread>

#include "server/server_core.h"

namespace qkc {
namespace server {

/**
 * A minimal HTTP/1.1 front-end for ServerCore: thread-per-connection with
 * keep-alive, Content-Length bodies only (no chunked encoding, no TLS —
 * the daemon binds loopback by default and anything fancier belongs in a
 * reverse proxy). All request semantics live in ServerCore; this layer only
 * parses the request line, headers and body, and writes the response back.
 *
 * A connection thread marks itself done when its connection closes; the
 * accept loop joins and drops done threads before starting a new one, so a
 * long-lived daemon holds one thread per *open* connection, not one per
 * connection ever accepted.
 *
 * Connection threads poll a stop flag between reads (SO_RCVTIMEO), so
 * stop() returns once every handler that was mid-request has finished —
 * the transport half of graceful shutdown. The core's drain flag is the
 * other half: the daemon calls core.beginDrain(), waits for inflight() to
 * reach zero, then stops the transport.
 */
class HttpServer {
  public:
    /** Caps applied before a request reaches the core. */
    static constexpr std::size_t kMaxHeaderBytes = 64u << 10;
    static constexpr std::size_t kMaxBodyBytes = 16u << 20;

    /**
     * Binds 127.0.0.1:`port` and starts accepting (`port` 0 picks an
     * ephemeral port; read the real one back from port()). Throws
     * std::runtime_error when the socket cannot be bound.
     */
    HttpServer(ServerCore& core, std::uint16_t port);
    ~HttpServer();

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /** The bound port (resolves an ephemeral bind). */
    std::uint16_t port() const { return port_; }

    /** True until stop() — the daemon's run loop condition. */
    bool running() const { return !stopping_.load(); }

    /** Connection threads not yet reaped: open connections plus any that
     *  finished since the last accept. */
    std::size_t workerCount() const;

    /**
     * Stops accepting, wakes idle connection threads, and joins every
     * connection thread — in-flight request handlers run to completion.
     * Idempotent.
     */
    void stop();

  private:
    struct Worker {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void serveConnection(int fd);

    ServerCore& core_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;

    mutable std::mutex mu_; ///< guards workers_
    std::list<Worker> workers_; ///< a list: each thread flags its own entry
};

} // namespace server
} // namespace qkc

#endif // QKC_SERVER_HTTP_SERVER_H
