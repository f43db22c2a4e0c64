/**
 * qkc_serverd — serve simulation requests over HTTP.
 *
 * Clients POST JSON to /v1/run: a QASM circuit, a backend spec, a task
 * (sample | expectation | amplitudes | probabilities) and optionally a seed
 * and parameter bindings. The daemon caches open sessions per (backend
 * spec, circuit structure) in an LRU, coalesces concurrent same-structure
 * requests into single batched runs, and refuses infeasible work at the
 * front door (422) instead of dying on it. Per-request seeds make every
 * payload bit-identical whether it ran solo, coalesced, or was replayed
 * after an eviction.
 *
 * Endpoints:
 *   POST /v1/run       run one request (see README "Serving" for the schema)
 *   GET  /v1/backends  the registry: names, aliases, option keys
 *   GET  /v1/stats     cache/queue/coalescing metrics (server.* namespace)
 *   GET  /v1/healthz   liveness + drain state
 *   POST /v1/shutdown  begin graceful drain, then exit
 *
 * Flags:
 *   --port=N       listen port (default 7411; 0 picks an ephemeral port)
 *   --cache=N      session-cache capacity (default 8)
 *   --coalesce=N   max requests merged into one batch (default 16)
 *   --inflight=N   max queued+running requests before 429 (default 64)
 *   --memory-gb=N  dense-state admission budget (default 4)
 *
 * A bad flag value (a negative count, a zero --cache or --coalesce, a port
 * past 65535) or a port that cannot be bound prints `qkc_serverd: <reason>`
 * on stderr and exits with status 2.
 *
 * SIGINT/SIGTERM also trigger the graceful drain: in-flight work finishes,
 * new work gets 503, and the process exits once the queue is empty.
 */
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "server/http_server.h"
#include "util/cli.h"

namespace {

volatile std::sig_atomic_t gSignaled = 0;

void
onSignal(int)
{
    gSignaled = 1;
}

/** The integer flag `name`, refused unless it lies in [lo, hi]. */
std::int64_t
boundedFlag(const qkc::Cli& cli, const char* name, std::int64_t dflt,
            std::int64_t lo,
            std::int64_t hi = std::numeric_limits<std::int64_t>::max())
{
    const std::int64_t v = cli.getInt(name, dflt);
    if (v < lo || v > hi) {
        std::string want = ">= " + std::to_string(lo);
        if (hi != std::numeric_limits<std::int64_t>::max())
            want = "in [" + std::to_string(lo) + ", " + std::to_string(hi) +
                   "]";
        throw std::invalid_argument("--" + std::string(name) + "=" +
                                    std::to_string(v) + ": must be " + want);
    }
    return v;
}

} // namespace

int
main(int argc, char** argv)
try {
    using namespace qkc;
    Cli cli(argc, argv);

    server::ServerConfig config;
    config.cacheCapacity =
        static_cast<std::size_t>(boundedFlag(cli, "cache", 8, 1));
    config.maxCoalesce =
        static_cast<std::size_t>(boundedFlag(cli, "coalesce", 16, 1));
    config.maxInflight =
        static_cast<std::size_t>(boundedFlag(cli, "inflight", 64, 0));
    // Capped so the byte count cannot wrap.
    config.admission.stateMemoryBytes =
        static_cast<std::uint64_t>(
            boundedFlag(cli, "memory-gb", 4, 0, std::int64_t{1} << 33))
        << 30;
    const auto port =
        static_cast<std::uint16_t>(boundedFlag(cli, "port", 7411, 0, 65535));

    server::ServerCore core(config);
    server::HttpServer http(core, port);

    // The port line is the startup contract: scripts wait for it, then
    // parse the port out of it (essential with --port=0).
    std::printf("qkc_serverd listening on 127.0.0.1:%u\n", http.port());
    std::fflush(stdout);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // Drain protocol: a signal or POST /v1/shutdown flips the core into
    // draining (new /v1/run -> 503); we exit once in-flight work is done.
    while (!(core.draining() && core.inflight() == 0)) {
        if (gSignaled)
            core.beginDrain();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    http.stop();
    std::printf("qkc_serverd drained, exiting\n");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "qkc_serverd: %s\n", e.what());
    return 2;
}
