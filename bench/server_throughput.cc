/**
 * server_throughput — load-generate against the serving stack end to end.
 *
 * Spins up ServerCore + HttpServer in-process, then drives three phases
 * through real loopback HTTP:
 *
 *   cold  every request a distinct circuit structure: each one misses the
 *         session cache and pays plan compilation
 *   hot   every request the same structure with fresh parameters: the
 *         cached session serves a bind-refresh (the paper's compile-once/
 *         refresh-leaves story, measured at the protocol level)
 *   burst N client threads hammer one structure concurrently, so requests
 *         coalesce into batched runs
 *
 * Each phase prints a human row plus a JSON line: requests, wall seconds,
 * req/s, p50/p99 latency (ms), and afterwards the cache hit rate and mean
 * coalesce width read back from /v1/stats. The hot phase's p50 dropping
 * well under the cold phase's is the session cache paying off.
 *
 * Flags: --qubits=N (default 10), --depth=N (2), --requests=N (32),
 *        --threads=N (8, burst clients), --shots=N (256), --port=N (0).
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/json.h"
#include "util/cli.h"

using namespace qkc;

namespace {

/**
 * A hardware-efficient ansatz in QASM text: `depth` layers of per-qubit
 * rx/ry rotations and a CNOT chain. `structureTag` appends that many extra
 * `h q[0];` statements, giving each tag a distinct circuit structure (and
 * so a distinct session-cache entry); `angleSeed` varies only the rotation
 * angles, keeping the structure identical across requests.
 */
std::string
ansatzQasm(std::size_t qubits, std::size_t depth, std::size_t structureTag,
           std::uint64_t angleSeed)
{
    Rng rng(angleSeed + 1);
    std::string q = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
    q += "qreg q[" + std::to_string(qubits) + "];\n";
    for (std::size_t t = 0; t < structureTag; ++t)
        q += "h q[0];\n";
    for (std::size_t d = 0; d < depth; ++d) {
        for (std::size_t i = 0; i < qubits; ++i) {
            q += "rx(" + std::to_string(rng.uniform() * 3.14159) + ") q[" +
                 std::to_string(i) + "];\n";
            q += "ry(" + std::to_string(rng.uniform() * 3.14159) + ") q[" +
                 std::to_string(i) + "];\n";
        }
        for (std::size_t i = 0; i + 1 < qubits; ++i)
            q += "cx q[" + std::to_string(i) + "], q[" + std::to_string(i + 1) +
                 "];\n";
    }
    return q;
}

std::string
runBody(const std::string& qasm, std::size_t shots, std::uint64_t seed)
{
    server::Json doc = server::Json::object();
    doc.set("backend", "sv");
    doc.set("qasm", qasm);
    doc.set("task", "sample");
    doc.set("shots", server::Json(static_cast<std::uint64_t>(shots)));
    doc.set("seed", server::Json(seed));
    return doc.dump();
}

struct PhaseStats {
    std::size_t requests = 0;
    double wallSeconds = 0.0;
    std::vector<double> latencies; ///< seconds, unsorted

    double reqPerSec() const
    {
        return wallSeconds > 0.0 ? static_cast<double>(requests) / wallSeconds
                                 : 0.0;
    }
    double percentileMs(double p) const
    {
        if (latencies.empty())
            return 0.0;
        std::vector<double> sorted = latencies;
        std::sort(sorted.begin(), sorted.end());
        const auto idx = static_cast<std::size_t>(
            p * static_cast<double>(sorted.size() - 1));
        return sorted[idx] * 1e3;
    }
};

void
report(const char* phase, const PhaseStats& s)
{
    std::printf("%-6s %6zu req  %8.3f s  %9.1f req/s  p50 %8.3f ms  "
                "p99 %8.3f ms\n",
                phase, s.requests, s.wallSeconds, s.reqPerSec(),
                s.percentileMs(0.50), s.percentileMs(0.99));
    bench::JsonRow("server_throughput")
        .field("phase", phase)
        .field("requests", s.requests)
        .field("wall_s", s.wallSeconds)
        .field("req_per_s", s.reqPerSec())
        .field("p50_ms", s.percentileMs(0.50))
        .field("p99_ms", s.percentileMs(0.99));
}

} // namespace

int
driverMain(int argc, char** argv)
{
    Cli cli(argc, argv);
    const auto qubits = static_cast<std::size_t>(cli.getInt("qubits", 10));
    const auto depth = static_cast<std::size_t>(cli.getInt("depth", 2));
    const auto requests = static_cast<std::size_t>(cli.getInt("requests", 32));
    const auto threads = static_cast<std::size_t>(cli.getInt("threads", 8));
    const auto shots = static_cast<std::size_t>(cli.getInt("shots", 256));

    server::ServerConfig config;
    config.cacheCapacity = requests + 1; // cold phase must not evict itself
    server::ServerCore core(config);
    server::HttpServer http(core,
                            static_cast<std::uint16_t>(cli.getInt("port", 0)));
    const std::uint16_t port = http.port();

    bench::printHeader(
        "server throughput (sv, " + std::to_string(qubits) + " qubits, depth " +
            std::to_string(depth) + ", " + std::to_string(shots) + " shots)",
        "phase   requests      wall       req/s        p50          p99");

    // -- cold: every request a fresh structure ------------------------------
    PhaseStats cold;
    cold.requests = requests;
    {
        const obs::TimedSpan phase("bench.cold");
        for (std::size_t i = 0; i < requests; ++i) {
            const std::string body =
                runBody(ansatzQasm(qubits, depth, i + 1, 7), shots, i);
            const obs::TimedSpan request("bench.request");
            const server::HttpReply reply =
                server::httpPost("127.0.0.1", port, "/v1/run", body);
            cold.latencies.push_back(request.seconds());
            if (reply.status != 200) {
                std::fprintf(stderr, "cold request failed: %s\n",
                             reply.body.c_str());
                return 1;
            }
        }
        cold.wallSeconds = phase.seconds();
    }
    report("cold", cold);

    // -- hot: one structure, fresh parameters every request -----------------
    PhaseStats hot;
    hot.requests = requests;
    {
        const obs::TimedSpan phase("bench.hot");
        for (std::size_t i = 0; i < requests; ++i) {
            const std::string body = runBody(
                ansatzQasm(qubits, depth, 0, 1000 + i), shots, 1000 + i);
            const obs::TimedSpan request("bench.request");
            const server::HttpReply reply =
                server::httpPost("127.0.0.1", port, "/v1/run", body);
            hot.latencies.push_back(request.seconds());
            if (reply.status != 200) {
                std::fprintf(stderr, "hot request failed: %s\n",
                             reply.body.c_str());
                return 1;
            }
        }
        hot.wallSeconds = phase.seconds();
    }
    report("hot", hot);

    // -- burst: concurrent clients on one structure -> coalescing -----------
    PhaseStats burst;
    burst.requests = threads * requests;
    {
        std::vector<std::vector<double>> lanes(threads);
        std::vector<std::thread> clients;
        const obs::TimedSpan phase("bench.burst");
        for (std::size_t t = 0; t < threads; ++t) {
            clients.emplace_back([&, t] {
                for (std::size_t i = 0; i < requests; ++i) {
                    const std::string body =
                        runBody(ansatzQasm(qubits, depth, 0, 5000 + i), shots,
                                t * 100000 + i);
                    const obs::TimedSpan request("bench.request");
                    server::httpPost("127.0.0.1", port, "/v1/run", body);
                    lanes[t].push_back(request.seconds());
                }
            });
        }
        for (std::thread& c : clients)
            c.join();
        burst.wallSeconds = phase.seconds();
        for (const auto& lane : lanes)
            burst.latencies.insert(burst.latencies.end(), lane.begin(),
                                   lane.end());
    }
    report("burst", burst);

    // -- cache/coalescing effectiveness, from the server's own stats --------
    const server::HttpReply stats =
        server::httpGet("127.0.0.1", port, "/v1/stats");
    const server::Json doc = server::parseJson(stats.body);
    const server::Json* metrics = doc.find("metrics");
    double hitRate = 0.0;
    double meanWidth = 0.0;
    if (metrics && metrics->isObject()) {
        double hits = 0.0;
        double misses = 0.0;
        if (const server::Json* h = metrics->find("server.cache.hit"))
            hits = h->asDouble();
        if (const server::Json* m = metrics->find("server.cache.miss"))
            misses = m->asDouble();
        if (hits + misses > 0.0)
            hitRate = hits / (hits + misses);
        if (const server::Json* w = metrics->find("server.coalesce.width"))
            if (const server::Json* mean = w->find("mean"))
                meanWidth = mean->asDouble();
    }
    std::printf("cache hit rate %.3f   mean coalesce width %.2f   "
                "hot/cold p50 speedup %.2fx\n",
                hitRate, meanWidth,
                hot.percentileMs(0.5) > 0.0
                    ? cold.percentileMs(0.5) / hot.percentileMs(0.5)
                    : 0.0);
    bench::JsonRow("server_throughput")
        .field("phase", "summary")
        .field("cache_hit_rate", hitRate)
        .field("mean_coalesce_width", meanWidth)
        .field("cold_p50_ms", cold.percentileMs(0.5))
        .field("hot_p50_ms", hot.percentileMs(0.5));

    http.stop();
    return 0;
}

int
main(int argc, char** argv)
{
    return bench::runDriver(argc, argv, driverMain);
}
