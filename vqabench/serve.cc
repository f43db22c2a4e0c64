/**
 * serve_mix: an in-process qkc_serverd (ServerCore + HttpServer on an
 * ephemeral loopback port) driven by four closed-loop clients, each on its
 * own keep-alive connection. Requests carry a 12-qubit hardware-efficient
 * ansatz for sv. Most are hot — the one shared structure with fresh angles,
 * so the session cache hits, the plan is rebound and concurrent requests
 * coalesce — and a seeded tenth are cold: one of more structures than the
 * cache holds, so they parse, plan and evict. Sample and expectation tasks
 * are mixed.
 *
 * In trace mode every fourth request is traced and is mirrored by a call to
 * ServerCore::handle on a second, socket-free core (the `layers` root), and
 * probed with direct calls into the QASM parser, the exec planner and the
 * JSON codec.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.h"
#include "circuit/qasm.h"
#include "exec/execution_plan.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/json.h"
#include "server/server_core.h"

namespace vqabench {

using namespace qkc;
using server::Json;

namespace {

constexpr std::size_t kQubits = 12;
constexpr std::size_t kDepth = 2;
constexpr std::size_t kClients = 4;
// The traffic mix is chosen, not measured: no recorded request trace exists
// for qkc_serverd. The server keeps its default configuration, whose session
// cache (8 entries) is smaller than the number of cold structures, so cold
// requests evict. A tenth of the requests are cold: hot requests stay the
// bulk, as they are in a variational loop, while every run still sees
// hundreds of cold ones. Three in ten requests are expectation tasks:
// sample tasks, which carry the shot-count and replay checks, stay the bulk,
// while thousands of expectation tasks still run in every run.
constexpr std::size_t kColdStructures = 24;
constexpr double kColdFraction = 0.1;
constexpr double kExpectationFraction = 0.3;
constexpr std::size_t kShots = 256;
constexpr std::size_t kTraceEvery = 4;

/** A blocking HTTP/1.1 keep-alive connection to 127.0.0.1:port. */
class Connection {
  public:
    explicit Connection(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
            ::close(fd_);
            throw std::runtime_error("connect() failed");
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /** POSTs `body` to `path`; throws on a transport failure. */
    server::HttpReply post(const std::string& path, const std::string& body)
    {
        const std::string req = "POST " + path +
                                " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                "Content-Type: application/json\r\n"
                                "Content-Length: " +
                                std::to_string(body.size()) + "\r\n\r\n" + body;
        for (std::size_t sent = 0; sent < req.size();) {
            const ssize_t n = ::send(fd_, req.data() + sent, req.size() - sent,
                                     MSG_NOSIGNAL);
            if (n <= 0)
                throw std::runtime_error("send() failed");
            sent += static_cast<std::size_t>(n);
        }
        std::size_t headerEnd;
        while ((headerEnd = buf_.find("\r\n\r\n")) == std::string::npos)
            fill();
        const std::string head = buf_.substr(0, headerEnd);
        server::HttpReply reply;
        const auto sp = head.find(' ');
        reply.status = sp == std::string::npos ? 0 : std::atoi(head.c_str() + sp + 1);
        std::size_t length = 0;
        std::string lower = head;
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        const auto cl = lower.find("content-length:");
        if (cl != std::string::npos)
            length = std::strtoull(head.c_str() + cl + 15, nullptr, 10);
        while (buf_.size() < headerEnd + 4 + length)
            fill();
        reply.body = buf_.substr(headerEnd + 4, length);
        buf_.erase(0, headerEnd + 4 + length);
        return reply;
    }

  private:
    void fill()
    {
        char chunk[16384];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n <= 0)
            throw std::runtime_error("connection closed mid-response");
        buf_.append(chunk, static_cast<std::size_t>(n));
    }

    int fd_ = -1;
    std::string buf_;
};

/**
 * A hardware-efficient ansatz: per layer rx/ry on every qubit and a CNOT
 * chain. Cold structure `tag` (1..63) prefixes one H per set bit of the tag,
 * so each tag is its own structure; tag 0 is the hot structure.
 */
std::string
ansatzQasm(std::size_t tag, Rng& rng)
{
    std::string q = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
                    std::to_string(kQubits) + "];\n";
    for (std::size_t b = 0; b < 6; ++b)
        if ((tag >> b) & 1u)
            q += "h q[" + std::to_string(b) + "];\n";
    char angle[32];
    for (std::size_t d = 0; d < kDepth; ++d) {
        for (std::size_t i = 0; i < kQubits; ++i) {
            for (const char* gate : {"rx", "ry"}) {
                std::snprintf(angle, sizeof angle, "%.17g",
                              rng.uniform(0.05, 3.0));
                q += std::string(gate) + "(" + angle + ") q[" +
                     std::to_string(i) + "];\n";
            }
        }
        for (std::size_t i = 0; i + 1 < kQubits; ++i)
            q += "cx q[" + std::to_string(i) + "], q[" +
                 std::to_string(i + 1) + "];\n";
    }
    return q;
}

/** ZZ on every neighbour pair plus 0.5 X on qubit 0 (one non-diagonal term). */
Json
observable()
{
    Json terms = Json::array();
    for (std::size_t i = 0; i + 1 < kQubits; ++i) {
        std::string p(kQubits, 'I');
        p[i] = p[i + 1] = 'Z';
        Json t = Json::array();
        t.push(Json(1.0));
        t.push(Json(p));
        terms.push(std::move(t));
    }
    std::string x(kQubits, 'I');
    x[0] = 'X';
    Json t = Json::array();
    t.push(Json(0.5));
    t.push(Json(x));
    terms.push(std::move(t));
    return terms;
}

constexpr double kObservableNorm = (kQubits - 1) + 0.5;

struct Request {
    Json doc;
    std::string qasm;
    std::size_t tag = 0;
    bool sample = true;
};

Request
nextRequest(Rng& rng)
{
    Request r;
    r.tag = rng.uniform() < kColdFraction ? 1 + rng.below(kColdStructures) : 0;
    r.sample = rng.uniform() >= kExpectationFraction;
    r.qasm = ansatzQasm(r.tag, rng);
    r.doc = Json::object();
    r.doc.set("backend", "sv");
    r.doc.set("qasm", r.qasm);
    r.doc.set("task", r.sample ? "sample" : "expectation");
    if (r.sample)
        r.doc.set("shots", Json(static_cast<std::uint64_t>(kShots)));
    else
        r.doc.set("observable", observable());
    r.doc.set("seed", Json(rng.below(std::uint64_t{1} << 52)));
    return r;
}

/** Per-response facts the metrics need. */
struct Reply {
    bool ok = false;
    bool cacheHit = false;
    double coalesced = 0.0;
    double queueWaitUs = 0.0;
    double reuseRatio = 0.0;
    std::string samples; ///< dumped samples array (sample tasks)
};

const Json&
member(const Json& object, const char* key)
{
    const Json* v = object.find(key);
    if (!v)
        throw std::invalid_argument(std::string("missing \"") + key + "\"");
    return *v;
}

/** Checks one reply; the failure reason goes to `why`. */
Reply
checkReply(const server::HttpReply& http, const Request& req, std::string& why)
{
    Reply r;
    if (http.status != 200) {
        why = "status " + std::to_string(http.status) + ": " + http.body;
        return r;
    }
    try {
        const Json doc = server::parseJson(http.body);
        const Json& result = member(doc, "results").at(0);
        if (req.sample) {
            const Json& samples = member(result, "samples");
            if (samples.size() != kShots) {
                why = "sample count";
                return r;
            }
            r.samples = samples.dump();
        } else {
            const double e = member(result, "expectation").asDouble();
            if (!(std::abs(e) <= kObservableNorm + 1e-9)) {
                why = "expectation out of range";
                return r;
            }
        }
        r.cacheHit = member(doc, "cacheHit").asBool();
        r.coalesced = static_cast<double>(member(doc, "coalesced").asUInt64());
        r.queueWaitUs =
            static_cast<double>(member(doc, "queueWaitNanos").asUInt64()) / 1e3;
        const Json& meta = member(result, "meta");
        const double reuses = member(meta, "planReuses").asDouble();
        const double builds = member(meta, "planBuilds").asDouble();
        r.reuseRatio = ratio(reuses, reuses + builds);
        r.ok = true;
    } catch (const std::exception& e) {
        why = std::string("malformed reply: ") + e.what();
    }
    return r;
}

/** One client's tallies. */
struct ClientLog {
    std::vector<double> plain;  ///< untraced round trips, seconds
    std::vector<double> traced; ///< traced round trips, seconds
    std::vector<Reply> replies;
    std::size_t cold = 0;
    std::size_t rebinds = 0;
    std::size_t rebindsOk = 0;
    std::size_t fusedOps = 0;
    std::vector<std::string> failures;
    /** First coalesced sample request: its body and samples, for replay. */
    std::string replayBody;
    std::string replaySamples;
    double replayWidth = 0.0;
};

} // namespace

Outcome
runServeMix(const Args& args, Tracer& tracer)
{
    Outcome out;
    const server::ServerConfig config;

    // Set-up: server start until /v1/healthz answers, timed in a batch
    // before the measured phase and one after it (see runLoop in sim.cc).
    std::vector<double> setups;
    auto startBatch = [&] {
        const double start = now();
        for (std::size_t n = 0; n < 501 && (n < 5 || now() - start < 1.0);
             ++n) {
            const double t0 = now();
            server::ServerCore core(config);
            server::HttpServer http(core, 0);
            const server::HttpReply health =
                server::httpGet("127.0.0.1", http.port(), "/v1/healthz");
            setups.push_back(now() - t0);
            if (health.status != 200)
                throw std::runtime_error("healthz answered " +
                                         std::to_string(health.status));
            http.stop();
        }
    };
    startBatch();

    server::ServerCore core(config);
    server::HttpServer http(core, 0);
    server::ServerCore mirrorCore(config); // trace mode: handle() without a socket
    const ExecPolicy policy;

    std::vector<ClientLog> logs(kClients);
    std::atomic<bool> transportError{false};
    std::string transportWhy;
    std::mutex whyMu;
    double measuredStart = 0.0;
    std::vector<double> clientEnd(kClients, 0.0);
    {
        // Warm-up: the hot structure's session exists before timing starts.
        Connection warm(http.port());
        Rng warmRng(args.seed ^ 0x5bd1e995u);
        for (int i = 0; i < 3; ++i) {
            Request r = nextRequest(warmRng);
            r.doc.set("qasm", ansatzQasm(0, warmRng));
            warm.post("/v1/run", r.doc.dump());
        }
    }

    measuredStart = now();
    const double deadline = measuredStart + args.seconds;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ClientLog& log = logs[c];
            Tracer off(false);
            Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 101 + c);
            ExecutionPlan hotPlan{};
            bool havePlan = false;
            try {
                Connection conn(http.port());
                for (std::size_t i = 0; now() < deadline; ++i) {
                    const Request req = nextRequest(rng);
                    const std::string body = req.doc.dump();
                    const bool tracedReq =
                        tracer.enabled() && i % kTraceEvery == kTraceEvery - 1;
                    Tracer& t = tracedReq ? tracer : off;
                    const double t0 = now();
                    server::HttpReply reply;
                    {
                        Scope eval(t, "eval");
                        reply = conn.post("/v1/run", body);
                    }
                    const double dt = now() - t0;
                    (tracedReq ? log.traced : log.plain).push_back(dt);
                    log.cold += req.tag != 0;

                    if (args.corrupt)
                        reply.body.clear();
                    std::string why;
                    const Reply r = checkReply(reply, req, why);
                    if (!r.ok)
                        log.failures.push_back(why);
                    if (r.ok && req.sample && r.coalesced > 1.0 &&
                        log.replayBody.empty()) {
                        log.replayBody = body;
                        log.replaySamples = r.samples;
                        log.replayWidth = r.coalesced;
                    }
                    log.replies.push_back(r);

                    if (!tracedReq)
                        continue;
                    {
                        Scope mirror(tracer, "layers");
                        Scope s(tracer, "server.handle");
                        mirrorCore.handle("POST", "/v1/run", body);
                    }
                    Scope probe(tracer, "probe");
                    Circuit circuit(1);
                    {
                        Scope s(tracer, "circuit.qasm_parse");
                        circuit = parseQasm(req.qasm, config.qasm);
                    }
                    if (req.tag == 0 && havePlan) {
                        bool ok;
                        {
                            Scope s(tracer, "exec.rebind");
                            ok = tryRebindPlan(hotPlan, circuit);
                        }
                        ++log.rebinds;
                        log.rebindsOk += ok;
                        if (!ok)
                            havePlan = false;
                    }
                    if (req.tag != 0 || !havePlan) {
                        ExecutionPlan plan = [&] {
                            Scope s(tracer, "exec.plan");
                            return planCircuit(circuit, policy, PathOptions{});
                        }();
                        if (req.tag == 0) {
                            log.fusedOps = plan.fusion.gatesOut;
                            hotPlan = std::move(plan);
                            havePlan = true;
                        }
                    }
                    for (const std::string& text : {body, reply.body}) {
                        Json doc;
                        {
                            Scope s(tracer, "server.json_parse");
                            doc = server::parseJson(text);
                        }
                        Scope s(tracer, "server.json_dump");
                        doc.dump();
                    }
                }
            } catch (const std::exception& e) {
                transportError = true;
                std::lock_guard<std::mutex> lock(whyMu);
                transportWhy = e.what();
            }
            clientEnd[c] = now();
        });
    }
    for (std::thread& th : clients)
        th.join();
    const double wall =
        *std::max_element(clientEnd.begin(), clientEnd.end()) - measuredStart;
    if (transportError)
        throw std::runtime_error("transport: " + transportWhy);

    // Replay one coalesced sample request alone: bit-identical samples.
    const ClientLog* replay = nullptr;
    for (const ClientLog& log : logs)
        if (!log.replayBody.empty() &&
            (!replay || log.replayWidth > replay->replayWidth))
            replay = &log;
    ++out.attempted;
    if (!replay) {
        out.fail("no coalesced sample request to replay");
    } else {
        Connection solo(http.port());
        const server::HttpReply again = solo.post("/v1/run", replay->replayBody);
        std::string why;
        Request req;
        req.sample = true;
        const Reply r = checkReply(again, req, why);
        if (!r.ok || r.samples != replay->replaySamples)
            out.fail("coalesced request replayed solo differs " + why);
    }
    const double threads = osThreads();
    http.stop();
    startBatch();

    std::vector<double> plain;
    std::vector<double> traced;
    double hits = 0.0;
    double width = 0.0;
    std::vector<double> waits;
    std::vector<double> reuse;
    std::size_t cold = 0;
    std::size_t rebinds = 0;
    std::size_t rebindsOk = 0;
    std::size_t fusedOps = 0;
    for (const ClientLog& log : logs) {
        plain.insert(plain.end(), log.plain.begin(), log.plain.end());
        traced.insert(traced.end(), log.traced.begin(), log.traced.end());
        for (const Reply& r : log.replies) {
            ++out.attempted;
            if (!r.ok)
                continue;
            hits += r.cacheHit;
            width += r.coalesced;
            waits.push_back(r.queueWaitUs);
            reuse.push_back(r.reuseRatio);
        }
        for (const std::string& why : log.failures)
            out.fail(why);
        cold += log.cold;
        rebinds += log.rebinds;
        rebindsOk += log.rebindsOk;
        fusedOps = std::max(fusedOps, log.fusedOps);
    }
    std::vector<double> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    const double okReplies = static_cast<double>(waits.size());

    out.metrics["setup_s"] = median(setups);
    out.metrics["eval_p50_ms"] = median(plain) * 1e3;
    out.metrics["eval_p99_ms"] = percentile(all, 0.99) * 1e3;
    out.metrics["evals_per_s"] = static_cast<double>(all.size()) / wall;
    out.metrics["peak_rss_mb"] = peakRssMb();
    out.metrics["eval_count"] = static_cast<double>(all.size());
    out.metrics["requests_cold"] = static_cast<double>(cold);
    out.metrics["requests_hot"] = static_cast<double>(all.size() - cold);
    out.metrics["threads"] = static_cast<double>(kClients);

    if (tracer.enabled()) {
        const std::vector<Span> spans = tracer.spans();
        const double handle = median(durations(spans, "server.handle"));
        out.metrics["server.handle_ms"] = handle * 1e3;
        out.metrics["server.transport_ms"] = (median(traced) - handle) * 1e3;
        out.metrics["server.json_parse_us"] =
            median(durations(spans, "server.json_parse")) * 1e6;
        out.metrics["server.json_dump_us"] =
            median(durations(spans, "server.json_dump")) * 1e6;
        out.metrics["server.cache_hit_ratio"] = ratio(hits, okReplies);
        out.metrics["server.coalesce_width_mean"] = ratio(width, okReplies);
        out.metrics["server.queue_wait_p50_us"] = median(waits);
        out.metrics["server.os_threads"] = threads;
        out.metrics["vqa.plan_reuse_ratio"] = median(reuse);
        out.metrics["circuit.qasm_parse_us"] =
            median(durations(spans, "circuit.qasm_parse")) * 1e6;
        out.metrics["circuit.fused_ops"] = static_cast<double>(fusedOps);
        out.metrics["exec.plan_ms"] = median(durations(spans, "exec.plan")) * 1e3;
        out.metrics["exec.rebind_us"] =
            median(durations(spans, "exec.rebind")) * 1e6;
        out.metrics["exec.rebind_ok_ratio"] =
            ratio(static_cast<double>(rebindsOk), static_cast<double>(rebinds));
        addTraceMetrics(out, spans, plain, traced);
    }
    return out;
}

} // namespace vqabench
