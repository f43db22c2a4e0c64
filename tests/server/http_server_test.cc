#include "server/http_server.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/http_client.h"
#include "server/json.h"

namespace qkc {
namespace server {
namespace {

const char* kBellQasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg "
                        "q[2];\nh q[0];\ncx q[0], q[1];\n";

std::string
bellBody(std::uint64_t seed)
{
    Json doc = Json::object();
    doc.set("backend", "sv");
    doc.set("qasm", kBellQasm);
    doc.set("shots", Json(std::uint64_t{16}));
    doc.set("seed", Json(seed));
    return doc.dump();
}

/** A raw loopback connection for exercising protocol details directly. */
class RawConnection {
  public:
    explicit RawConnection(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~RawConnection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool ok() const { return fd_ >= 0; }

    void send(const std::string& data)
    {
        ASSERT_EQ(::send(fd_, data.data(), data.size(), 0),
                  static_cast<ssize_t>(data.size()));
    }

    /** Reads one complete response (headers + Content-Length body). */
    std::string readResponse()
    {
        std::string buf;
        char chunk[2048];
        while (true) {
            const std::size_t headerEnd = buf.find("\r\n\r\n");
            if (headerEnd != std::string::npos) {
                std::size_t contentLength = 0;
                const std::size_t cl = buf.find("Content-Length: ");
                if (cl != std::string::npos && cl < headerEnd)
                    contentLength = std::stoul(buf.substr(cl + 16));
                if (buf.size() >= headerEnd + 4 + contentLength)
                    return buf.substr(0, headerEnd + 4 + contentLength);
            }
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return buf;
            buf.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
};

TEST(HttpServerTest, HealthzOverLoopback)
{
    ServerCore core;
    HttpServer http(core, 0);
    ASSERT_NE(http.port(), 0);

    const HttpReply reply = httpGet("127.0.0.1", http.port(), "/v1/healthz");
    EXPECT_EQ(reply.status, 200);
    EXPECT_TRUE(parseJson(reply.body).find("ok")->asBool());
}

TEST(HttpServerTest, FinishedConnectionThreadsAreReaped)
{
    // Each request closes its connection; the accept loop joins finished
    // threads, so the live set stays bounded instead of growing by one
    // thread per connection ever accepted.
    ServerCore core;
    HttpServer http(core, 0);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(httpGet("127.0.0.1", http.port(), "/v1/healthz").status, 200);
    EXPECT_LE(http.workerCount(), 4u);
}

TEST(HttpServerTest, RunMatchesDirectCoreHandling)
{
    ServerCore core;
    HttpServer http(core, 0);
    const HttpReply wire =
        httpPost("127.0.0.1", http.port(), "/v1/run", bellBody(7));
    ASSERT_EQ(wire.status, 200) << wire.body;

    // The transport adds nothing: a direct core call on a fresh server
    // yields the same samples (per-request determinism). meta carries
    // wall-clock timings, so compare the sample payloads only.
    ServerCore direct;
    const HttpResult local = direct.handle("POST", "/v1/run", bellBody(7));
    const Json wireDoc = parseJson(wire.body);
    const Json localDoc = parseJson(local.body);
    EXPECT_EQ(wireDoc.find("results")->at(0).find("samples")->dump(),
              localDoc.find("results")->at(0).find("samples")->dump());
}

TEST(HttpServerTest, ErrorStatusesCrossTheWire)
{
    ServerCore core;
    HttpServer http(core, 0);
    EXPECT_EQ(httpGet("127.0.0.1", http.port(), "/nope").status, 404);
    EXPECT_EQ(
        httpPost("127.0.0.1", http.port(), "/v1/run", "not json").status, 400);
}

TEST(HttpServerTest, KeepAliveServesSequentialRequests)
{
    ServerCore core;
    HttpServer http(core, 0);
    RawConnection conn(http.port());
    ASSERT_TRUE(conn.ok());

    const std::string body = bellBody(3);
    const std::string request = "POST /v1/run HTTP/1.1\r\nHost: x\r\n"
                                "Content-Length: " +
                                std::to_string(body.size()) + "\r\n\r\n" +
                                body;
    conn.send(request);
    const std::string first = conn.readResponse();
    EXPECT_NE(first.find("200 OK"), std::string::npos);
    EXPECT_NE(first.find("Connection: keep-alive"), std::string::npos);

    // Same connection, second request — and the payloads must agree
    // (same seed, warm session via the cache).
    conn.send(request);
    const std::string second = conn.readResponse();
    EXPECT_NE(second.find("200 OK"), std::string::npos);
    const std::size_t b1 = first.find("\r\n\r\n");
    const std::size_t b2 = second.find("\r\n\r\n");
    const Json firstDoc = parseJson(first.substr(b1 + 4));
    const Json secondDoc = parseJson(second.substr(b2 + 4));
    EXPECT_EQ(firstDoc.find("results")->at(0).find("samples")->dump(),
              secondDoc.find("results")->at(0).find("samples")->dump());
}

TEST(HttpServerTest, OversizedBodyIsRefusedWith413)
{
    ServerCore core;
    HttpServer http(core, 0);
    RawConnection conn(http.port());
    ASSERT_TRUE(conn.ok());
    conn.send("POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: "
              "999999999\r\n\r\n");
    const std::string response = conn.readResponse();
    EXPECT_NE(response.find("413"), std::string::npos);
}

TEST(HttpServerTest, MalformedRequestLineIsRefused)
{
    ServerCore core;
    HttpServer http(core, 0);
    RawConnection conn(http.port());
    ASSERT_TRUE(conn.ok());
    conn.send("NONSENSE\r\n\r\n");
    EXPECT_NE(conn.readResponse().find("400"), std::string::npos);
}

TEST(HttpServerTest, ConcurrentClientsAllSucceed)
{
    ServerCore core;
    HttpServer http(core, 0);
    constexpr std::size_t kClients = 8;
    std::vector<int> statuses(kClients, 0);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            statuses[c] = httpPost("127.0.0.1", http.port(), "/v1/run",
                                   bellBody(100 + c))
                              .status;
        });
    }
    for (std::thread& t : clients)
        t.join();
    for (std::size_t c = 0; c < kClients; ++c)
        EXPECT_EQ(statuses[c], 200) << "client " << c;
}

TEST(HttpServerTest, StopIsIdempotentAndJoinsCleanly)
{
    ServerCore core;
    auto* http = new HttpServer(core, 0);
    const std::uint16_t port = http->port();
    EXPECT_EQ(httpGet("127.0.0.1", port, "/v1/healthz").status, 200);
    http->stop();
    EXPECT_FALSE(http->running());
    http->stop(); // second stop is a no-op
    delete http;  // destructor also calls stop
    EXPECT_THROW(httpGet("127.0.0.1", port, "/v1/healthz"),
                 std::runtime_error);
}

TEST(HttpServerTest, DrainThenStopCompletesInFlightWork)
{
    // The daemon's shutdown sequence: begin drain, wait for zero inflight,
    // stop the transport. After drain, run requests answer 503 but the
    // stats endpoint still serves.
    ServerCore core;
    HttpServer http(core, 0);
    ASSERT_EQ(
        httpPost("127.0.0.1", http.port(), "/v1/run", bellBody(1)).status,
        200);
    ASSERT_EQ(
        httpPost("127.0.0.1", http.port(), "/v1/shutdown", "{}").status, 200);
    EXPECT_EQ(
        httpPost("127.0.0.1", http.port(), "/v1/run", bellBody(2)).status,
        503);
    EXPECT_EQ(httpGet("127.0.0.1", http.port(), "/v1/stats").status, 200);
    EXPECT_EQ(core.inflight(), 0u);
    http.stop();
}

} // namespace
} // namespace server
} // namespace qkc
