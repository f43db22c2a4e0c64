#include "server/http_server.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace qkc {
namespace server {

namespace {

const char*
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 408: return "Request Timeout";
      case 413: return "Payload Too Large";
      case 422: return "Unprocessable Entity";
      case 429: return "Too Many Requests";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
      default: return "Status";
    }
}

std::string
renderResponse(const HttpResult& result, bool keepAlive)
{
    std::string out = "HTTP/1.1 " + std::to_string(result.status) + " " +
                      statusText(result.status) + "\r\n";
    out += "Content-Type: application/json\r\n";
    out += "Content-Length: " + std::to_string(result.body.size()) + "\r\n";
    out += keepAlive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
    out += "\r\n";
    out += result.body;
    return out;
}

bool
sendAll(int fd, const std::string& data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

/** ASCII case-insensitive prefix match for header names. */
bool
headerIs(const std::string& line, const char* name)
{
    std::size_t i = 0;
    for (; name[i]; ++i) {
        if (i >= line.size())
            return false;
        const char a = line[i];
        const char b = name[i];
        const char la = (a >= 'A' && a <= 'Z') ? char(a - 'A' + 'a') : a;
        const char lb = (b >= 'A' && b <= 'Z') ? char(b - 'A' + 'a') : b;
        if (la != lb)
            return false;
    }
    return i < line.size() && line[i] == ':';
}

std::string
headerValue(const std::string& line)
{
    const std::size_t colon = line.find(':');
    std::size_t start = colon + 1;
    while (start < line.size() && (line[start] == ' ' || line[start] == '\t'))
        ++start;
    return line.substr(start);
}

} // namespace

HttpServer::HttpServer(ServerCore& core, std::uint16_t port) : core_(core)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("HttpServer: socket() failed");

    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        ::close(listenFd_);
        throw std::runtime_error("HttpServer: cannot bind 127.0.0.1:" +
                                 std::to_string(port));
    }
    if (::listen(listenFd_, 64) != 0) {
        ::close(listenFd_);
        throw std::runtime_error("HttpServer: listen() failed");
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);

    acceptThread_ = std::thread([this] { acceptLoop(); });
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::stop()
{
    if (stopping_.exchange(true))
        return;
    // Unblock accept(); connection threads notice the flag at their next
    // read timeout and drain naturally.
    ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    ::close(listenFd_);

    std::list<Worker> workers;
    {
        std::lock_guard<std::mutex> lock(mu_);
        workers.swap(workers_);
    }
    for (Worker& w : workers)
        w.thread.join();
}

std::size_t
HttpServer::workerCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return workers_.size();
}

void
HttpServer::acceptLoop()
{
    while (!stopping_.load()) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load())
                return;
            continue;
        }
        // Bounded reads so the connection thread re-checks the stop flag
        // twice a second even on an idle keep-alive connection.
        timeval tv{};
        tv.tv_usec = 500 * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        std::lock_guard<std::mutex> lock(mu_);
        for (auto it = workers_.begin(); it != workers_.end();) {
            if (it->done.load()) {
                it->thread.join(); // already past its last statement
                it = workers_.erase(it);
            } else {
                ++it;
            }
        }
        Worker& w = workers_.emplace_back();
        w.thread = std::thread([this, fd, &w] {
            serveConnection(fd);
            w.done.store(true);
        });
    }
}

void
HttpServer::serveConnection(int fd)
{
    std::string buf;
    char chunk[4096];

    while (!stopping_.load()) {
        // -- Read until the end of the header block -------------------------
        std::size_t headerEnd;
        while ((headerEnd = buf.find("\r\n\r\n")) == std::string::npos) {
            if (buf.size() > kMaxHeaderBytes) {
                sendAll(fd, renderResponse(
                                {413, "{\"error\":{\"code\":\"too_large\","
                                      "\"message\":\"headers exceed the "
                                      "limit\"}}"},
                                false));
                ::close(fd);
                return;
            }
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n > 0) {
                buf.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                if (stopping_.load()) {
                    ::close(fd);
                    return;
                }
                continue; // idle keep-alive connection; poll again
            }
            ::close(fd); // peer closed or hard error
            return;
        }

        // -- Request line ---------------------------------------------------
        const std::string head = buf.substr(0, headerEnd);
        const std::size_t lineEnd = head.find("\r\n");
        const std::string requestLine =
            head.substr(0, lineEnd == std::string::npos ? head.size()
                                                        : lineEnd);
        const std::size_t sp1 = requestLine.find(' ');
        const std::size_t sp2 =
            sp1 == std::string::npos ? std::string::npos
                                     : requestLine.find(' ', sp1 + 1);
        if (sp1 == std::string::npos || sp2 == std::string::npos) {
            sendAll(fd, renderResponse(
                            {400, "{\"error\":{\"code\":\"bad_request\","
                                  "\"message\":\"malformed request line\"}}"},
                            false));
            ::close(fd);
            return;
        }
        const std::string method = requestLine.substr(0, sp1);
        const std::string path = requestLine.substr(sp1 + 1, sp2 - sp1 - 1);

        // -- Headers we care about ------------------------------------------
        std::size_t contentLength = 0;
        bool keepAlive = true;
        std::size_t pos = lineEnd == std::string::npos ? head.size()
                                                       : lineEnd + 2;
        while (pos < head.size()) {
            std::size_t eol = head.find("\r\n", pos);
            if (eol == std::string::npos)
                eol = head.size();
            const std::string line = head.substr(pos, eol - pos);
            pos = eol + 2;
            if (headerIs(line, "Content-Length")) {
                try {
                    contentLength = std::stoul(headerValue(line));
                } catch (const std::exception&) {
                    contentLength = kMaxBodyBytes + 1;
                }
            } else if (headerIs(line, "Connection")) {
                keepAlive = headerValue(line) != "close";
            }
        }
        if (contentLength > kMaxBodyBytes) {
            sendAll(fd, renderResponse(
                            {413, "{\"error\":{\"code\":\"too_large\","
                                  "\"message\":\"body exceeds the limit\"}}"},
                            false));
            ::close(fd);
            return;
        }

        // -- Body -----------------------------------------------------------
        const std::size_t bodyStart = headerEnd + 4;
        while (buf.size() < bodyStart + contentLength) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n > 0) {
                buf.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
                !stopping_.load())
                continue;
            ::close(fd); // truncated request
            return;
        }
        const std::string body = buf.substr(bodyStart, contentLength);
        buf.erase(0, bodyStart + contentLength); // keep any pipelined bytes

        // -- Dispatch -------------------------------------------------------
        const HttpResult result = core_.handle(method, path, body);
        if (!sendAll(fd, renderResponse(result, keepAlive)) || !keepAlive) {
            ::close(fd);
            return;
        }
    }
    ::close(fd);
}

} // namespace server
} // namespace qkc
