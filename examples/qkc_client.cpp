/**
 * qkc_client — drive a running qkc_serverd from the shell.
 *
 * Builds the /v1/run JSON body from flags (or posts a raw body verbatim)
 * and prints the response JSON on stdout; the exit code is 0 iff the
 * server answered 200. Non-200 responses print to stdout too — the error
 * document is the result.
 *
 * Flags:
 *   --host=H        server host (default 127.0.0.1)
 *   --port=N        server port (default 7411)
 *   --qasm=FILE     circuit file, or - for stdin (required for run)
 *   --backend=SPEC  backend spec string (default sv)
 *   --task=NAME     sample | expectation | amplitudes | probabilities
 *   --shots=N       Sample/Expectation shots
 *   --seed=S        base RNG seed (binding i draws seed+i)
 *   --body=JSON     post this body verbatim instead of building one
 *   --path=P        endpoint (default /v1/run); GET for non-run paths
 *
 * Examples:
 *   ./build/examples/qkc_client --qasm=bell.qasm --backend=dd --shots=64
 *   ./build/examples/qkc_client --path=/v1/stats
 *   ./build/examples/qkc_client --path=/v1/shutdown
 */
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "server/http_client.h"
#include "server/json.h"
#include "util/cli.h"

int
main(int argc, char** argv)
{
    using namespace qkc;
    Cli cli(argc, argv);

    try {
        const std::string host = cli.getString("host", "127.0.0.1");
        const auto port =
            static_cast<std::uint16_t>(cli.getInt("port", 7411));
        const std::string path = cli.getString("path", "/v1/run");

        server::HttpReply reply;
        if (path != "/v1/run" && path != "/v1/shutdown") {
            reply = server::httpGet(host, port, path);
        } else if (path == "/v1/shutdown") {
            reply = server::httpPost(host, port, path, "{}");
        } else {
            std::string body = cli.getString("body", "");
            if (body.empty()) {
                const std::string qasmPath = cli.getString("qasm", "");
                if (qasmPath.empty()) {
                    std::fprintf(stderr,
                                 "qkc_client: --qasm=FILE (or --body=JSON) "
                                 "is required for /v1/run\n");
                    return 2;
                }
                std::ostringstream qasm;
                if (qasmPath == "-") {
                    qasm << std::cin.rdbuf();
                } else {
                    std::ifstream in(qasmPath);
                    if (!in) {
                        std::fprintf(stderr, "qkc_client: cannot open %s\n",
                                     qasmPath.c_str());
                        return 2;
                    }
                    qasm << in.rdbuf();
                }
                server::Json doc = server::Json::object();
                doc.set("backend", cli.getString("backend", "sv"));
                doc.set("qasm", qasm.str());
                doc.set("task", cli.getString("task", "sample"));
                if (cli.has("shots"))
                    doc.set("shots", server::Json(static_cast<std::uint64_t>(
                                         cli.getInt("shots", 1024))));
                if (cli.has("seed"))
                    doc.set("seed", server::Json(static_cast<std::uint64_t>(
                                        cli.getInt("seed", 0))));
                body = doc.dump();
            }
            reply = server::httpPost(host, port, path, body);
        }
        std::printf("%s\n", reply.body.c_str());
        return reply.status == 200 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "qkc_client: %s\n", e.what());
        return 2;
    }
}
