/**
 * qkc_cli — drive the knowledge-compilation toolchain from the shell.
 *
 * Reads an OpenQASM 2.0 circuit (with optional `// qkc.noise ...` channel
 * annotations) and runs one of:
 *
 *   --mode=compile   print pipeline metrics; optionally write the CNF
 *                    (--cnf-out=f.cnf) and the AC (--nnf-out=f.nnf)
 *   --mode=amplitude print the amplitude of --outcome=BITSTRING
 *                    (noise events all pinned to "no event")
 *   --mode=dist      print the exact outcome distribution (small circuits)
 *   --mode=sample    draw --samples=N outcomes (--seed=S) from any
 *                    registered backend: --backend=kc|sv|dm|tn|dd (or the
 *                    long names; default knowledgecompilation). Backend
 *                    options ride along after a colon; --list-backends
 *                    prints every name, alias and accepted option key
 *                    straight from the registry.
 *   --mode=mpe       most probable explanation for --outcome=BITSTRING
 *
 * Observability (any mode): --trace=FILE writes a Chrome trace-event JSON
 * of every span the run emitted (load in chrome://tracing or Perfetto);
 * --profile prints the per-task phase/counter report after --mode=sample
 * plus the process metrics snapshot.
 *
 * Standalone: --list-backends (no --qasm needed); add --json for a
 * machine-readable listing (the same document qkc_serverd's /v1/backends
 * endpoint serves).
 *
 * Errors (an unreadable or malformed --qasm file, an unknown --backend, a
 * bad --outcome) print `qkc_cli: <reason>` on stderr and exit with status 2.
 *
 * Example:
 *   ./build/examples/qkc_cli --qasm=bell.qasm --mode=sample --samples=100
 *   ./build/examples/qkc_cli --qasm=bell.qasm --mode=sample --backend=dd
 *   ./build/examples/qkc_cli --qasm=big.qasm --mode=sample \
 *       --backend=sv:threads=8,fuse=1
 *   ./build/examples/qkc_cli --qasm=bell.qasm --mode=sample \
 *       --backend=kc:burnin=128
 */
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ac/kc_simulator.h"
#include "ac/queries.h"
#include "circuit/qasm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/server_core.h"
#include "util/cli.h"
#include "util/stats.h"
#include "vqa/backends.h"

using namespace qkc;

namespace {

/** Writes the Chrome trace on every exit path once --trace=FILE armed it. */
struct TraceGuard {
    std::string path;

    ~TraceGuard()
    {
        if (path.empty())
            return;
        auto& recorder = obs::TraceRecorder::instance();
        recorder.stop();
        std::ofstream out(path);
        recorder.writeChromeJson(out);
        std::fprintf(stderr, "# trace written to %s\n", path.c_str());
    }
};

std::uint64_t
parseOutcome(const std::string& bits, std::size_t numQubits)
{
    if (bits.size() != numQubits)
        throw std::invalid_argument("--outcome length must equal qubit count");
    std::uint64_t v = 0;
    for (char c : bits) {
        if (c != '0' && c != '1')
            throw std::invalid_argument("--outcome must be a bitstring");
        v = (v << 1) | static_cast<std::uint64_t>(c - '0');
    }
    return v;
}

} // namespace

int
main(int argc, char** argv)
try {
    Cli cli(argc, argv);

    if (cli.has("list-backends")) {
        // Rendered straight from the registry parseBackendSpec validates
        // against, so this listing cannot drift from what is accepted.
        if (cli.has("json")) {
            std::printf("%s\n", server::backendRegistryJson().dump().c_str());
            return 0;
        }
        for (const BackendInfo& info : backendRegistry()) {
            std::string aliases;
            for (const std::string& a : info.aliases)
                aliases += (aliases.empty() ? "" : ", ") + a;
            std::string keys;
            for (const std::string& k : info.optionKeys)
                keys += (keys.empty() ? "" : ", ") + k;
            std::printf("%s\n", info.name.c_str());
            std::printf("  aliases:  %s\n",
                        aliases.empty() ? "(none)" : aliases.c_str());
            std::printf("  options:  %s\n",
                        keys.empty() ? "(none)" : keys.c_str());
            std::printf("  profile:  %s\n", info.summary.c_str());
            std::printf("  tasks:    %s\n", info.tasks.c_str());
            std::printf("  batch:    %s\n", info.batch.c_str());
        }
        return 0;
    }

    std::string qasmPath = cli.getString("qasm", "");
    std::string mode = cli.getString("mode", "compile");

    TraceGuard trace{cli.getString("trace", "")};
    if (!trace.path.empty())
        obs::TraceRecorder::instance().start();

    Circuit circuit = [&]() {
        if (qasmPath.empty() || qasmPath == "-") {
            return parseQasm(std::cin);
        }
        std::ifstream in(qasmPath);
        if (!in)
            throw std::runtime_error("cannot open " + qasmPath);
        return parseQasm(in);
    }();

    const std::size_t n = circuit.numQubits();

    if (mode == "sample") {
        // Sampling goes through the backend registry, so any simulator
        // family can serve shots; only the default pays a KC compile.
        std::size_t numSamples =
            static_cast<std::size_t>(cli.getInt("samples", 100));
        Rng rng(static_cast<std::uint64_t>(cli.getInt("seed", 1)));
        auto backend = makeBackend(
            cli.getString("backend", "knowledgecompilation"));
        auto session = backend->open(circuit);
        const Result result = session->run(Sample{numSamples}, rng);
        std::map<std::uint64_t, std::size_t> counts;
        for (auto s : result.samples)
            ++counts[s];
        std::printf("# backend %s\n", backend->name().c_str());
        for (const auto& [outcome, count] : counts)
            std::printf("%s  %zu\n", basisKet(outcome, n).c_str(), count);
        if (cli.has("profile")) {
            std::printf("# --- task profile ---\n");
            obs::writeProfileReport(std::cout, result.meta.profile);
            std::printf("# --- process metrics ---\n");
            obs::writeMetricsReport(
                std::cout, obs::MetricsRegistry::instance().snapshot());
        }
        return 0;
    }

    KcSimulator sim(circuit);

    if (mode == "compile") {
        auto m = sim.metrics();
        std::printf("qubits        %zu\n", n);
        std::printf("operations    %zu (%zu gates, %zu channels)\n",
                    circuit.size(), circuit.gateCount(),
                    circuit.noiseCount());
        std::printf("bn_variables  %zu\n", m.bnNodes);
        std::printf("cnf_vars      %zu (%zu indicators)\n", m.cnfVars,
                    m.cnfIndicatorVars);
        std::printf("cnf_clauses   %zu\n", m.cnfClauses);
        std::printf("ac_nodes      %zu\n", m.acNodes);
        std::printf("ac_edges      %zu\n", m.acEdges);
        std::printf("ac_bytes      %zu\n", m.acFileBytes);
        std::printf("compile_s     %.4f\n", m.compileSeconds);
        std::string cnfOut = cli.getString("cnf-out", "");
        if (!cnfOut.empty()) {
            std::ofstream f(cnfOut);
            sim.cnf().writeDimacs(f);
            std::printf("wrote %s\n", cnfOut.c_str());
        }
        std::string nnfOut = cli.getString("nnf-out", "");
        if (!nnfOut.empty()) {
            std::ofstream f(nnfOut);
            sim.ac().writeNnf(f);
            std::printf("wrote %s\n", nnfOut.c_str());
        }
        return 0;
    }

    if (mode == "amplitude") {
        std::uint64_t outcome = parseOutcome(
            cli.getString("outcome", std::string(n, '0')), n);
        std::vector<std::size_t> noNoise(sim.bayesNet().noiseVars().size(), 0);
        Complex a = sim.amplitude(outcome, noNoise);
        std::printf("A(%s%s) = %.10f %+.10fi  |A|^2 = %.10f\n",
                    basisKet(outcome, n).c_str(),
                    noNoise.empty() ? "" : ", no noise events", a.real(),
                    a.imag(), norm2(a));
        return 0;
    }

    if (mode == "dist") {
        if (n > 16)
            throw std::runtime_error("--mode=dist limited to 16 qubits");
        auto dist = sim.outcomeDistribution();
        for (std::uint64_t x = 0; x < dist.size(); ++x) {
            if (dist[x] > 1e-12)
                std::printf("%s  %.8f\n", basisKet(x, n).c_str(), dist[x]);
        }
        return 0;
    }

    if (mode == "mpe") {
        std::uint64_t outcome = parseOutcome(
            cli.getString("outcome", std::string(n, '0')), n);
        Rng rng(static_cast<std::uint64_t>(cli.getInt("seed", 1)));
        auto r = mostProbableExplanation(sim, outcome, rng);
        std::printf("observed %s -> %s explanation, mass %.6g:\n",
                    basisKet(outcome, n).c_str(),
                    r.exact ? "exact" : "annealed", r.mass);
        const auto& bn = sim.bayesNet();
        for (std::size_t i = 0; i < r.noiseAssignment.size(); ++i)
            std::printf("  %s = %zu\n",
                        bn.variable(bn.noiseVars()[i]).name.c_str(),
                        r.noiseAssignment[i]);
        return 0;
    }

    std::fprintf(stderr, "unknown --mode=%s\n", mode.c_str());
    return 1;
} catch (const std::exception& e) {
    std::fprintf(stderr, "qkc_cli: %s\n", e.what());
    return 2;
}
