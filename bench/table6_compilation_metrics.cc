/**
 * Regenerates Table 6: intermediate compilation result metrics (gate /
 * BN-node count, CNF clauses, AC nodes, AC edges, serialized AC size) for
 * the largest problem instances of the Figure 8 / Figure 9 sweeps.
 *
 * Default sizes are the single-core-friendly reductions; pass
 * --ideal-qaoa=32 --ideal-vqe=25 --noisy-qaoa=12 --noisy-vqe=9 and
 * --max-iterations=2 for the paper's instance sizes.
 */
#include <cstdio>

#include "ac/kc_simulator.h"
#include "bench_common.h"
#include "util/cli.h"

using namespace qkc;

namespace {

void
row(const char* label, std::size_t p, const Circuit& circuit)
{
    KcSimulator kc(circuit);
    auto m = kc.metrics();
    std::printf("%-12s %2zu %6zu %7zu %9zu %10zu %10zu %11zu %9.3f\n", label,
                p, circuit.numQubits(), circuit.size(), m.cnfClauses,
                m.acNodes, m.acEdges, m.acFileBytes, m.compileSeconds);
    std::fflush(stdout);
}

} // namespace

int
driverMain(int argc, char** argv)
{
    Cli cli(argc, argv);
    std::size_t idealQaoa =
        static_cast<std::size_t>(cli.getInt("ideal-qaoa", 32));
    std::size_t idealVqe = static_cast<std::size_t>(cli.getInt("ideal-vqe", 25));
    std::size_t noisyQaoa =
        static_cast<std::size_t>(cli.getInt("noisy-qaoa", 12));
    std::size_t noisyVqe = static_cast<std::size_t>(cli.getInt("noisy-vqe", 9));
    std::size_t maxIter =
        static_cast<std::size_t>(cli.getInt("max-iterations", 2));
    std::size_t idealP2Qaoa =
        static_cast<std::size_t>(cli.getInt("ideal-qaoa-p2", 20));
    double noise = cli.getDouble("noise", 0.005);

    bench::printHeader(
        "Table 6: intermediate compilation metrics for the largest instances",
        "# workload    p qubits     ops  cnf_cls   ac_nodes   ac_edges  "
        "ac_bytes     compile_s");

    for (std::size_t p = 1; p <= maxIter; ++p) {
        std::size_t nQaoa = p == 1 ? idealQaoa : idealP2Qaoa;
        row("ideal_qaoa", p, bench::qaoaCircuit(nQaoa, p, 19));
        row("ideal_vqe", p, bench::vqeCircuit(idealVqe, p, 19));
    }
    for (std::size_t p = 1; p <= maxIter; ++p) {
        row("noisy_qaoa", p,
            bench::qaoaCircuit(noisyQaoa, p, 19)
                .withNoiseAfterEachGate(NoiseKind::Depolarizing, noise));
        row("noisy_vqe", p,
            bench::vqeCircuit(noisyVqe, p, 19)
                .withNoiseAfterEachGate(NoiseKind::Depolarizing, noise));
    }
    return 0;
}

int
main(int argc, char** argv)
{
    return bench::runDriver(argc, argv, driverMain);
}
