/**
 * Regenerates Figure 6 and Table 4: simulation resource requirements (AC
 * nodes) versus quantum circuit size (CNF variables) for three workloads —
 * random circuit sampling (unstructured), Grover's search, and Shor's order
 * finding. RCS shows exponential growth; the structured algorithms scale
 * sub-exponentially because knowledge compilation extracts their structure.
 *
 * Sizes are reduced from the paper's 1TB-RAM server runs (artifact A.6.2
 * does the same); pass --rcs-max-depth / --grover-max / --shor-max to grow.
 */
#include <cstdio>
#include <fstream>

#include "ac/kc_simulator.h"
#include "algorithms/algorithms.h"
#include "bench_common.h"
#include "util/cli.h"

using namespace qkc;

namespace {

void
row(const char* workload, const Circuit& circuit)
{
    KcSimulator kc(circuit);
    auto m = kc.metrics();
    std::printf("%-10s %7zu %7zu %9zu %10zu %10zu %12zu %9.3f\n", workload,
                circuit.numQubits(), circuit.gateCount(), m.cnfVars,
                m.cnfIndicatorVars, m.acNodes, m.acFileBytes,
                m.compileSeconds);
    std::fflush(stdout);
}

} // namespace

int
driverMain(int argc, char** argv)
{
    Cli cli(argc, argv);
    std::size_t rcsMaxDepth =
        static_cast<std::size_t>(cli.getInt("rcs-max-depth", 14));
    std::size_t groverMaxIter =
        static_cast<std::size_t>(cli.getInt("grover-max-iter", 8));
    std::size_t shorMax = static_cast<std::size_t>(cli.getInt("shor-max", 6));

    bench::printHeader(
        "Figure 6 + Table 4: AC nodes vs CNF variables",
        "# workload  qubits   gates  cnf_vars  indicators   ac_nodes  "
        "ac_file_byte   compile_s");

    // Unstructured: GRCS-style random circuits on a 3x3 grid with growing
    // depth; qubits entangle across the whole grid and the AC blows up
    // exponentially (the paper's gray series).
    for (std::size_t depth = 4; depth <= rcsMaxDepth; depth += 2) {
        Rng rng(130 + depth);
        row("rcs", rcsCircuit(3, 3, depth, rng));
    }

    // Structured: Grover search over 16 elements with a growing number of
    // amplitude-amplification iterations (gate count grows; structure is
    // preserved, so the AC grows slowly — the paper's blue series).
    for (std::size_t it = 1; it <= groverMaxIter; ++it)
        row("grover", groverCircuit(4, 0b1010, static_cast<int>(it)));

    // Structured: Shor order finding for 15 with a growing counting
    // register (the paper's orange series).
    for (std::size_t t = 2; t <= shorMax; ++t)
        row("shor", shorOrderFindingCircuit(t, 7));

    return 0;
}

int
main(int argc, char** argv)
{
    return bench::runDriver(argc, argv, driverMain);
}
