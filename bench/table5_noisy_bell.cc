/**
 * Regenerates the paper's running example: Figure 2 / Tables 2, 3 and 5.
 *
 * Builds the noisy Bell circuit (H, phase damping gamma = 0.36, CNOT),
 * prints its Bayesian network, the CNF encoding, and the Table 5 upward-pass
 * amplitude table with the two density-matrix components.
 *
 * Note on signs: the paper derives the noise entries from an equivalent
 * Ry-rotation construction, giving -0.6; the Kraus-operator convention used
 * here gives +0.6. Squared magnitudes (all probabilities and the density
 * matrix) are identical.
 */
#include <cmath>
#include <cstdio>
#include <sstream>

#include "ac/kc_simulator.h"
#include "algorithms/algorithms.h"
#include "bench_common.h"
#include "cnf/cnf.h"
#include "util/cli.h"

using namespace qkc;

int
driverMain(int argc, char** argv)
{
    Cli cli(argc, argv);
    double gamma = cli.getDouble("gamma", 0.36);

    Circuit circuit = noisyBellCircuit(gamma);
    std::printf("=== Noisy Bell circuit (Figure 2a) ===\n%s\n",
                circuit.toString().c_str());

    KcSimulator kc(circuit);
    std::printf("=== Bayesian network (Figure 2c) ===\n%s\n",
                kc.bayesNet().summary().c_str());

    std::printf("=== Conditional amplitude tables (Table 2) ===\n");
    const auto& bn = kc.bayesNet();
    for (const auto& pot : bn.potentials()) {
        if (pot.sourceOp == SIZE_MAX)
            continue;
        std::printf("potential over:");
        for (BnVarId v : pot.vars)
            std::printf(" %s", bn.variable(v).name.c_str());
        std::printf("\n  entries:");
        for (const auto& e : pot.entries) {
            switch (e.kind) {
              case BnEntryKind::StructuralZero: std::printf(" 0"); break;
              case BnEntryKind::StructuralOne: std::printf(" 1"); break;
              case BnEntryKind::Parameter:
                std::printf(" %.4f", bn.paramValues()[e.paramId].real());
                break;
            }
        }
        std::printf("\n");
    }

    std::printf("\n=== CNF encoding (Table 3; extended DIMACS) ===\n");
    std::ostringstream dimacs;
    kc.cnf().writeDimacs(dimacs);
    std::printf("%s\n", dimacs.str().c_str());

    auto m = kc.metrics();
    std::printf("=== Arithmetic circuit (Figure 5) ===\n");
    std::printf("nodes=%zu edges=%zu file=%zuB compile=%.4fs\n\n", m.acNodes,
                m.acEdges, m.acFileBytes, m.compileSeconds);

    std::printf("=== Upward pass (Table 5) ===\n");
    std::printf("%-8s %-6s %-6s %-12s\n", "q0m2rv", "q0", "q1", "amplitude");
    for (std::size_t rv = 0; rv < 2; ++rv) {
        for (std::uint64_t x = 0; x < 4; ++x) {
            Complex a = kc.amplitude(x, {rv});
            std::printf("%-8zu |%llu>    |%llu>    %+.4f%+.4fi\n", rv,
                        (unsigned long long)(x >> 1),
                        (unsigned long long)(x & 1), a.real(), a.imag());
        }
    }
    std::printf("\nDensity matrix diagonal (summing |amplitude|^2 over rv):\n");
    for (std::uint64_t x = 0; x < 4; ++x)
        std::printf("P(|%llu%llu>) = %.4f\n", (unsigned long long)(x >> 1),
                    (unsigned long long)(x & 1), kc.probability(x));
    std::printf("\nExpected (Equation 3): P(00) = P(11) = 1/2, coherence 0.4\n");
    return 0;
}

int
main(int argc, char** argv)
{
    return bench::runDriver(argc, argv, driverMain);
}
