#ifndef QKC_ALGORITHMS_ALGORITHMS_H
#define QKC_ALGORITHMS_ALGORITHMS_H

#include <cstdint>

#include "circuit/circuit.h"
#include "util/rng.h"

namespace qkc {

/**
 * The algorithm circuits the benchmark drivers and examples run: the
 * paper's noisy Bell example, GHZ, Grover, Shor's order finding and
 * GRCS-style random circuit sampling (Sections 3.2.3, 3.3.1 and artifact
 * appendix A.6.1). The rest of the paper's validation suite lives with
 * the tests (tests/testing/algorithm_circuits.h).
 *
 * Every factory returns a pure-gate circuit apart from noisyBellCircuit
 * (noise is layered on by the caller via Circuit::withNoiseAfterEachGate)
 * and documents the expected measurement outcome used by the tests.
 */

/**
 * The paper's running example (Figure 2a): Bell state creation with a phase
 * damping channel of strength `gamma` on qubit 0 between the H and the CNOT.
 */
Circuit noisyBellCircuit(double gamma = 0.36);

/** n-qubit GHZ state (|0..0> + |1..1>)/sqrt(2). */
Circuit ghzCircuit(std::size_t numQubits);

/**
 * Grover search over n in [2, 4] qubits for `marked`. n = 4 uses one clean
 * ancilla for the multi-controlled Z (total qubits = n + (n == 4 ? 1 : 0)).
 * `iterations` defaults to the optimal floor(pi/4 * sqrt(2^n)).
 * The first n qubits measure to `marked` with high probability.
 */
Circuit groverCircuit(std::size_t n, std::uint64_t marked, int iterations = -1);

/**
 * Shor order finding for N = 15 with coprime base a in
 * {2, 4, 7, 8, 11, 13, 14}, using `counting` phase-estimation qubits
 * (Vandersypen-style compiled modular multiplication: rotations and
 * complements of the 4-bit target register).
 *
 * Qubits [0, counting) hold the phase estimate (inverse-QFT'd); qubits
 * [counting, counting+4) hold the work register initialized to |0001>.
 * The counting register measures to m with m/2^counting ~ k/r for the
 * multiplicative order r of a mod 15.
 */
Circuit shorOrderFindingCircuit(std::size_t counting, unsigned a);

/**
 * GRCS-style random circuit sampling workload on a rows x cols qubit grid
 * (paper Figure 6's unstructured workload): a layer of H, then `depth`
 * layers alternating CZ patterns with random single-qubit gates drawn from
 * {sqrt(X), sqrt(Y), T}.
 */
Circuit rcsCircuit(std::size_t rows, std::size_t cols, std::size_t depth,
                   Rng& rng);

} // namespace qkc

#endif // QKC_ALGORITHMS_ALGORITHMS_H
