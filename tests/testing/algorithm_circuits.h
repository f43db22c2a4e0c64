#ifndef QKC_TESTS_TESTING_ALGORITHM_CIRCUITS_H
#define QKC_TESTS_TESTING_ALGORITHM_CIRCUITS_H

#include <cstdint>

#include "circuit/circuit.h"

namespace qkc::testing {

/**
 * The paper's algorithm validation suite beyond what the drivers run
 * (Sections 3.2.3 and 3.3.1): Bell / CHSH / teleportation basics, the
 * oracle algorithms (Deutsch-Jozsa, Bernstein-Vazirani, Simon, hidden
 * shift), QFT, phase estimation and the W state. Every factory returns a
 * pure-gate circuit and documents the expected measurement outcome the
 * tests check.
 */

/** 2-qubit Bell state (|00> + |11>)/sqrt(2). */
Circuit bellCircuit();

/**
 * CHSH protocol circuit: Bell pair, then measurement-basis rotations
 * Ry(-thetaA) on qubit 0 and Ry(-thetaB) on qubit 1. The Z x Z correlation
 * of the output equals cos(thetaA - thetaB).
 */
Circuit chshCircuit(double thetaA, double thetaB);

/**
 * Quantum teleportation of the state Ry(theta)|0> from qubit 0 to qubit 2
 * with deferred-measurement corrections. The marginal distribution of qubit
 * 2 is {cos^2(theta/2), sin^2(theta/2)}.
 */
Circuit teleportationCircuit(double theta);

/**
 * Deutsch-Jozsa on n input qubits + 1 ancilla. If `balancedMask` is zero the
 * oracle is constant; otherwise f(x) = parity(x & balancedMask) (balanced).
 * Measuring the first n qubits yields all zeros iff the oracle is constant.
 */
Circuit deutschJozsaCircuit(std::size_t n, std::uint64_t balancedMask);

/**
 * Bernstein-Vazirani on n input qubits + 1 ancilla with hidden string `a`
 * (bit i of `a` = qubit i, qubit 0 most significant). The first n qubits
 * measure to exactly `a`.
 */
Circuit bernsteinVaziraniCircuit(std::size_t n, std::uint64_t a);

/**
 * Simon's problem on 2n qubits with hidden period `s` != 0. Measuring the
 * first n qubits yields y with y . s = 0 (mod 2), uniformly over that
 * subspace.
 */
Circuit simonCircuit(std::size_t n, std::uint64_t s);

/**
 * Hidden shift for the Maiorana-McFarland bent function
 * f(x) = XOR_i x_{2i} x_{2i+1} on n qubits (n even) with shift `s`.
 * Measures to exactly `s`.
 */
Circuit hiddenShiftCircuit(std::size_t n, std::uint64_t s);

/** Quantum Fourier transform on n qubits (includes the final swaps). */
Circuit qftCircuit(std::size_t n);

/** Inverse QFT on n qubits. */
Circuit inverseQftCircuit(std::size_t n);

/**
 * Quantum phase estimation of the single-qubit phase gate U = P(2 pi phi)
 * on its eigenstate |1>, with `counting` estimation qubits. The counting
 * register (qubits [0, counting)) measures to m with m / 2^counting ~ phi;
 * exact when phi is a multiple of 1 / 2^counting.
 */
Circuit phaseEstimationCircuit(std::size_t counting, double phi);

/**
 * n-qubit W state (uniform superposition of all weight-1 basis strings),
 * built with the cascade of controlled rotations; exercises the dense
 * two-qubit chain-rule encoding in the Bayesian-network front-end.
 */
Circuit wStateCircuit(std::size_t n);

/** Multiplicative order of a modulo n (brute force). */
unsigned multiplicativeOrder(unsigned a, unsigned n);

} // namespace qkc::testing

#endif // QKC_TESTS_TESTING_ALGORITHM_CIRCUITS_H
