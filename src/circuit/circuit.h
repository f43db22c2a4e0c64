#ifndef QKC_CIRCUIT_CIRCUIT_H
#define QKC_CIRCUIT_CIRCUIT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "circuit/gate.h"
#include "circuit/noise.h"

namespace qkc {

/** One time-ordered circuit element: a unitary gate or a noise channel. */
using Operation = std::variant<Gate, NoiseChannel>;

/** The wires a gate or channel acts on, first operand first. */
inline const std::vector<std::size_t>&
operandsOf(const Operation& op)
{
    if (const Gate* g = std::get_if<Gate>(&op))
        return g->qubits();
    return std::get<NoiseChannel>(op).qubits();
}

/**
 * A quantum circuit: a fixed number of qubits (all initialized to |0>) and a
 * time-ordered list of gates and noise channels. All qubits are measured in
 * the computational basis at the end; mid-circuit measurement is expressed
 * via the deferred-measurement principle (controlled operations), as the
 * paper does when it rewrites noise channels as spurious measurements
 * (Figure 2b).
 *
 * Bit-ordering convention (matches Cirq): qubit 0 is the MOST significant
 * bit of a basis-state index, so |q0 q1 ... q_{n-1}> has index
 * sum_i q_i << (n-1-i).
 */
class Circuit {
  public:
    explicit Circuit(std::size_t numQubits);

    std::size_t numQubits() const { return numQubits_; }
    const std::vector<Operation>& operations() const { return ops_; }
    std::size_t size() const { return ops_.size(); }

    /** Number of unitary gates (noise channels excluded). */
    std::size_t gateCount() const;

    /** Number of noise channels. */
    std::size_t noiseCount() const;

    void append(Gate gate);
    void append(NoiseChannel channel);

    /** Appends every operation of `other` (qubit counts must match). */
    void extend(const Circuit& other);

    // -- Fluent gate helpers -------------------------------------------------
    Circuit& i(std::size_t q) { return add(GateKind::I, {q}); }
    Circuit& x(std::size_t q) { return add(GateKind::X, {q}); }
    Circuit& y(std::size_t q) { return add(GateKind::Y, {q}); }
    Circuit& z(std::size_t q) { return add(GateKind::Z, {q}); }
    Circuit& h(std::size_t q) { return add(GateKind::H, {q}); }
    Circuit& s(std::size_t q) { return add(GateKind::S, {q}); }
    Circuit& sdg(std::size_t q) { return add(GateKind::Sdg, {q}); }
    Circuit& t(std::size_t q) { return add(GateKind::T, {q}); }
    Circuit& tdg(std::size_t q) { return add(GateKind::Tdg, {q}); }
    Circuit& rx(std::size_t q, double theta) { return add(GateKind::Rx, {q}, theta); }
    Circuit& ry(std::size_t q, double theta) { return add(GateKind::Ry, {q}, theta); }
    Circuit& rz(std::size_t q, double theta) { return add(GateKind::Rz, {q}, theta); }
    Circuit& phase(std::size_t q, double theta) { return add(GateKind::PhaseZ, {q}, theta); }
    Circuit& cnot(std::size_t c, std::size_t t) { return add(GateKind::CNOT, {c, t}); }
    Circuit& cz(std::size_t a, std::size_t b) { return add(GateKind::CZ, {a, b}); }
    Circuit& swap(std::size_t a, std::size_t b) { return add(GateKind::SWAP, {a, b}); }
    Circuit& crz(std::size_t c, std::size_t t, double theta) { return add(GateKind::CRz, {c, t}, theta); }
    Circuit& cphase(std::size_t c, std::size_t t, double theta) { return add(GateKind::CPhase, {c, t}, theta); }
    Circuit& zz(std::size_t a, std::size_t b, double theta) { return add(GateKind::ZZ, {a, b}, theta); }
    Circuit& ccx(std::size_t a, std::size_t b, std::size_t t) { return add(GateKind::CCX, {a, b, t}); }
    Circuit& ccz(std::size_t a, std::size_t b, std::size_t c) { return add(GateKind::CCZ, {a, b, c}); }
    Circuit& cswap(std::size_t c, std::size_t a, std::size_t b) { return add(GateKind::CSWAP, {c, a, b}); }

    /**
     * Inserts `channel` after every existing gate on that gate's qubits —
     * the paper's noisy-circuit construction ("0.5% symmetric depolarizing
     * after each gate"). Returns a new circuit; the original is untouched.
     */
    Circuit withNoiseAfterEachGate(NoiseKind kind, double p) const;

    /**
     * Returns mutable access to gate parameters: indices of parameterized
     * gates in operation order. Used with setGateParam to sweep variational
     * parameters on a fixed structure.
     */
    std::vector<std::size_t> parameterizedGateIndices() const;

    /** Updates the angle of the gate at operation index `opIndex`. */
    void setGateParam(std::size_t opIndex, double theta);

    /** Multi-line ASCII rendering for debugging and examples. */
    std::string toString() const;

  private:
    Circuit& add(GateKind kind, std::vector<std::size_t> qubits,
                 double param = 0.0);
    void checkQubits(const std::vector<std::size_t>& qubits) const;

    std::size_t numQubits_;
    std::vector<Operation> ops_;
};

/** Index of basis state |q0 q1 ... q_{n-1}> given per-qubit bits. */
std::uint64_t basisIndex(const std::vector<int>& bits);

/** Per-qubit bits of a basis-state index (qubit 0 = most significant). */
std::vector<int> basisBits(std::uint64_t index, std::size_t numQubits);

/** Formats a basis index as a ket string, e.g. |0110>. */
std::string basisKet(std::uint64_t index, std::size_t numQubits);

} // namespace qkc

#endif // QKC_CIRCUIT_CIRCUIT_H
