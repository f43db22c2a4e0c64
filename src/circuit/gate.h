#ifndef QKC_CIRCUIT_GATE_H
#define QKC_CIRCUIT_GATE_H

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace qkc {

/**
 * Gate vocabulary. The set mirrors what the paper's workloads need: the
 * Clifford+T basics for the validation algorithm suite (Deutsch-Jozsa ...
 * Shor), parameterized rotations for the variational workloads (QAOA / VQE),
 * and escape hatches (Custom1Q / Custom2Q) for arbitrary unitaries such as
 * the GRCS random-circuit gates.
 */
enum class GateKind {
    I,
    X,
    Y,
    Z,
    H,
    S,
    Sdg,
    T,
    Tdg,
    Rx,       ///< exp(-i theta X / 2)
    Ry,       ///< exp(-i theta Y / 2)
    Rz,       ///< exp(-i theta Z / 2)
    PhaseZ,   ///< diag(1, e^{i theta})
    CNOT,
    CZ,
    SWAP,
    CRz,      ///< controlled Rz(theta)
    CPhase,   ///< controlled diag(1, e^{i theta})
    ZZ,       ///< exp(-i theta Z(x)Z / 2), the QAOA phase separator
    CCX,      ///< Toffoli
    CCZ,
    CSWAP,    ///< Fredkin
    Custom1Q,
    Custom2Q,
};

/**
 * The facts of one gate kind that do not depend on its angle. `qasm` is the
 * qelib1 spelling, or null for the kinds QASM 2.0 cannot spell directly
 * (CCZ is written as h+ccx+h; custom unitaries are rejected).
 */
struct GateInfo {
    GateKind kind;
    const char* name;     ///< display mnemonic, e.g. "CNOT", "Rz"
    const char* qasm;     ///< e.g. "cx", "rz"; null if none
    std::size_t arity;
    bool parameterized;   ///< takes a rotation angle
    bool diagonal;        ///< diagonal unitary at every angle
};

/** One row per GateKind, in enum order. */
inline constexpr GateInfo kGateInfo[] = {
    {GateKind::I, "I", "id", 1, false, false},
    {GateKind::X, "X", "x", 1, false, false},
    {GateKind::Y, "Y", "y", 1, false, false},
    {GateKind::Z, "Z", "z", 1, false, true},
    {GateKind::H, "H", "h", 1, false, false},
    {GateKind::S, "S", "s", 1, false, true},
    {GateKind::Sdg, "Sdg", "sdg", 1, false, true},
    {GateKind::T, "T", "t", 1, false, true},
    {GateKind::Tdg, "Tdg", "tdg", 1, false, true},
    {GateKind::Rx, "Rx", "rx", 1, true, false},
    {GateKind::Ry, "Ry", "ry", 1, true, false},
    {GateKind::Rz, "Rz", "rz", 1, true, true},
    {GateKind::PhaseZ, "P", "u1", 1, true, true},
    {GateKind::CNOT, "CNOT", "cx", 2, false, false},
    {GateKind::CZ, "CZ", "cz", 2, false, true},
    {GateKind::SWAP, "SWAP", "swap", 2, false, false},
    {GateKind::CRz, "CRz", "crz", 2, true, true},
    {GateKind::CPhase, "CP", "cu1", 2, true, true},
    {GateKind::ZZ, "ZZ", "rzz", 2, true, true},
    {GateKind::CCX, "CCX", "ccx", 3, false, false},
    {GateKind::CCZ, "CCZ", nullptr, 3, false, false},
    {GateKind::CSWAP, "CSWAP", "cswap", 3, false, false},
    {GateKind::Custom1Q, "U", nullptr, 1, false, false},
    {GateKind::Custom2Q, "U", nullptr, 2, false, false},
};

constexpr const GateInfo&
gateInfo(GateKind kind)
{
    return kGateInfo[static_cast<std::size_t>(kind)];
}

/**
 * A quantum gate instance: a kind, the qubits it acts on (qubits[0] is the
 * most significant bit of the gate's local basis index; controls precede
 * targets), an optional rotation angle, and, for Custom*, an explicit
 * unitary.
 */
class Gate {
  public:
    Gate(GateKind kind, std::vector<std::size_t> qubits, double param = 0.0);

    /** Builds a custom gate from an explicit unitary (2x2 or 4x4). */
    static Gate custom(std::vector<std::size_t> qubits, Matrix unitary,
                       std::string label = "U");

    /**
     * custom() for a product of gates, unitary by construction (fusion's
     * output): the unitarity check is a debug-build assertion only.
     */
    static Gate product(std::vector<std::size_t> qubits, Matrix unitary,
                        std::string label);

    GateKind kind() const { return kind_; }
    const std::vector<std::size_t>& qubits() const { return qubits_; }
    std::size_t arity() const { return qubits_.size(); }
    double param() const { return param_; }

    /**
     * Replaces the rotation angle. Only meaningful for parameterized kinds;
     * used by the variational drivers to sweep circuit parameters without
     * rebuilding the circuit.
     */
    void setParam(double param) { param_ = param; }

    /** True for Rx/Ry/Rz/PhaseZ/CRz/CPhase/ZZ. */
    bool isParameterized() const { return gateInfo(kind_).parameterized; }

    /**
     * True for the kinds whose unitary is diagonal at every angle:
     * Z/S/Sdg/T/Tdg/Rz/PhaseZ and the two-qubit CZ/CRz/CPhase/ZZ. Decided
     * by kind alone, so fusion's diagonal runs are structural.
     */
    bool isDiagonal() const { return gateInfo(kind_).diagonal; }

    /** The full 2^arity x 2^arity unitary in the gate's local basis. */
    Matrix unitary() const;

    /** Short mnemonic, e.g. "H", "CNOT", "Rz(0.500)". */
    std::string name() const;

  private:
    GateKind kind_;
    std::vector<std::size_t> qubits_;
    double param_ = 0.0;
    Matrix custom_;
    std::string label_;
};

} // namespace qkc

#endif // QKC_CIRCUIT_GATE_H
