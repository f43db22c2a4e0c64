#ifndef QKC_VQA_PAULI_H
#define QKC_VQA_PAULI_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"

namespace qkc {

/**
 * A Pauli string observable, e.g. "XZIY": one Pauli per qubit (I for
 * untouched qubits). Generalizes the diagonal Ising objectives the paper's
 * VQE uses. This is a pure observable library — how a value is *obtained*
 * (natively by a backend session's Expectation task, or estimated from
 * shots in a rotated basis) lives in the simulator API, not here.
 */
class PauliString {
  public:
    /** Parses "XZIY"-style text (characters I, X, Y, Z). */
    explicit PauliString(const std::string& text);

    std::size_t numQubits() const { return paulis_.size(); }
    const std::string& text() const { return text_; }

    /** The Pauli on `qubit` ('I', 'X', 'Y' or 'Z'). */
    char pauli(std::size_t qubit) const { return paulis_[qubit]; }

    /** True if the string is all I/Z (directly measurable). */
    bool isDiagonal() const;

    /** True if the string is all I (a constant observable). */
    bool isIdentity() const;

    /**
     * Returns `circuit` extended with the basis-change gates that map this
     * observable's eigenbasis onto the computational basis (H for X,
     * Sdg then H for Y).
     */
    Circuit withMeasurementBasis(const Circuit& circuit) const;

    /** Eigenvalue (+1/-1) of a post-rotation measurement outcome. */
    int eigenvalue(std::uint64_t outcome) const;

    /** Mean eigenvalue over post-rotation samples. */
    double expectationFromSamples(
        const std::vector<std::uint64_t>& samples) const;

  private:
    std::string text_;
    std::vector<char> paulis_;
};

/**
 * A weighted sum of Pauli strings H = sum_j c_j P_j — a general qubit
 * Hamiltonian, and the payload of the simulator API's Expectation task.
 * Backends that can evaluate <H> exactly (state vector, density matrix,
 * decision diagram, knowledge compilation on ideal circuits) do so
 * natively; the rest estimate it term by term from rotated-basis shots.
 */
struct PauliSum {
    std::vector<std::pair<double, PauliString>> terms;

    PauliSum& add(double coeff, PauliString pauli)
    {
        terms.emplace_back(coeff, std::move(pauli));
        return *this;
    }

    /** Qubit count of the first term (0 when empty; terms must agree). */
    std::size_t numQubits() const
    {
        return terms.empty() ? 0 : terms.front().second.numQubits();
    }

    /** True if every term is all I/Z (computational-basis measurable). */
    bool isDiagonal() const;
};

} // namespace qkc

#endif // QKC_VQA_PAULI_H
