#ifndef QKC_CIRCUIT_NOISE_H
#define QKC_CIRCUIT_NOISE_H

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace qkc {

/**
 * The canonical single-qubit noise models of the paper's Table 1
 * (Nielsen & Chuang chapter 8.3).
 *
 * "Mixtures" (bit flip, phase flip, depolarizing) are probabilistic
 * ensembles of unitaries — every Kraus operator is sqrt(p_k) * U_k — and can
 * be simulated by stochastic state-vector trajectories. "Channels"
 * (amplitude damping, phase damping, generalized amplitude damping) have
 * non-unitary Kraus operators and classically require the density matrix
 * representation; the knowledge-compilation pipeline handles both uniformly
 * by attaching a spurious-measurement random variable (Section 3.1.2).
 */
enum class NoiseKind {
    BitFlip,                      ///< (1-p) I rho I + p X rho X
    PhaseFlip,                    ///< (1-p) I rho I + p Z rho Z
    Depolarizing,                 ///< symmetric: p/3 chance of each Pauli
    AsymmetricDepolarizing,       ///< independent pX, pY, pZ
    AmplitudeDamping,             ///< T1-type relaxation, strength gamma
    PhaseDamping,                 ///< T2-type dephasing, strength gamma
    GeneralizedAmplitudeDamping,  ///< finite-temperature damping (gamma, p)
    TwoQubitDepolarizing,         ///< correlated: each non-II Pauli pair p/15
};

/** The facts of one noise kind that do not depend on its parameters. */
struct NoiseInfo {
    NoiseKind kind;
    const char* tag;    ///< QASM comment tag, e.g. "depolarizing"
    const char* name;   ///< display prefix, e.g. "Depol"
    std::size_t qubits;
    std::size_t params; ///< scalar parameters, in the factory's order
};

/** One row per NoiseKind, in enum order. */
inline constexpr NoiseInfo kNoiseInfo[] = {
    {NoiseKind::BitFlip, "bitflip", "BitFlip", 1, 1},
    {NoiseKind::PhaseFlip, "phaseflip", "PhaseFlip", 1, 1},
    {NoiseKind::Depolarizing, "depolarizing", "Depol", 1, 1},
    {NoiseKind::AsymmetricDepolarizing, "adepolarizing", "ADepol", 1, 3},
    {NoiseKind::AmplitudeDamping, "ampdamp", "AmpDamp", 1, 1},
    {NoiseKind::PhaseDamping, "phasedamp", "PhaseDamp", 1, 1},
    {NoiseKind::GeneralizedAmplitudeDamping, "gad", "GAD", 1, 2},
    {NoiseKind::TwoQubitDepolarizing, "depol2q", "Depol2Q", 2, 1},
};

constexpr const NoiseInfo&
noiseInfo(NoiseKind kind)
{
    return kNoiseInfo[static_cast<std::size_t>(kind)];
}

/** A channel's scalar parameters, held inline (at most three). */
struct NoiseParams {
    std::array<double, 3> values{};
    std::size_t count = 0;

    std::size_t size() const { return count; }
    double operator[](std::size_t i) const { return values[i]; }
    const double* begin() const { return values.data(); }
    const double* end() const { return values.data() + count; }
};

/**
 * A noise operation attached to one or two qubits at one point in the
 * circuit, defined by its Kraus operator decomposition.
 */
class NoiseChannel {
  public:
    static NoiseChannel bitFlip(std::size_t qubit, double p);
    static NoiseChannel phaseFlip(std::size_t qubit, double p);
    /** Symmetric depolarizing: each of X, Y, Z occurs with probability p/3. */
    static NoiseChannel depolarizing(std::size_t qubit, double p);
    static NoiseChannel asymmetricDepolarizing(std::size_t qubit, double pX,
                                               double pY, double pZ);
    static NoiseChannel amplitudeDamping(std::size_t qubit, double gamma);
    static NoiseChannel phaseDamping(std::size_t qubit, double gamma);
    static NoiseChannel generalizedAmplitudeDamping(std::size_t qubit,
                                                    double gamma, double p);

    /**
     * Correlated two-qubit depolarizing: with probability p one of the 15
     * non-identity two-qubit Paulis is applied (p/15 each). Models
     * crosstalk after two-qubit gates, which independent one-qubit
     * channels cannot express.
     */
    static NoiseChannel twoQubitDepolarizing(std::size_t qubitA,
                                             std::size_t qubitB, double p);

    /**
     * The channel of `kind` on `qubits` with `params`, in the order the
     * named factory above takes them; the named factories call this.
     * Throws std::invalid_argument when the counts differ from
     * noiseInfo(kind), a parameter lies outside [0, 1], the two qubits
     * coincide, or pX+pY+pZ > 1.
     */
    static NoiseChannel make(NoiseKind kind,
                             const std::vector<std::size_t>& qubits,
                             const std::vector<double>& params);

    NoiseKind kind() const { return kind_; }

    /** The operand qubits (size 1 or 2). */
    const std::vector<std::size_t>& qubits() const { return qubits_; }
    std::size_t arity() const { return qubits_.size(); }

    /** The single operand of a one-qubit channel. */
    std::size_t qubit() const { return qubits_.front(); }

    /** The parameters the channel was built from (see make). */
    const NoiseParams& params() const { return params_; }

    /** Kraus operators E_k with sum_k E_k^dagger E_k = I. */
    const std::vector<Matrix>& krausOperators() const { return kraus_; }

    /**
     * True if every Kraus operator is a scaled unitary, i.e. the channel is
     * a probabilistic mixture of unitaries and admits trajectory simulation
     * on state vectors (Table 1's "Sim. technique" row).
     */
    bool isMixture() const;

    /** The kind's display name and its parameters, e.g. "Depol(0.005)". */
    std::string name() const;

  private:
    NoiseChannel() = default;

    NoiseKind kind_ = NoiseKind::BitFlip;
    std::vector<std::size_t> qubits_;
    std::vector<Matrix> kraus_;
    NoiseParams params_;
};

} // namespace qkc

#endif // QKC_CIRCUIT_NOISE_H
