#ifndef QKC_STATEVECTOR_STATE_VECTOR_H
#define QKC_STATEVECTOR_STATE_VECTOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/gate_kernels.h"
#include "exec/thread_pool.h"
#include "linalg/aligned.h"
#include "linalg/matrix.h"
#include "linalg/types.h"

namespace qkc {

/**
 * Dense 2^n complex state vector with in-place gate application kernels.
 *
 * This is the storage-heavy representation the paper's qsim baseline uses
 * (Section 4.1): every simulation run touches all 2^n amplitudes, which is
 * exactly the cost profile Figure 8 measures against knowledge compilation.
 *
 * Gate application goes through the exec kernel layer: the matrix is
 * classified (diagonal / permutation / controlled / generic) and the sweep
 * is parallelized on the shared thread pool per the instance's ExecPolicy.
 * All kernels and reductions are deterministic — a 1-thread and an N-thread
 * run produce bit-identical amplitudes.
 *
 * Bit convention matches Circuit: qubit 0 is the most significant bit of the
 * basis index.
 */
class StateVector {
  public:
    /**
     * Initializes |00...0> under `policy`: the buffer is allocated without
     * a serial zero fill, and reset() fills it in parallel, so each page is
     * first touched by a pool lane.
     */
    explicit StateVector(std::size_t numQubits,
                         const ExecPolicy& policy = ExecPolicy{});

    /**
     * Returns the state to |00...0> in place (a parallel zero fill under
     * the state's ExecPolicy): re-running a circuit reuses the buffer
     * instead of allocating a new 2^n one.
     */
    void reset();

    std::size_t numQubits() const { return numQubits_; }
    std::size_t dimension() const { return amps_.size(); }

    const Complex& amplitude(std::uint64_t basis) const { return amps_[basis]; }
    Complex& amplitude(std::uint64_t basis) { return amps_[basis]; }
    /** 64-byte-aligned amplitude buffer (cache-line and zmm aligned). */
    const AmpVector& amplitudes() const { return amps_; }
    Complex* data() { return amps_.data(); }
    const Complex* data() const { return amps_.data(); }

    /** Threading/fusion knobs used by every kernel sweep on this state. */
    const ExecPolicy& execPolicy() const { return policy_; }
    void setExecPolicy(const ExecPolicy& policy) { policy_ = policy; }

    /** Applies a 2x2 matrix (not necessarily unitary) to one qubit. */
    void applySingleQubit(const Matrix& m, std::size_t qubit);

    /** Applies a 4x4 matrix to (q0=high bit, q1=low bit of the local index). */
    void applyTwoQubit(const Matrix& m, std::size_t q0, std::size_t q1);

    /**
     * Applies a pre-compiled kernel, optionally pre-scaled: the trajectory
     * simulator passes 1/sqrt(w) so Born renormalization after a Kraus pick
     * costs no extra pass over the state.
     */
    void apply(const GateKernel& kernel,
               const Complex& preScale = Complex{1.0, 0.0});

    /** ||K psi||^2 without modifying the state (Born weights of Kraus picks). */
    double normAfter(const GateKernel& kernel) const;

    /** Bit position of `qubit` in a basis index (qubit 0 = MSB). */
    std::uint32_t bitOf(std::size_t qubit) const
    {
        return static_cast<std::uint32_t>(numQubits_ - 1 - qubit);
    }

    /** Sum of |amplitude|^2 (1.0 for normalized states). */
    double norm() const;

    /** Scales all amplitudes by 1/sqrt(norm()). Requires norm() > 0. */
    void normalize();

    /** Probability of each basis outcome (|amp|^2). */
    std::vector<double> probabilities() const;

  private:
    std::size_t numQubits_;
    AmpVector amps_;
    ExecPolicy policy_;
};

} // namespace qkc

#endif // QKC_STATEVECTOR_STATE_VECTOR_H
