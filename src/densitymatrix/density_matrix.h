#ifndef QKC_DENSITYMATRIX_DENSITY_MATRIX_H
#define QKC_DENSITYMATRIX_DENSITY_MATRIX_H

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
 * Dense 2^n x 2^n density matrix with local-operator application kernels.
 *
 * This is the representation behind the Cirq density-matrix baseline the
 * paper benchmarks in Figure 9: quadratic storage in the state-vector size
 * and matrix-matrix (rather than matrix-vector) update cost, which is why
 * knowledge compilation breaks even at fewer qubits in the noisy case.
 *
 * Superoperator application reuses the exec gate kernels on the flattened
 * index space: rho is stored row-major, so flat(r, c) = r * 2^n + c and the
 * row/column index spaces are just the high/low n bits of a 2n-bit index.
 *
 *   - A gate is a left/right kernel pair: U rho = kernel(U) on the high
 *     bits, rho U^dagger = kernel(conj(U)) on the low bits. Both sweeps
 *     inherit the kernel specialization (a CZ left-apply is a masked sign
 *     flip, not a 4x4 multiply).
 *   - A channel is one kernel: its Liouville superoperator
 *     S = sum_k E_k (x) conj(E_k) on the channel's row bits then column
 *     bits (4x4 for one qubit, 16x16 for two), so the whole Kraus sum is a
 *     single sweep in place — no copy of rho, no accumulator.
 *
 * Every sweep runs on the shared pool with deterministic chunking, and
 * rho is the only 4^n buffer.
 *
 * rho index convention matches Circuit (qubit 0 is the most significant bit
 * of a row/column index).
 */
class DensityMatrix {
  public:
    /**
     * Kernels for one conjugation rho <- M rho M^dagger: `left` acts on the
     * row bits (flat positions + n), `right` is conj(M) on the column bits.
     * Compiled once per circuit structure by the dm execution plan (see
     * densitymatrix_simulator.h) and refreshed in place across parameter
     * rebinds.
     */
    struct SuperKernel {
        GateKernel left;
        GateKernel right;
    };

    /** Initializes |0...0><0...0|. */
    explicit DensityMatrix(std::size_t numQubits);

    /** Returns to |0...0><0...0| in place, keeping the buffer. */
    void reset();

    std::size_t numQubits() const { return numQubits_; }
    std::size_t dimension() const { return dim_; }

    /** Threading knobs for every superoperator sweep on this matrix. */
    const ExecPolicy& execPolicy() const { return policy_; }
    void setExecPolicy(const ExecPolicy& policy) { policy_ = policy; }

    Complex& at(std::uint64_t row, std::uint64_t col)
    {
        return data_[row * dim_ + col];
    }
    const Complex& at(std::uint64_t row, std::uint64_t col) const
    {
        return data_[row * dim_ + col];
    }

    /** rho <- U rho U^dagger for a single-qubit unitary on `qubit`. */
    void applyUnitarySingle(const Matrix& u, std::size_t qubit);

    /** rho <- U rho U^dagger for a two-qubit unitary (q0 high, q1 low). */
    void applyUnitaryTwo(const Matrix& u, std::size_t q0, std::size_t q1);

    /** rho <- U rho U^dagger for a three-qubit unitary. */
    void applyUnitaryThree(const Matrix& u, std::size_t q0, std::size_t q1,
                           std::size_t q2);

    /** rho <- U rho U^dagger for a 1-3 qubit unitary. */
    void applyUnitary(const Matrix& u, const std::vector<std::size_t>& qubits);

    /** rho <- sum_k E_k rho E_k^dagger for a single-qubit channel. */
    void applyChannelSingle(const std::vector<Matrix>& kraus, std::size_t qubit);

    /** rho <- sum_k E_k rho E_k^dagger for a one- or two-qubit channel:
     *  compiles the superoperator, then one sweep. */
    void applyChannel(const std::vector<Matrix>& kraus,
                      const std::vector<std::size_t>& qubits);

    /**
     * Compiles the left/right kernel pair for M acting on `qubits` of an
     * n-qubit density matrix — the classification work applyUnitary pays
     * per call, exposed so an execution plan can pay it once per structure.
     */
    static SuperKernel compileSuperKernel(const Matrix& m,
                                          const std::vector<std::size_t>& qubits,
                                          std::size_t numQubits);

    /**
     * Refreshes a compiled pair for a new matrix on the same qubits without
     * re-classification (the variational fast path; see tryRefreshKernel).
     * Returns false — pair unmodified on the left side only at worst — when
     * the new matrix no longer fits the stored kernel classes.
     */
    static bool tryRefreshSuperKernel(SuperKernel& k, const Matrix& m);

    /** rho <- M rho M^dagger via a precompiled pair. */
    void applySuper(const SuperKernel& k);

    /**
     * Compiles the Liouville superoperator of the channel with Kraus
     * operators `kraus` on `qubits` (one or two) into one kernel on the
     * row bits (2n-1-q) followed by the column bits (n-1-q).
     */
    static GateKernel compileChannelKernel(const std::vector<Matrix>& kraus,
                                           const std::vector<std::size_t>& qubits,
                                           std::size_t numQubits);

    /**
     * Refreshes a compiled channel kernel for new Kraus operators on the
     * same qubits (see tryRefreshKernel). Returns false, kernel unmodified,
     * when the new superoperator leaves the stored class — e.g. a channel
     * planned at strength 0 (Identity) rebound to a non-zero strength.
     */
    static bool tryRefreshChannelKernel(GateKernel& k,
                                        const std::vector<Matrix>& kraus);

    /** rho <- sum_k E_k rho E_k^dagger via a precompiled channel kernel. */
    void applyChannelKernel(const GateKernel& k);

    /** Tr(rho). */
    Complex trace() const;

    /** Measurement probabilities: the (real parts of the) diagonal. */
    std::vector<double> diagonalProbabilities() const;

    /** Extracts the full matrix (tests / small instances only). */
    Matrix toMatrix() const;

  private:
    std::size_t numQubits_;
    std::size_t dim_;
    AmpVector data_; ///< row-major rho, 64-byte aligned like every amp buffer
    ExecPolicy policy_;
};

} // namespace qkc

#endif // QKC_DENSITYMATRIX_DENSITY_MATRIX_H
