#ifndef QKC_DENSITYMATRIX_DENSITY_MATRIX_H
#define QKC_DENSITYMATRIX_DENSITY_MATRIX_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
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

    /** One sweep of a kernel compiled on rho's flat 2n-bit index. */
    void apply(const GateKernel& k);

    /**
     * Lowers one circuit operation to the kernels that apply it to an
     * n-qubit rho, in order: a gate's left/right pair, or a channel's one
     * superoperator kernel. The dm execution plan
     * (densitymatrix_simulator.h) compiles each structure once with this.
     */
    static std::vector<GateKernel> compileOp(const Operation& op,
                                             std::size_t numQubits);

    /**
     * Refreshes compileOp's kernels for a same-structure operation without
     * re-classification (see tryRefreshKernel). Returns false when a new
     * value leaves a stored class — e.g. a channel planned at strength 0
     * (Identity) rebound to a non-zero strength.
     */
    static bool tryRefreshOp(std::vector<GateKernel>& kernels,
                             const Operation& op);

    /** Tr(rho). */
    Complex trace() const;

    /** Measurement probabilities: the (real parts of the) diagonal. */
    std::vector<double> diagonalProbabilities() const;

  private:
    std::size_t numQubits_;
    std::size_t dim_;
    AmpVector data_; ///< row-major rho, 64-byte aligned like every amp buffer
    ExecPolicy policy_;
};

} // namespace qkc

#endif // QKC_DENSITYMATRIX_DENSITY_MATRIX_H
