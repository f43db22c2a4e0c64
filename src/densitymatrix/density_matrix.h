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
 *   - A wire run — the one-qubit gates and channels on a wire between two
 *     multi-qubit ops — is one kernel: the product of its superoperators
 *     (U (x) conj(U) per gate, S = sum_k E_k (x) conj(E_k) per channel) on
 *     the qubit's row bit then column bit, a single 4x4 sweep in place
 *     whatever its length and Kraus counts. A run of gates whose product is
 *     a permutation (X, Y) keeps the row/column pair below instead: a
 *     2-target permutation kernel has no cache-blocked sweep.
 *   - A diagonal run of gates (preparePlan, exec/execution_plan.h) is
 *     one DiagRun kernel: rho(r, c) *= D(r) conj(D(c)), one sweep.
 *   - A multi-qubit gate is a left/right kernel pair: U rho = kernel(U) on
 *     the high bits, rho U^dagger = kernel(conj(U)) on the low bits. Both
 *     sweeps inherit the kernel specialization (a CZ left-apply is a masked
 *     sign flip, not a 4x4 multiply).
 *   - A multi-qubit channel is one kernel: its Liouville superoperator on
 *     its row bits then column bits (16x16 for two qubits), so the whole
 *     Kraus sum is a single sweep — no copy of rho, no accumulator.
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

    /** Such kernels in order, as one applyKernels call (block runs). */
    void apply(const std::vector<const GateKernel*>& kernels);

    /**
     * Lowers the ops at `run` in `circuit` — one multi-qubit op, or a run
     * of one-qubit gates and channels on one wire, first-applied first —
     * to the kernels that apply them to rho, in order (see the class
     * comment). The dm execution plan (densitymatrix_simulator.h) lowers
     * every binding with this.
     */
    static std::vector<GateKernel> compileRun(
        const Circuit& circuit, const std::vector<std::size_t>& run);

    /**
     * The factors of rho <- D rho D^dagger for the diagonal run of gates
     * at `run`: each gate's diagonal on its row bits, then its conjugate
     * on its column bits. compileDiagRun (exec/gate_kernels.h) makes them
     * one sweep of rho.
     */
    static std::vector<DiagFactor> diagRunFactors(
        const Circuit& circuit, const std::vector<std::size_t>& run);

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
