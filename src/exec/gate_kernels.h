#ifndef QKC_EXEC_GATE_KERNELS_H
#define QKC_EXEC_GATE_KERNELS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/thread_pool.h"
#include "linalg/matrix.h"
#include "linalg/types.h"

namespace qkc {

/**
 * One gate of a diagonal run: its diagonal on one or two bit positions
 * (local MSB first), diag[l] for local basis state l.
 */
struct DiagFactor {
    std::uint8_t arity = 1;
    std::array<std::uint32_t, 2> bits{};
    std::array<Complex, 4> diag{};
};

/**
 * A gate, Kraus operator or Liouville superoperator compiled for dense
 * amplitude-array execution — or a diagonal run of gates (Op::DiagRun).
 *
 * The matrix is inspected once per plan — not per application —
 * and lowered to the cheapest kernel class that reproduces it:
 *
 *   - control qubits are stripped greedily: a qubit whose |0> subspace is
 *     untouched and decoupled becomes a bit in `ctrlMask`, halving the
 *     amplitudes the kernel visits (CNOT, CRz, CCX, CSWAP, ... and the
 *     |1>-entry of Z/S/T/Phase all shrink this way);
 *   - the residual operator on the remaining `targets` qubits is classified
 *     as Identity (skip entirely), GlobalPhase (uniform scale), Diag
 *     (elementwise multiply — Z/S/T/Rz/Phase/CZ/ZZ families), Perm (a
 *     weighted permutation — X/Y/CNOT/SWAP/CCX families), or Generic (dense
 *     2^k x 2^k fallback, bit-identical to the pre-kernel code).
 *
 * Kernels address raw `Complex*` arrays via *bit positions* (shift amounts),
 * not qubit numbers, so the same machinery serves the state vector (bit of
 * qubit q = n-1-q) and the density matrix, whose row and column index
 * spaces are just the high and low halves of the flattened 2n-bit index.
 */
struct GateKernel {
    enum class Op : std::uint8_t {
        Identity,    ///< the identity matrix: applying it is a no-op
        GlobalPhase, ///< scalar * identity: one uniform sweep
        Diag,        ///< diagonal residual: multiply, no amplitude mixing
        Perm,        ///< one non-zero per row/col: weighted index shuffle
        Generic,     ///< dense residual matrix fallback
        DiagRun,     ///< product of `factors`' diagonals: one table sweep
    };

    Op op = Op::Generic;

    /** Original operand count (1..4) and residual target count (0..4). A
     *  four-bit kernel is a two-qubit channel's superoperator on its row and
     *  column bits; gates use at most three. */
    std::uint8_t arity = 0;
    std::uint8_t targets = 0;

    /** targets + control bits; the kernel enumerates dim >> occupiedCount
     *  base indices. */
    std::uint8_t occupiedCount = 0;

    /** Bits that must be 1 for the residual operator to act. */
    std::uint64_t ctrlMask = 0;

    /** Residual target bit positions, most-significant local bit first. */
    std::array<std::uint32_t, 4> targetBits{};

    /** Original operand bit positions (reference path), local MSB first. */
    std::array<std::uint32_t, 4> fullBits{};

    /** All occupied bit positions, sorted ascending (for index expansion). */
    std::array<std::uint32_t, 4> occupied{};

    Complex scalar{1.0, 0.0};         ///< GlobalPhase factor
    std::array<Complex, 16> diag{};   ///< Diag entries (2^targets used)
    std::array<std::uint8_t, 16> perm{}; ///< Perm: out[r] = permW[r]*in[perm[r]]
    std::array<Complex, 16> permW{};
    Matrix reduced;                   ///< Generic residual (2^targets square)
    Matrix full;                      ///< the original matrix (not DiagRun)
    std::vector<DiagFactor> factors;  ///< DiagRun: the gates, first-applied first

    /** Kernel-class mnemonic for logs and benches, e.g. "ctrl-perm". */
    const char* className() const;
};

/**
 * Inspects `m` (2^a x 2^a, a = bits.size() in 1..4) acting on the given bit
 * positions (local MSB first) and builds the specialized kernel. Matrices
 * need not be unitary — Kraus operators and channel superoperators classify
 * too (damping E0 is Diag, a phase-flip superoperator is Diag). Execution
 * plans classify every kernel with this.
 */
GateKernel compileKernel(Matrix m, const std::vector<std::uint32_t>& bits);

/**
 * Lowers a run of diagonal gates to one DiagRun kernel: a single sweep
 * multiplies each amplitude by the product of the factors' diagonals. The
 * index splits at bit k = min(12, log2 dim). For each 2^k-amplitude block
 * the sweep builds one table from three parts: the factors on bits below k
 * (one table shared by every block), the factors on bits k and above (one
 * scalar per block), and the mixed two-bit factors, which with their high
 * bit fixed are one-bit diagonals on their low bit (expanded by doubling).
 * One pass over the block then applies the table. The tables are built
 * inside the sweep, never here, and the arithmetic is the four-product
 * complex multiply without FMA in a fixed order, so payloads are
 * bit-identical for every thread count and simd level.
 */
GateKernel compileDiagRun(std::vector<DiagFactor> factors);

/**
 * Applies the kernel in place to `amps[0..dim)`, parallelized per `policy`
 * with deterministic chunking. `preScale` is folded into the kernel's
 * constants before the sweep — the trajectory simulator passes 1/sqrt(w) so
 * Born-normalizing a Kraus pick costs no extra pass over the state.
 */
void applyKernel(const GateKernel& k, Complex* amps, std::uint64_t dim,
                 const ExecPolicy& policy,
                 const Complex& preScale = Complex{1.0, 0.0});

/**
 * Block width of applyKernels' block runs: 2^16 amplitudes, 1 MiB, half of
 * a 2 MiB L2, so a block stays cached while a stretch of kernels sweeps
 * it. Widths 2^14..2^17 sweep a stretch equally fast; the widest that fits
 * takes the most kernels into stretches.
 */
constexpr unsigned kBlockRunBits = 16;

/**
 * Fewest blocks an array must hold before applyKernels forms a block run:
 * fewer would leave pool threads idle, so smaller states keep one sweep
 * per kernel.
 */
constexpr std::uint64_t kBlockRunMinBlocks = 4;

/**
 * True if every bit `k` occupies (targets and controls; a DiagRun's factor
 * bits) lies below kBlockRunBits: the kernels applyKernels may sweep block
 * by block.
 */
bool insideBlockRun(const GateKernel& k);

/**
 * Applies `kernels` in order to `amps[0..dim)`, bit-identical to calling
 * applyKernel on each. A maximal stretch of two or more consecutive
 * kernels whose occupied bits (targets and controls; a DiagRun's factor
 * bits) all lie below kBlockRunBits is a *block run*: the array's
 * 2^kBlockRunBits-amplitude blocks are spread over the pool, and each
 * block runs the stretch's kernels in order on one thread through the
 * per-kernel sweeps, so the stretch costs one pass over memory instead of
 * one per kernel. Block runs form only when the array holds at least
 * kBlockRunMinBlocks blocks. The exec.kernel.* class counters count each
 * kernel once; exec.kernel.blockRuns counts the stretches.
 */
void applyKernels(const std::vector<const GateKernel*>& kernels,
                  Complex* amps, std::uint64_t dim, const ExecPolicy& policy);

/**
 * The gather-only sweep: applyKernel without the cache-blocked/simd run
 * path — one index-gather per residual group, scalar arithmetic, same
 * classification and deterministic chunking. This is the PR 7 execution
 * shape, kept callable as the blocked-vs-unblocked bench baseline (and as
 * the internal fallback for shapes with no run primitive). A DiagRun
 * kernel has one sweep only, the table sweep.
 */
void applyKernelUnblocked(const GateKernel& k, Complex* amps,
                          std::uint64_t dim, const ExecPolicy& policy,
                          const Complex& preScale = Complex{1.0, 0.0});

/**
 * Returns ||K psi||^2 without modifying the state: the squared norm the
 * state would have after applyKernel. One read-only pass (dense full-matrix
 * evaluation per group), deterministic chunk-ordered summation.
 */
double normAfterKernel(const GateKernel& k, const Complex* amps,
                       std::uint64_t dim, const ExecPolicy& policy);

/**
 * The pre-kernel reference path: serial dense application of the full
 * matrix, exactly as the seed StateVector::apply* loops computed it. Used
 * by the kernel-equivalence tests and the micro benchmarks as the baseline.
 * A DiagRun kernel multiplies each amplitude by its factors one at a time.
 */
void applyKernelReference(const GateKernel& k, Complex* amps,
                          std::uint64_t dim);

} // namespace qkc

#endif // QKC_EXEC_GATE_KERNELS_H
