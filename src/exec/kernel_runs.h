#ifndef QKC_EXEC_KERNEL_RUNS_H
#define QKC_EXEC_KERNEL_RUNS_H

#include <cstdint>

#include "exec/simd.h"
#include "linalg/types.h"

namespace qkc {

/**
 * The contiguous-run primitives behind the cache-blocked kernel sweeps.
 *
 * applyKernel decomposes a sweep into *runs*: maximal spans of the free
 * index space whose base indices are consecutive (length 2^lowestOccupiedBit,
 * clipped to chunk boundaries). Within a run, the l-th amplitude of every
 * residual basis group lives at `a_l + i` for consecutive i, so the inner
 * loop is a unit-stride pass over 1, 2 or 4 parallel streams — the shape
 * wide registers want, and the shape that keeps both halves of a high-stride
 * amplitude pair resident while a block is processed.
 *
 * Contract shared by every implementation level: identical elementwise
 * arithmetic in identical order. A complex multiply is the four-product
 * form (ar*br - ai*bi, ar*bi + ai*br) with explicit mul/add — no FMA
 * contraction — and matrix-row accumulation is left-to-right starting from
 * the first product (no zero seed). Results are therefore bit-identical
 * across Scalar / Avx2 / Avx512, which is what lets `SimdMode::Off` serve as
 * the reference in the parity suite.
 *
 * Pointers may alias only as documented: the streams of one call are
 * disjoint (they differ by target-bit strides).
 */
struct KernelRunOps {
    SimdLevel level;

    /** a[i] *= s (GlobalPhase sweeps, 0-target diag runs). */
    void (*scale)(Complex* a, std::uint64_t n, const Complex& s);

    /** a0[i] *= d0; a1[i] *= d1 (1-target Diag). */
    void (*diag2)(Complex* a0, Complex* a1, std::uint64_t n,
                  const Complex& d0, const Complex& d1);

    /** al[i] *= dl for four streams (2-target Diag — the ZZ family). */
    void (*diag4)(Complex* a0, Complex* a1, Complex* a2, Complex* a3,
                  std::uint64_t n, const Complex* d);

    /** (a0, a1) <- (w0*a1, w1*a0) (1-target Perm — the X/CNOT family). */
    void (*swap2)(Complex* a0, Complex* a1, std::uint64_t n,
                  const Complex& w0, const Complex& w1);

    /** Dense 2x2: (a0, a1) <- (m0*a0 + m1*a1, m2*a0 + m3*a1), m row-major. */
    void (*mat2)(Complex* a0, Complex* a1, std::uint64_t n, const Complex* m);

    /** Dense 4x4 on four streams, m row-major (fused 2q kernels). */
    void (*mat4)(Complex* a0, Complex* a1, Complex* a2, Complex* a3,
                 std::uint64_t n, const Complex* m);

    /** a[i] *= b[i] (the DiagRun table sweep); a and b do not overlap. */
    void (*mul)(Complex* a, const Complex* b, std::uint64_t n);
};

/** The scalar table — always available, and the `SimdMode::Off` reference. */
const KernelRunOps& scalarRunOps();

/** Per-level tables; null when the build lacks the instruction set. */
const KernelRunOps* avx2RunOps();
const KernelRunOps* avx512RunOps();

/** The table for a resolved level (falls back toward scalar if absent). */
const KernelRunOps& kernelRunOps(SimdLevel level);

} // namespace qkc

#endif // QKC_EXEC_KERNEL_RUNS_H
