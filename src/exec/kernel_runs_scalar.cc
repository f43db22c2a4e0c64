/**
 * Scalar reference implementation of the contiguous-run kernel primitives.
 * This is both the portable fallback and the `SimdMode::Off` half of the
 * bit-parity contract: the vector levels reproduce exactly these
 * elementwise operations (same products, same addition order), so their
 * results are bit-identical to this file's.
 */
#include "exec/kernel_runs.h"

namespace qkc {

namespace {

/**
 * The four-product complex multiply, written out so every dispatch level
 * shares one arithmetic shape: (ar*br - ai*bi, ar*bi + ai*br). This is the
 * same expression std::complex<double>::operator* evaluates for finite
 * operands; spelling it explicitly keeps the compiler from substituting a
 * different association on any one path.
 */
inline Complex
cmul(const Complex& a, const Complex& b)
{
    return Complex(a.real() * b.real() - a.imag() * b.imag(),
                   a.real() * b.imag() + a.imag() * b.real());
}

void
scaleScalar(Complex* a, std::uint64_t n, const Complex& s)
{
    for (std::uint64_t i = 0; i < n; ++i)
        a[i] = cmul(a[i], s);
}

void
diag2Scalar(Complex* a0, Complex* a1, std::uint64_t n, const Complex& d0,
            const Complex& d1)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        a0[i] = cmul(a0[i], d0);
        a1[i] = cmul(a1[i], d1);
    }
}

void
diag4Scalar(Complex* a0, Complex* a1, Complex* a2, Complex* a3,
            std::uint64_t n, const Complex* d)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        a0[i] = cmul(a0[i], d[0]);
        a1[i] = cmul(a1[i], d[1]);
        a2[i] = cmul(a2[i], d[2]);
        a3[i] = cmul(a3[i], d[3]);
    }
}

void
swap2Scalar(Complex* a0, Complex* a1, std::uint64_t n, const Complex& w0,
            const Complex& w1)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const Complex in0 = a0[i];
        a0[i] = cmul(w0, a1[i]);
        a1[i] = cmul(w1, in0);
    }
}

void
mat2Scalar(Complex* a0, Complex* a1, std::uint64_t n, const Complex* m)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const Complex x = a0[i];
        const Complex y = a1[i];
        a0[i] = cmul(m[0], x) + cmul(m[1], y);
        a1[i] = cmul(m[2], x) + cmul(m[3], y);
    }
}

void
mat4Scalar(Complex* a0, Complex* a1, Complex* a2, Complex* a3,
           std::uint64_t n, const Complex* m)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const Complex x0 = a0[i];
        const Complex x1 = a1[i];
        const Complex x2 = a2[i];
        const Complex x3 = a3[i];
        // Left-to-right accumulation from the first product — the shared
        // association every level reproduces.
        a0[i] = ((cmul(m[0], x0) + cmul(m[1], x1)) + cmul(m[2], x2)) +
                cmul(m[3], x3);
        a1[i] = ((cmul(m[4], x0) + cmul(m[5], x1)) + cmul(m[6], x2)) +
                cmul(m[7], x3);
        a2[i] = ((cmul(m[8], x0) + cmul(m[9], x1)) + cmul(m[10], x2)) +
                cmul(m[11], x3);
        a3[i] = ((cmul(m[12], x0) + cmul(m[13], x1)) + cmul(m[14], x2)) +
                cmul(m[15], x3);
    }
}

void
mulScalar(Complex* a, const Complex* b, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        a[i] = cmul(a[i], b[i]);
}

} // namespace

const KernelRunOps&
scalarRunOps()
{
    static const KernelRunOps ops = {
        SimdLevel::Scalar, scaleScalar, diag2Scalar, diag4Scalar,
        swap2Scalar,       mat2Scalar,  mat4Scalar,  mulScalar,
    };
    return ops;
}

const KernelRunOps&
kernelRunOps(SimdLevel level)
{
    if (level == SimdLevel::Avx512) {
        if (const KernelRunOps* ops = avx512RunOps())
            return *ops;
        level = SimdLevel::Avx2;
    }
    if (level == SimdLevel::Avx2) {
        if (const KernelRunOps* ops = avx2RunOps())
            return *ops;
    }
    return scalarRunOps();
}

} // namespace qkc
