/**
 * AVX2 implementation of the contiguous-run kernel primitives: 256-bit
 * vectors holding two interleaved complex<double> amplitudes.
 *
 * Bit-parity with the scalar table is engineered, not hoped for: a complex
 * multiply is the same four products combined with one subtraction and one
 * addition (`vmulpd` x2 + `vaddsubpd`), never an FMA — the TU is compiled
 * with -ffp-contract=off and the FMA instruction sets banned outright
 * (-mno-fma -mno-avx512f, see src/exec/CMakeLists.txt) so the compiler
 * cannot contract either — and run tails shorter than a vector execute the
 * identical scalar expression.
 *
 * Compiled with -mavx2 only when the toolchain supports it (see
 * src/exec/CMakeLists.txt); otherwise the QKC_SIMD_AVX2 guard leaves just
 * the null accessor, and dispatch stays scalar.
 */
#include "exec/kernel_runs.h"

#if defined(QKC_SIMD_AVX2)

#include <immintrin.h>

namespace qkc {

namespace {

/** A complex constant broadcast across both vector slots. */
struct BConst {
    __m256d re;
    __m256d im;
};

inline BConst
broadcast(const Complex& c)
{
    return {_mm256_set1_pd(c.real()), _mm256_set1_pd(c.imag())};
}

/**
 * v * c for two interleaved complex amplitudes: per slot,
 * (ar*cr - ai*ci, ai*cr + ar*ci) — the scalar four-product form (the two
 * products per component are the same; IEEE addition commutes bitwise).
 */
inline __m256d
cmulv(__m256d v, const BConst& c)
{
    const __m256d t1 = _mm256_mul_pd(v, c.re);
    const __m256d t2 = _mm256_mul_pd(_mm256_permute_pd(v, 0x5), c.im);
    return _mm256_addsub_pd(t1, t2);
}

/** a * b for two interleaved complex pairs, slot by slot (as cmulv). */
inline __m256d
cmulvv(__m256d a, __m256d b)
{
    const __m256d t1 = _mm256_mul_pd(a, _mm256_movedup_pd(b));
    const __m256d t2 = _mm256_mul_pd(_mm256_permute_pd(a, 0x5),
                                     _mm256_permute_pd(b, 0xF));
    return _mm256_addsub_pd(t1, t2);
}

inline Complex
cmul(const Complex& a, const Complex& b)
{
    return Complex(a.real() * b.real() - a.imag() * b.imag(),
                   a.real() * b.imag() + a.imag() * b.real());
}

void
scaleAvx2(Complex* a, std::uint64_t n, const Complex& s)
{
    const BConst c = broadcast(s);
    double* p = reinterpret_cast<double*>(a);
    std::uint64_t i = 0;
    for (; i + 2 <= n; i += 2, p += 4)
        _mm256_storeu_pd(p, cmulv(_mm256_loadu_pd(p), c));
    for (; i < n; ++i)
        a[i] = cmul(a[i], s);
}

void
diag2Avx2(Complex* a0, Complex* a1, std::uint64_t n, const Complex& d0,
          const Complex& d1)
{
    const BConst c0 = broadcast(d0);
    const BConst c1 = broadcast(d1);
    double* p0 = reinterpret_cast<double*>(a0);
    double* p1 = reinterpret_cast<double*>(a1);
    std::uint64_t i = 0;
    for (; i + 2 <= n; i += 2, p0 += 4, p1 += 4) {
        _mm256_storeu_pd(p0, cmulv(_mm256_loadu_pd(p0), c0));
        _mm256_storeu_pd(p1, cmulv(_mm256_loadu_pd(p1), c1));
    }
    for (; i < n; ++i) {
        a0[i] = cmul(a0[i], d0);
        a1[i] = cmul(a1[i], d1);
    }
}

void
diag4Avx2(Complex* a0, Complex* a1, Complex* a2, Complex* a3,
          std::uint64_t n, const Complex* d)
{
    const BConst c0 = broadcast(d[0]);
    const BConst c1 = broadcast(d[1]);
    const BConst c2 = broadcast(d[2]);
    const BConst c3 = broadcast(d[3]);
    double* p0 = reinterpret_cast<double*>(a0);
    double* p1 = reinterpret_cast<double*>(a1);
    double* p2 = reinterpret_cast<double*>(a2);
    double* p3 = reinterpret_cast<double*>(a3);
    std::uint64_t i = 0;
    for (; i + 2 <= n; i += 2, p0 += 4, p1 += 4, p2 += 4, p3 += 4) {
        _mm256_storeu_pd(p0, cmulv(_mm256_loadu_pd(p0), c0));
        _mm256_storeu_pd(p1, cmulv(_mm256_loadu_pd(p1), c1));
        _mm256_storeu_pd(p2, cmulv(_mm256_loadu_pd(p2), c2));
        _mm256_storeu_pd(p3, cmulv(_mm256_loadu_pd(p3), c3));
    }
    for (; i < n; ++i) {
        a0[i] = cmul(a0[i], d[0]);
        a1[i] = cmul(a1[i], d[1]);
        a2[i] = cmul(a2[i], d[2]);
        a3[i] = cmul(a3[i], d[3]);
    }
}

void
swap2Avx2(Complex* a0, Complex* a1, std::uint64_t n, const Complex& w0,
          const Complex& w1)
{
    const BConst c0 = broadcast(w0);
    const BConst c1 = broadcast(w1);
    double* p0 = reinterpret_cast<double*>(a0);
    double* p1 = reinterpret_cast<double*>(a1);
    std::uint64_t i = 0;
    for (; i + 2 <= n; i += 2, p0 += 4, p1 += 4) {
        const __m256d v0 = _mm256_loadu_pd(p0);
        const __m256d v1 = _mm256_loadu_pd(p1);
        _mm256_storeu_pd(p0, cmulv(v1, c0));
        _mm256_storeu_pd(p1, cmulv(v0, c1));
    }
    for (; i < n; ++i) {
        const Complex in0 = a0[i];
        a0[i] = cmul(w0, a1[i]);
        a1[i] = cmul(w1, in0);
    }
}

void
mat2Avx2(Complex* a0, Complex* a1, std::uint64_t n, const Complex* m)
{
    const BConst c00 = broadcast(m[0]);
    const BConst c01 = broadcast(m[1]);
    const BConst c10 = broadcast(m[2]);
    const BConst c11 = broadcast(m[3]);
    double* p0 = reinterpret_cast<double*>(a0);
    double* p1 = reinterpret_cast<double*>(a1);
    std::uint64_t i = 0;
    // Unrolled 2x: two independent 256-bit lanes per stream overlap the
    // multiply/addsub latency chains (per-element arithmetic unchanged).
    for (; i + 4 <= n; i += 4, p0 += 8, p1 += 8) {
        const __m256d xa = _mm256_loadu_pd(p0);
        const __m256d xb = _mm256_loadu_pd(p0 + 4);
        const __m256d ya = _mm256_loadu_pd(p1);
        const __m256d yb = _mm256_loadu_pd(p1 + 4);
        _mm256_storeu_pd(p0, _mm256_add_pd(cmulv(xa, c00), cmulv(ya, c01)));
        _mm256_storeu_pd(p0 + 4,
                         _mm256_add_pd(cmulv(xb, c00), cmulv(yb, c01)));
        _mm256_storeu_pd(p1, _mm256_add_pd(cmulv(xa, c10), cmulv(ya, c11)));
        _mm256_storeu_pd(p1 + 4,
                         _mm256_add_pd(cmulv(xb, c10), cmulv(yb, c11)));
    }
    for (; i + 2 <= n; i += 2, p0 += 4, p1 += 4) {
        const __m256d x = _mm256_loadu_pd(p0);
        const __m256d y = _mm256_loadu_pd(p1);
        _mm256_storeu_pd(p0, _mm256_add_pd(cmulv(x, c00), cmulv(y, c01)));
        _mm256_storeu_pd(p1, _mm256_add_pd(cmulv(x, c10), cmulv(y, c11)));
    }
    for (; i < n; ++i) {
        const Complex x = a0[i];
        const Complex y = a1[i];
        a0[i] = cmul(m[0], x) + cmul(m[1], y);
        a1[i] = cmul(m[2], x) + cmul(m[3], y);
    }
}

void
mat4Avx2(Complex* a0, Complex* a1, Complex* a2, Complex* a3,
         std::uint64_t n, const Complex* m)
{
    BConst c[16];
    for (int e = 0; e < 16; ++e)
        c[e] = broadcast(m[e]);
    double* p[4] = {
        reinterpret_cast<double*>(a0), reinterpret_cast<double*>(a1),
        reinterpret_cast<double*>(a2), reinterpret_cast<double*>(a3)};
    std::uint64_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m256d x0 = _mm256_loadu_pd(p[0]);
        const __m256d x1 = _mm256_loadu_pd(p[1]);
        const __m256d x2 = _mm256_loadu_pd(p[2]);
        const __m256d x3 = _mm256_loadu_pd(p[3]);
        for (int r = 0; r < 4; ++r) {
            // Same association as the scalar path: ((p0+p1)+p2)+p3.
            const __m256d acc = _mm256_add_pd(
                _mm256_add_pd(
                    _mm256_add_pd(cmulv(x0, c[4 * r]), cmulv(x1, c[4 * r + 1])),
                    cmulv(x2, c[4 * r + 2])),
                cmulv(x3, c[4 * r + 3]));
            _mm256_storeu_pd(p[r], acc);
            p[r] += 4;
        }
    }
    for (; i < n; ++i) {
        const Complex x0 = a0[i];
        const Complex x1 = a1[i];
        const Complex x2 = a2[i];
        const Complex x3 = a3[i];
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
mulAvx2(Complex* a, const Complex* b, std::uint64_t n)
{
    double* pa = reinterpret_cast<double*>(a);
    const double* pb = reinterpret_cast<const double*>(b);
    std::uint64_t i = 0;
    for (; i + 2 <= n; i += 2, pa += 4, pb += 4)
        _mm256_storeu_pd(pa, cmulvv(_mm256_loadu_pd(pa), _mm256_loadu_pd(pb)));
    for (; i < n; ++i)
        a[i] = cmul(a[i], b[i]);
}

} // namespace

const KernelRunOps*
avx2RunOps()
{
    static const KernelRunOps ops = {
        SimdLevel::Avx2, scaleAvx2, diag2Avx2, diag4Avx2,
        swap2Avx2,       mat2Avx2,  mat4Avx2,  mulAvx2,
    };
    return &ops;
}

} // namespace qkc

#else // !QKC_SIMD_AVX2

namespace qkc {

const KernelRunOps*
avx2RunOps()
{
    return nullptr;
}

} // namespace qkc

#endif
