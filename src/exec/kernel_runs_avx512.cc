/**
 * AVX-512 implementation of the contiguous-run kernel primitives: 512-bit
 * vectors holding four interleaved complex<double> amplitudes.
 *
 * AVX-512 has no `addsub`, so the subtraction in the complex multiply is
 * folded into the constant instead: the broadcast imaginary part carries a
 * negated copy in each real slot ([-ci, +ci, ...]), and the combine is a
 * plain add. (-b)*x is exactly -(b*x) and a + (-y) is exactly a - y in
 * IEEE-754, so the payload stays bit-identical to the scalar/AVX2 paths.
 * No FMA intrinsics, and the TU is compiled with -ffp-contract=off.
 *
 * Compiled with -mavx512f -mavx512dq only when the toolchain supports them;
 * otherwise the QKC_SIMD_AVX512 guard leaves just the null accessor.
 */
#include "exec/kernel_runs.h"

#if defined(QKC_SIMD_AVX512)

#include <immintrin.h>

namespace qkc {

namespace {

/** A complex constant broadcast across all four vector slots. */
struct BConst {
    __m512d re;    ///< [cr, cr, ...]
    __m512d negim; ///< [-ci, +ci, -ci, +ci, ...]
};

inline BConst
broadcast(const Complex& c)
{
    const double ci = c.imag();
    return {_mm512_set1_pd(c.real()),
            _mm512_setr_pd(-ci, ci, -ci, ci, -ci, ci, -ci, ci)};
}

/**
 * v * c for four interleaved complex amplitudes: the scalar four-product
 * form, with the real-slot subtraction carried by the negated constant.
 */
inline __m512d
cmulv(__m512d v, const BConst& c)
{
    const __m512d t1 = _mm512_mul_pd(v, c.re);
    const __m512d t2 = _mm512_mul_pd(_mm512_permute_pd(v, 0x55), c.negim);
    return _mm512_add_pd(t1, t2);
}

/**
 * a * b for four interleaved complex pairs, slot by slot: b's parts are
 * duplicated per slot and the real-slot product is negated by its sign
 * bit (exact), so the combine is a plain add as in cmulv.
 */
inline __m512d
cmulvv(__m512d a, __m512d b)
{
    const __m512d negReal =
        _mm512_setr_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
    const __m512d t1 = _mm512_mul_pd(a, _mm512_movedup_pd(b));
    const __m512d t2 = _mm512_mul_pd(_mm512_permute_pd(a, 0x55),
                                     _mm512_permute_pd(b, 0xFF));
    return _mm512_add_pd(t1, _mm512_xor_pd(t2, negReal));
}

inline Complex
cmul(const Complex& a, const Complex& b)
{
    return Complex(a.real() * b.real() - a.imag() * b.imag(),
                   a.real() * b.imag() + a.imag() * b.real());
}

void
scaleAvx512(Complex* a, std::uint64_t n, const Complex& s)
{
    const BConst c = broadcast(s);
    double* p = reinterpret_cast<double*>(a);
    std::uint64_t i = 0;
    for (; i + 4 <= n; i += 4, p += 8)
        _mm512_storeu_pd(p, cmulv(_mm512_loadu_pd(p), c));
    for (; i < n; ++i)
        a[i] = cmul(a[i], s);
}

void
diag2Avx512(Complex* a0, Complex* a1, std::uint64_t n, const Complex& d0,
            const Complex& d1)
{
    const BConst c0 = broadcast(d0);
    const BConst c1 = broadcast(d1);
    double* p0 = reinterpret_cast<double*>(a0);
    double* p1 = reinterpret_cast<double*>(a1);
    std::uint64_t i = 0;
    for (; i + 4 <= n; i += 4, p0 += 8, p1 += 8) {
        _mm512_storeu_pd(p0, cmulv(_mm512_loadu_pd(p0), c0));
        _mm512_storeu_pd(p1, cmulv(_mm512_loadu_pd(p1), c1));
    }
    for (; i < n; ++i) {
        a0[i] = cmul(a0[i], d0);
        a1[i] = cmul(a1[i], d1);
    }
}

void
diag4Avx512(Complex* a0, Complex* a1, Complex* a2, Complex* a3,
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
    for (; i + 4 <= n; i += 4, p0 += 8, p1 += 8, p2 += 8, p3 += 8) {
        _mm512_storeu_pd(p0, cmulv(_mm512_loadu_pd(p0), c0));
        _mm512_storeu_pd(p1, cmulv(_mm512_loadu_pd(p1), c1));
        _mm512_storeu_pd(p2, cmulv(_mm512_loadu_pd(p2), c2));
        _mm512_storeu_pd(p3, cmulv(_mm512_loadu_pd(p3), c3));
    }
    for (; i < n; ++i) {
        a0[i] = cmul(a0[i], d[0]);
        a1[i] = cmul(a1[i], d[1]);
        a2[i] = cmul(a2[i], d[2]);
        a3[i] = cmul(a3[i], d[3]);
    }
}

void
swap2Avx512(Complex* a0, Complex* a1, std::uint64_t n, const Complex& w0,
            const Complex& w1)
{
    const BConst c0 = broadcast(w0);
    const BConst c1 = broadcast(w1);
    double* p0 = reinterpret_cast<double*>(a0);
    double* p1 = reinterpret_cast<double*>(a1);
    std::uint64_t i = 0;
    for (; i + 4 <= n; i += 4, p0 += 8, p1 += 8) {
        const __m512d v0 = _mm512_loadu_pd(p0);
        const __m512d v1 = _mm512_loadu_pd(p1);
        _mm512_storeu_pd(p0, cmulv(v1, c0));
        _mm512_storeu_pd(p1, cmulv(v0, c1));
    }
    for (; i < n; ++i) {
        const Complex in0 = a0[i];
        a0[i] = cmul(w0, a1[i]);
        a1[i] = cmul(w1, in0);
    }
}

void
mat2Avx512(Complex* a0, Complex* a1, std::uint64_t n, const Complex* m)
{
    const BConst c00 = broadcast(m[0]);
    const BConst c01 = broadcast(m[1]);
    const BConst c10 = broadcast(m[2]);
    const BConst c11 = broadcast(m[3]);
    double* p0 = reinterpret_cast<double*>(a0);
    double* p1 = reinterpret_cast<double*>(a1);
    std::uint64_t i = 0;
    for (; i + 4 <= n; i += 4, p0 += 8, p1 += 8) {
        const __m512d x = _mm512_loadu_pd(p0);
        const __m512d y = _mm512_loadu_pd(p1);
        _mm512_storeu_pd(p0, _mm512_add_pd(cmulv(x, c00), cmulv(y, c01)));
        _mm512_storeu_pd(p1, _mm512_add_pd(cmulv(x, c10), cmulv(y, c11)));
    }
    for (; i < n; ++i) {
        const Complex x = a0[i];
        const Complex y = a1[i];
        a0[i] = cmul(m[0], x) + cmul(m[1], y);
        a1[i] = cmul(m[2], x) + cmul(m[3], y);
    }
}

void
mat4Avx512(Complex* a0, Complex* a1, Complex* a2, Complex* a3,
           std::uint64_t n, const Complex* m)
{
    BConst c[16];
    for (int e = 0; e < 16; ++e)
        c[e] = broadcast(m[e]);
    double* p[4] = {
        reinterpret_cast<double*>(a0), reinterpret_cast<double*>(a1),
        reinterpret_cast<double*>(a2), reinterpret_cast<double*>(a3)};
    std::uint64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m512d x0 = _mm512_loadu_pd(p[0]);
        const __m512d x1 = _mm512_loadu_pd(p[1]);
        const __m512d x2 = _mm512_loadu_pd(p[2]);
        const __m512d x3 = _mm512_loadu_pd(p[3]);
        for (int r = 0; r < 4; ++r) {
            // Same association as the scalar path: ((p0+p1)+p2)+p3.
            const __m512d acc = _mm512_add_pd(
                _mm512_add_pd(
                    _mm512_add_pd(cmulv(x0, c[4 * r]), cmulv(x1, c[4 * r + 1])),
                    cmulv(x2, c[4 * r + 2])),
                cmulv(x3, c[4 * r + 3]));
            _mm512_storeu_pd(p[r], acc);
            p[r] += 8;
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
mulAvx512(Complex* a, const Complex* b, std::uint64_t n)
{
    double* pa = reinterpret_cast<double*>(a);
    const double* pb = reinterpret_cast<const double*>(b);
    std::uint64_t i = 0;
    for (; i + 4 <= n; i += 4, pa += 8, pb += 8)
        _mm512_storeu_pd(pa,
                         cmulvv(_mm512_loadu_pd(pa), _mm512_loadu_pd(pb)));
    for (; i < n; ++i)
        a[i] = cmul(a[i], b[i]);
}

} // namespace

const KernelRunOps*
avx512RunOps()
{
    static const KernelRunOps ops = {
        SimdLevel::Avx512, scaleAvx512, diag2Avx512, diag4Avx512,
        swap2Avx512,       mat2Avx512,  mat4Avx512,  mulAvx512,
    };
    return &ops;
}

} // namespace qkc

#else // !QKC_SIMD_AVX512

namespace qkc {

const KernelRunOps*
avx512RunOps()
{
    return nullptr;
}

} // namespace qkc

#endif
