#ifndef QKC_LINALG_MATRIX_H
#define QKC_LINALG_MATRIX_H

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "linalg/types.h"

namespace qkc {

/**
 * Dense row-major complex matrix.
 *
 * Sized for quantum gate unitaries (2x2, 4x4, 8x8) and small density
 * matrices in tests; not a general-purpose BLAS. Operations that the
 * simulators need — multiply, adjoint, Kronecker product, unitarity checks,
 * and the "one non-zero entry per row and column" permutation property the
 * Bayesian network encoding relies on (Section 3.1.1) — are provided.
 */
class Matrix {
  public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols);
    Matrix(std::initializer_list<std::initializer_list<Complex>> init);

    static Matrix identity(std::size_t n);
    static Matrix zero(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    Complex& operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    const Complex& operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    Matrix operator*(const Matrix& rhs) const;
    Matrix operator+(const Matrix& rhs) const;
    Matrix operator-(const Matrix& rhs) const;
    Matrix operator*(const Complex& scalar) const;

    /** Conjugate transpose. */
    Matrix adjoint() const;

    /** Kronecker (tensor) product this (x) rhs. */
    Matrix kron(const Matrix& rhs) const;

    /** Sum of diagonal entries. */
    Complex trace() const;

    bool approxEqual(const Matrix& rhs, double eps = kAmpEps) const;

    /** True if this * adjoint() == identity within eps. */
    bool isUnitary(double eps = kAmpEps) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Complex> data_;
};

} // namespace qkc

#endif // QKC_LINALG_MATRIX_H
