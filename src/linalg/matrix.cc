#include "linalg/matrix.h"

#include <cassert>
#include <cmath>

namespace qkc {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<Complex>> init)
{
    rows_ = init.size();
    cols_ = rows_ ? init.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
        assert(row.size() == cols_);
        for (const auto& v : row)
            data_.push_back(v);
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::zero(std::size_t rows, std::size_t cols)
{
    return Matrix(rows, cols);
}

Matrix
Matrix::operator*(const Matrix& rhs) const
{
    assert(cols_ == rhs.rows_);
    Matrix out(rows_, rhs.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            Complex a = (*this)(i, k);
            if (a == Complex{})
                continue;
            for (std::size_t j = 0; j < rhs.cols_; ++j)
                out(i, j) += a * rhs(k, j);
        }
    }
    return out;
}

Matrix
Matrix::operator+(const Matrix& rhs) const
{
    assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] + rhs.data_[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix& rhs) const
{
    assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] - rhs.data_[i];
    return out;
}

Matrix
Matrix::operator*(const Complex& scalar) const
{
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] * scalar;
    return out;
}

Matrix
Matrix::adjoint() const
{
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            out(j, i) = std::conj((*this)(i, j));
    return out;
}

Matrix
Matrix::kron(const Matrix& rhs) const
{
    Matrix out(rows_ * rhs.rows_, cols_ * rhs.cols_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            for (std::size_t k = 0; k < rhs.rows_; ++k)
                for (std::size_t l = 0; l < rhs.cols_; ++l)
                    out(i * rhs.rows_ + k, j * rhs.cols_ + l) =
                        (*this)(i, j) * rhs(k, l);
    return out;
}

Complex
Matrix::trace() const
{
    assert(rows_ == cols_);
    Complex t{};
    for (std::size_t i = 0; i < rows_; ++i)
        t += (*this)(i, i);
    return t;
}

bool
Matrix::approxEqual(const Matrix& rhs, double eps) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        return false;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        if (!qkc::approxEqual(data_[i], rhs.data_[i], eps))
            return false;
    }
    return true;
}

bool
Matrix::isUnitary(double eps) const
{
    if (rows_ != cols_)
        return false;
    return ((*this) * adjoint()).approxEqual(identity(rows_), eps);
}

} // namespace qkc
