#include "densitymatrix/density_matrix.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace qkc {

namespace {

std::size_t
checkedDimension(std::size_t numQubits)
{
    if (numQubits == 0 || numQubits > 14)
        throw std::invalid_argument("DensityMatrix: qubit count out of range");
    return std::size_t{1} << numQubits;
}

Matrix
conjugated(const Matrix& m)
{
    Matrix c(m.rows(), m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t col = 0; col < m.cols(); ++col)
            c(r, col) = std::conj(m(r, col));
    return c;
}

/**
 * The Liouville superoperator S = sum_k E_k (x) conj(E_k) of a channel:
 * vec(sum_k E_k rho E_k^dagger) = S vec(rho) for row-major vec, so one
 * kernel on the channel's row and column bits applies the whole channel.
 */
Matrix
liouville(const std::vector<Matrix>& kraus)
{
    assert(!kraus.empty());
    const std::size_t d = kraus[0].rows();
    Matrix s = Matrix::zero(d * d, d * d);
    for (const Matrix& e : kraus)
        s = s + e.kron(conjugated(e));
    return s;
}

} // namespace

DensityMatrix::DensityMatrix(std::size_t numQubits)
    : numQubits_(numQubits), dim_(checkedDimension(numQubits)),
      data_(dim_ * dim_)
{
    data_[0] = 1.0;
}

void
DensityMatrix::reset()
{
    std::fill(data_.begin(), data_.end(), Complex{});
    data_[0] = 1.0;
}

DensityMatrix::SuperKernel
DensityMatrix::compileSuperKernel(const Matrix& m,
                                  const std::vector<std::size_t>& qubits,
                                  std::size_t numQubits)
{
    std::vector<std::uint32_t> rowBits, colBits;
    rowBits.reserve(qubits.size());
    colBits.reserve(qubits.size());
    for (std::size_t q : qubits) {
        assert(q < numQubits);
        const std::uint32_t s =
            static_cast<std::uint32_t>(numQubits - 1 - q);
        rowBits.push_back(s + static_cast<std::uint32_t>(numQubits));
        colBits.push_back(s);
    }
    // (rho M^dagger)(., c) = sum_k rho(., k) conj(M(c, k)): the column-space
    // operator is the elementwise conjugate of M (no transpose).
    return SuperKernel{compileKernel(m, rowBits),
                       compileKernel(conjugated(m), colBits)};
}

bool
DensityMatrix::tryRefreshSuperKernel(SuperKernel& k, const Matrix& m)
{
    return tryRefreshKernel(k.left, m) &&
           tryRefreshKernel(k.right, conjugated(m));
}

void
DensityMatrix::applySuper(const SuperKernel& k)
{
    const std::uint64_t flatDim = static_cast<std::uint64_t>(dim_) * dim_;
    applyKernel(k.left, data_.data(), flatDim, policy_);
    applyKernel(k.right, data_.data(), flatDim, policy_);
}

void
DensityMatrix::applyUnitary(const Matrix& u,
                            const std::vector<std::size_t>& qubits)
{
    applySuper(compileSuperKernel(u, qubits, numQubits_));
}

void
DensityMatrix::applyUnitarySingle(const Matrix& u, std::size_t qubit)
{
    applyUnitary(u, {qubit});
}

void
DensityMatrix::applyUnitaryTwo(const Matrix& u, std::size_t q0, std::size_t q1)
{
    applyUnitary(u, {q0, q1});
}

void
DensityMatrix::applyUnitaryThree(const Matrix& u, std::size_t q0,
                                 std::size_t q1, std::size_t q2)
{
    applyUnitary(u, {q0, q1, q2});
}

GateKernel
DensityMatrix::compileChannelKernel(const std::vector<Matrix>& kraus,
                                    const std::vector<std::size_t>& qubits,
                                    std::size_t numQubits)
{
    // Row bits first, then column bits — the same local order as the
    // factors of E (x) conj(E), so the kernel's local index is (r, c).
    std::vector<std::uint32_t> bits;
    bits.reserve(2 * qubits.size());
    for (std::size_t q : qubits) {
        assert(q < numQubits);
        bits.push_back(static_cast<std::uint32_t>(2 * numQubits - 1 - q));
    }
    for (std::size_t q : qubits)
        bits.push_back(static_cast<std::uint32_t>(numQubits - 1 - q));
    return compileKernel(liouville(kraus), bits);
}

bool
DensityMatrix::tryRefreshChannelKernel(GateKernel& k,
                                       const std::vector<Matrix>& kraus)
{
    return tryRefreshKernel(k, liouville(kraus));
}

void
DensityMatrix::applyChannelKernel(const GateKernel& k)
{
    const std::uint64_t flatDim = static_cast<std::uint64_t>(dim_) * dim_;
    applyKernel(k, data_.data(), flatDim, policy_);
}

void
DensityMatrix::applyChannelSingle(const std::vector<Matrix>& kraus,
                                  std::size_t qubit)
{
    applyChannel(kraus, {qubit});
}

void
DensityMatrix::applyChannel(const std::vector<Matrix>& kraus,
                            const std::vector<std::size_t>& qubits)
{
    applyChannelKernel(compileChannelKernel(kraus, qubits, numQubits_));
}

Complex
DensityMatrix::trace() const
{
    Complex t{};
    for (std::uint64_t i = 0; i < dim_; ++i)
        t += at(i, i);
    return t;
}

std::vector<double>
DensityMatrix::diagonalProbabilities() const
{
    std::vector<double> probs(dim_);
    for (std::uint64_t i = 0; i < dim_; ++i)
        probs[i] = at(i, i).real();
    return probs;
}

Matrix
DensityMatrix::toMatrix() const
{
    Matrix m(dim_, dim_);
    for (std::uint64_t r = 0; r < dim_; ++r)
        for (std::uint64_t c = 0; c < dim_; ++c)
            m(r, c) = at(r, c);
    return m;
}

} // namespace qkc
