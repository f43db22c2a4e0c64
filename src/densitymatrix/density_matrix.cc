#include "densitymatrix/density_matrix.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "exec/execution_plan.h"

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
    // s += e.kron(conjugated(e)) per operator, entry by entry in place.
    for (const Matrix& e : kraus)
        for (std::size_t i = 0; i < d; ++i)
            for (std::size_t j = 0; j < d; ++j)
                for (std::size_t k = 0; k < d; ++k)
                    for (std::size_t l = 0; l < d; ++l)
                        s(i * d + k, j * d + l) += e(i, j) * std::conj(e(k, l));
    return s;
}

/** Row bits (2n-1-q) and column bits (n-1-q) of `qubits` on rho's index. */
void
rhoBits(const std::vector<std::size_t>& qubits, std::size_t numQubits,
        std::vector<std::uint32_t>& rowBits,
        std::vector<std::uint32_t>& colBits)
{
    rowBits.reserve(qubits.size());
    colBits.reserve(qubits.size());
    for (std::size_t q : qubits) {
        assert(q < numQubits);
        const std::uint32_t s =
            static_cast<std::uint32_t>(numQubits - 1 - q);
        rowBits.push_back(s + static_cast<std::uint32_t>(numQubits));
        colBits.push_back(s);
    }
}

/** The left/right pair of rho <- M rho M^dagger: row kernel, column kernel. */
std::vector<GateKernel>
compileUnitary(const Matrix& m, const std::vector<std::size_t>& qubits,
               std::size_t numQubits)
{
    std::vector<std::uint32_t> rowBits, colBits;
    rhoBits(qubits, numQubits, rowBits, colBits);
    // (rho M^dagger)(., c) = sum_k rho(., k) conj(M(c, k)): the column-space
    // operator is the elementwise conjugate of M (no transpose).
    std::vector<GateKernel> kernels;
    kernels.reserve(2);
    kernels.push_back(compileKernel(m, rowBits));
    kernels.push_back(compileKernel(conjugated(m), colBits));
    return kernels;
}

/** A superoperator's one kernel on its row bits, then its column bits. */
GateKernel
compileSuperoperator(const Matrix& s, const std::vector<std::size_t>& qubits,
                     std::size_t numQubits)
{
    // Row bits first, then column bits — the same local order as the
    // factors of E (x) conj(E), so the kernel's local index is (r, c).
    std::vector<std::uint32_t> bits, colBits;
    rhoBits(qubits, numQubits, bits, colBits);
    bits.insert(bits.end(), colBits.begin(), colBits.end());
    return compileKernel(s, bits);
}

/** What a run applies to rho: the product of its ops, first-applied last. */
struct RunProduct {
    bool unitary = true; ///< every op is a gate; `m` is then their unitary
    Matrix m;            ///< the unitary product, or the superoperator
};

RunProduct
runProduct(const Circuit& circuit, const std::vector<std::size_t>& run)
{
    assert(!run.empty());
    const auto& ops = circuit.operations();
    RunProduct p;
    for (std::size_t i : run)
        p.unitary = p.unitary && std::holds_alternative<Gate>(ops[i]);
    for (std::size_t i : run) {
        Matrix f;
        if (const Gate* g = std::get_if<Gate>(&ops[i])) {
            f = g->unitary();
            if (!p.unitary)
                f = f.kron(conjugated(f));
        } else {
            f = liouville(std::get<NoiseChannel>(ops[i]).krausOperators());
        }
        p.m = p.m.rows() == 0 ? std::move(f) : f * p.m;
    }
    return p;
}

} // namespace

DensityMatrix::DensityMatrix(std::size_t numQubits)
    : numQubits_(numQubits), dim_(checkedDimension(numQubits)),
      data_(dim_ * dim_)
{
    reset();
}

void
DensityMatrix::reset()
{
    std::fill(data_.begin(), data_.end(), Complex{});
    data_[0] = 1.0;
}

std::vector<GateKernel>
DensityMatrix::compileRun(const Circuit& circuit,
                          const std::vector<std::size_t>& run)
{
    const std::size_t n = circuit.numQubits();
    const auto& qubits = operandsOf(circuit.operations()[run.front()]);
    const RunProduct p = runProduct(circuit, run);
    if (!p.unitary)
        return {compileSuperoperator(p.m, qubits, n)};
    if (qubits.size() > 1)
        return compileUnitary(p.m, qubits, n);
    // A 2-target Perm (X, Y, ...: U (x) conj(U) of an anti-diagonal U) has
    // no blocked-sweep primitive, but each kernel of its row/column pair
    // does, so such a run keeps the pair.
    GateKernel k =
        compileSuperoperator(p.m.kron(conjugated(p.m)), qubits, n);
    if (k.op == GateKernel::Op::Perm && k.targets > 1)
        return compileUnitary(p.m, qubits, n);
    return {std::move(k)};
}

std::vector<DiagFactor>
DensityMatrix::diagRunFactors(const Circuit& circuit,
                              const std::vector<std::size_t>& run)
{
    const std::size_t n = circuit.numQubits();
    std::vector<DiagFactor> factors;
    factors.reserve(2 * run.size());
    for (std::size_t i : run) {
        const Gate& g = std::get<Gate>(circuit.operations()[i]);
        std::vector<std::uint32_t> rowBits, colBits;
        rhoBits(g.qubits(), n, rowBits, colBits);
        factors.push_back(diagFactorOf(g, rowBits));
        DiagFactor col = diagFactorOf(g, colBits);
        for (Complex& d : col.diag)
            d = std::conj(d);
        factors.push_back(col);
    }
    return factors;
}

void
DensityMatrix::apply(const GateKernel& k)
{
    const std::uint64_t flatDim = static_cast<std::uint64_t>(dim_) * dim_;
    applyKernel(k, data_.data(), flatDim, policy_);
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

} // namespace qkc
