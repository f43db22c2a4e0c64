#include "statevector/state_vector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace qkc {

namespace {

std::size_t
checkedDimension(std::size_t numQubits)
{
    if (numQubits == 0 || numQubits > 30)
        throw std::invalid_argument("StateVector: qubit count out of range");
    return std::size_t{1} << numQubits;
}

} // namespace

StateVector::StateVector(std::size_t numQubits, const ExecPolicy& policy)
    : numQubits_(numQubits), amps_(checkedDimension(numQubits)),
      policy_(policy)
{
    reset();
}

void
StateVector::reset()
{
    Complex* amps = amps_.data();
    parallelFor(policy_, amps_.size(),
                [amps](std::uint64_t b, std::uint64_t e) {
        std::fill(amps + b, amps + e, Complex{0.0, 0.0});
    });
    amps[0] = 1.0;
}

void
StateVector::applySingleQubit(const Matrix& m, std::size_t qubit)
{
    assert(m.rows() == 2 && m.cols() == 2 && qubit < numQubits_);
    apply(compileKernel(m, {bitOf(qubit)}));
}

void
StateVector::applyTwoQubit(const Matrix& m, std::size_t q0, std::size_t q1)
{
    assert(m.rows() == 4 && m.cols() == 4);
    assert(q0 < numQubits_ && q1 < numQubits_ && q0 != q1);
    apply(compileKernel(m, {bitOf(q0), bitOf(q1)}));
}

void
StateVector::apply(const GateKernel& kernel)
{
    applyKernel(kernel, amps_.data(), amps_.size(), policy_);
}

double
StateVector::normAfter(const GateKernel& kernel) const
{
    return normAfterKernel(kernel, amps_.data(), amps_.size(), policy_);
}

double
StateVector::norm() const
{
    return parallelSum(policy_, amps_.size(),
                       [this](std::uint64_t b, std::uint64_t e) {
        double partial = 0.0;
        for (std::uint64_t i = b; i < e; ++i)
            partial += norm2(amps_[i]);
        return partial;
    });
}

void
StateVector::normalize()
{
    double n = norm();
    assert(n > 0.0);
    const double inv = 1.0 / std::sqrt(n);
    parallelFor(policy_, amps_.size(),
                [this, inv](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i)
            amps_[i] *= inv;
    });
}

std::vector<double>
StateVector::probabilities() const
{
    std::vector<double> probs(amps_.size());
    parallelFor(policy_, amps_.size(),
                [this, &probs](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i)
            probs[i] = norm2(amps_[i]);
    });
    return probs;
}

} // namespace qkc
