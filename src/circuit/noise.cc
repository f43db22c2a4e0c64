#include "circuit/noise.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>

namespace qkc {

namespace {

constexpr Complex kI{0.0, 1.0};

Matrix
pauliX()
{
    return Matrix{{0.0, 1.0}, {1.0, 0.0}};
}

Matrix
pauliY()
{
    return Matrix{{0.0, -kI}, {kI, 0.0}};
}

Matrix
pauliZ()
{
    return Matrix{{1.0, 0.0}, {0.0, -1.0}};
}

/** The Kraus operators of `kind` at `a` (counts and ranges checked). */
std::vector<Matrix>
krausOf(NoiseKind kind, const std::vector<double>& a)
{
    const Matrix id = Matrix::identity(2);
    switch (kind) {
      case NoiseKind::BitFlip:
        return {id * std::sqrt(1.0 - a[0]), pauliX() * std::sqrt(a[0])};
      case NoiseKind::PhaseFlip:
        return {id * std::sqrt(1.0 - a[0]), pauliZ() * std::sqrt(a[0])};
      case NoiseKind::Depolarizing:
        return {id * std::sqrt(1.0 - a[0]), pauliX() * std::sqrt(a[0] / 3.0),
                pauliY() * std::sqrt(a[0] / 3.0),
                pauliZ() * std::sqrt(a[0] / 3.0)};
      case NoiseKind::AsymmetricDepolarizing: {
        const double p0 = 1.0 - a[0] - a[1] - a[2];
        if (p0 < 0.0)
            throw std::invalid_argument("adepolarizing: pX+pY+pZ > 1");
        return {id * std::sqrt(p0), pauliX() * std::sqrt(a[0]),
                pauliY() * std::sqrt(a[1]), pauliZ() * std::sqrt(a[2])};
      }
      case NoiseKind::AmplitudeDamping:
        return {Matrix{{1.0, 0.0}, {0.0, std::sqrt(1.0 - a[0])}},
                Matrix{{0.0, std::sqrt(a[0])}, {0.0, 0.0}}};
      case NoiseKind::PhaseDamping:
        return {Matrix{{1.0, 0.0}, {0.0, std::sqrt(1.0 - a[0])}},
                Matrix{{0.0, 0.0}, {0.0, std::sqrt(a[0])}}};
      case NoiseKind::GeneralizedAmplitudeDamping: {
        const double gamma = a[0], sp = std::sqrt(a[1]),
                     sq = std::sqrt(1.0 - a[1]);
        return {Matrix{{1.0, 0.0}, {0.0, std::sqrt(1.0 - gamma)}} * sp,
                Matrix{{0.0, std::sqrt(gamma)}, {0.0, 0.0}} * sp,
                Matrix{{std::sqrt(1.0 - gamma), 0.0}, {0.0, 1.0}} * sq,
                Matrix{{0.0, 0.0}, {std::sqrt(gamma), 0.0}} * sq};
      }
      case NoiseKind::TwoQubitDepolarizing: {
        const Matrix paulis[4] = {id, pauliX(), pauliY(), pauliZ()};
        std::vector<Matrix> kraus;
        kraus.reserve(16);
        kraus.push_back(Matrix::identity(4) * std::sqrt(1.0 - a[0]));
        for (int i = 1; i < 16; ++i)
            kraus.push_back(paulis[i / 4].kron(paulis[i % 4]) *
                            std::sqrt(a[0] / 15.0));
        return kraus;
      }
    }
    throw std::logic_error("NoiseChannel: unknown kind");
}

#ifndef NDEBUG
/** Verifies the completeness relation sum_k E_k^dagger E_k == I. */
bool
isComplete(const std::vector<Matrix>& kraus)
{
    Matrix acc = Matrix::zero(kraus[0].cols(), kraus[0].cols());
    for (const Matrix& e : kraus)
        acc = acc + e.adjoint() * e;
    return acc.approxEqual(Matrix::identity(acc.rows()), 1e-8);
}
#endif

constexpr bool
tableInEnumOrder()
{
    for (std::size_t i = 0; i < std::size(kNoiseInfo); ++i)
        if (static_cast<std::size_t>(kNoiseInfo[i].kind) != i ||
            kNoiseInfo[i].params > NoiseParams{}.values.size())
            return false;
    return std::size(kNoiseInfo) ==
           static_cast<std::size_t>(NoiseKind::TwoQubitDepolarizing) + 1;
}
static_assert(tableInEnumOrder(),
              "kNoiseInfo: one row per NoiseKind, in order, params fit");

} // namespace

NoiseChannel
NoiseChannel::make(NoiseKind kind, const std::vector<std::size_t>& qubits,
                   const std::vector<double>& params)
{
    const NoiseInfo& info = noiseInfo(kind);
    if (qubits.size() != info.qubits || params.size() != info.params)
        throw std::invalid_argument(
            std::string(info.tag) + " takes " + std::to_string(info.qubits) +
            " qubit(s) and " + std::to_string(info.params) +
            " parameter(s)");
    if (qubits.size() == 2 && qubits[0] == qubits[1])
        throw std::invalid_argument(std::string(info.tag) +
                                    ": distinct qubits");
    for (double p : params)
        if (!(p >= 0.0 && p <= 1.0))
            throw std::invalid_argument(std::string(info.tag) +
                                        ": probability out of [0, 1]");
    NoiseChannel ch;
    ch.kind_ = kind;
    ch.qubits_ = qubits;
    ch.kraus_ = krausOf(kind, params);
    std::copy(params.begin(), params.end(), ch.params_.values.begin());
    ch.params_.count = params.size();
    assert(isComplete(ch.kraus_));
    return ch;
}

NoiseChannel
NoiseChannel::bitFlip(std::size_t qubit, double p)
{
    return make(NoiseKind::BitFlip, {qubit}, {p});
}

NoiseChannel
NoiseChannel::phaseFlip(std::size_t qubit, double p)
{
    return make(NoiseKind::PhaseFlip, {qubit}, {p});
}

NoiseChannel
NoiseChannel::depolarizing(std::size_t qubit, double p)
{
    return make(NoiseKind::Depolarizing, {qubit}, {p});
}

NoiseChannel
NoiseChannel::asymmetricDepolarizing(std::size_t qubit, double pX, double pY,
                                     double pZ)
{
    return make(NoiseKind::AsymmetricDepolarizing, {qubit}, {pX, pY, pZ});
}

NoiseChannel
NoiseChannel::amplitudeDamping(std::size_t qubit, double gamma)
{
    return make(NoiseKind::AmplitudeDamping, {qubit}, {gamma});
}

NoiseChannel
NoiseChannel::phaseDamping(std::size_t qubit, double gamma)
{
    return make(NoiseKind::PhaseDamping, {qubit}, {gamma});
}

NoiseChannel
NoiseChannel::generalizedAmplitudeDamping(std::size_t qubit, double gamma,
                                          double p)
{
    return make(NoiseKind::GeneralizedAmplitudeDamping, {qubit}, {gamma, p});
}

NoiseChannel
NoiseChannel::twoQubitDepolarizing(std::size_t qubitA, std::size_t qubitB,
                                   double p)
{
    return make(NoiseKind::TwoQubitDepolarizing, {qubitA, qubitB}, {p});
}

bool
NoiseChannel::isMixture() const
{
    // E is a scaled unitary iff E^dagger E is a non-negative multiple of I.
    for (const Matrix& e : kraus_) {
        Matrix m = e.adjoint() * e;
        Complex scale = m(0, 0);
        Matrix scaled = Matrix::identity(m.rows()) * scale;
        if (!m.approxEqual(scaled, 1e-9))
            return false;
    }
    return true;
}

std::string
NoiseChannel::name() const
{
    std::string s = noiseInfo(kind_).name;
    char buf[32];
    for (std::size_t i = 0; i < params_.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.4g", params_[i]);
        s += (i ? "," : "(");
        s += buf;
    }
    return s + ")";
}

} // namespace qkc
