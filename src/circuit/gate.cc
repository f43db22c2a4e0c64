#include "circuit/gate.h"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>

namespace qkc {

namespace {

constexpr Complex kI{0.0, 1.0};

Matrix
rx(double theta)
{
    double c = std::cos(theta / 2.0);
    double s = std::sin(theta / 2.0);
    return Matrix{{c, -kI * s}, {-kI * s, c}};
}

Matrix
ry(double theta)
{
    double c = std::cos(theta / 2.0);
    double s = std::sin(theta / 2.0);
    return Matrix{{c, -s}, {s, c}};
}

Matrix
rz(double theta)
{
    Complex em = std::exp(-kI * (theta / 2.0));
    Complex ep = std::exp(kI * (theta / 2.0));
    return Matrix{{em, 0.0}, {0.0, ep}};
}

/** Embeds a single-qubit unitary as a controlled two-qubit unitary. */
Matrix
controlled(const Matrix& u)
{
    Matrix m = Matrix::identity(4);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            m(2 + i, 2 + j) = u(i, j);
    return m;
}

constexpr bool
tableInEnumOrder()
{
    for (std::size_t i = 0; i < std::size(kGateInfo); ++i)
        if (static_cast<std::size_t>(kGateInfo[i].kind) != i)
            return false;
    return std::size(kGateInfo) ==
           static_cast<std::size_t>(GateKind::Custom2Q) + 1;
}
static_assert(tableInEnumOrder(), "kGateInfo: one row per GateKind, in order");

} // namespace

Gate::Gate(GateKind kind, std::vector<std::size_t> qubits, double param)
    : kind_(kind), qubits_(std::move(qubits)), param_(param)
{
    if (qubits_.size() != gateInfo(kind_).arity)
        throw std::invalid_argument("Gate: wrong qubit count for kind");
    for (std::size_t i = 0; i < qubits_.size(); ++i)
        for (std::size_t j = i + 1; j < qubits_.size(); ++j)
            if (qubits_[i] == qubits_[j])
                throw std::invalid_argument("Gate: duplicate qubit operand");
}

Gate
Gate::custom(std::vector<std::size_t> qubits, Matrix unitary, std::string label)
{
    if (!unitary.isUnitary(1e-6))
        throw std::invalid_argument("Gate::custom: matrix is not unitary");
    GateKind kind;
    if (qubits.size() == 1 && unitary.rows() == 2) {
        kind = GateKind::Custom1Q;
    } else if (qubits.size() == 2 && unitary.rows() == 4) {
        kind = GateKind::Custom2Q;
    } else {
        throw std::invalid_argument("Gate::custom: size mismatch");
    }
    Gate g(kind, std::move(qubits));
    g.custom_ = std::move(unitary);
    g.label_ = std::move(label);
    return g;
}

Matrix
Gate::unitary() const
{
    const double invSqrt2 = 1.0 / std::sqrt(2.0);
    switch (kind_) {
      case GateKind::I:
        return Matrix::identity(2);
      case GateKind::X:
        return Matrix{{0.0, 1.0}, {1.0, 0.0}};
      case GateKind::Y:
        return Matrix{{0.0, -kI}, {kI, 0.0}};
      case GateKind::Z:
        return Matrix{{1.0, 0.0}, {0.0, -1.0}};
      case GateKind::H:
        return Matrix{{invSqrt2, invSqrt2}, {invSqrt2, -invSqrt2}};
      case GateKind::S:
        return Matrix{{1.0, 0.0}, {0.0, kI}};
      case GateKind::Sdg:
        return Matrix{{1.0, 0.0}, {0.0, -kI}};
      case GateKind::T:
        return Matrix{{1.0, 0.0}, {0.0, std::exp(kI * (M_PI / 4.0))}};
      case GateKind::Tdg:
        return Matrix{{1.0, 0.0}, {0.0, std::exp(-kI * (M_PI / 4.0))}};
      case GateKind::Rx:
        return rx(param_);
      case GateKind::Ry:
        return ry(param_);
      case GateKind::Rz:
        return rz(param_);
      case GateKind::PhaseZ:
        return Matrix{{1.0, 0.0}, {0.0, std::exp(kI * param_)}};
      case GateKind::CNOT:
        return Matrix{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}};
      case GateKind::CZ:
        return Matrix{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, -1}};
      case GateKind::SWAP:
        return Matrix{{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}};
      case GateKind::CRz:
        return controlled(rz(param_));
      case GateKind::CPhase:
        return controlled(Matrix{{1.0, 0.0}, {0.0, std::exp(kI * param_)}});
      case GateKind::ZZ: {
        Complex em = std::exp(-kI * (param_ / 2.0));
        Complex ep = std::exp(kI * (param_ / 2.0));
        return Matrix{{em, 0, 0, 0}, {0, ep, 0, 0}, {0, 0, ep, 0}, {0, 0, 0, em}};
      }
      case GateKind::CCX: {
        Matrix m = Matrix::identity(8);
        m(6, 6) = 0.0;
        m(6, 7) = 1.0;
        m(7, 7) = 0.0;
        m(7, 6) = 1.0;
        return m;
      }
      case GateKind::CCZ: {
        Matrix m = Matrix::identity(8);
        m(7, 7) = -1.0;
        return m;
      }
      case GateKind::CSWAP: {
        Matrix m = Matrix::identity(8);
        m(5, 5) = 0.0;
        m(5, 6) = 1.0;
        m(6, 6) = 0.0;
        m(6, 5) = 1.0;
        return m;
      }
      case GateKind::Custom1Q:
      case GateKind::Custom2Q:
        return custom_;
    }
    throw std::logic_error("Gate::unitary: unknown kind");
}

std::string
Gate::name() const
{
    const GateInfo& info = gateInfo(kind_);
    if (kind_ == GateKind::Custom1Q || kind_ == GateKind::Custom2Q)
        return label_.empty() ? info.name : label_;
    if (!info.parameterized)
        return info.name;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s(%.3f)", info.name, param_);
    return buf;
}

} // namespace qkc
