#include "circuit/gate.h"

#include <cassert>
#include <cmath>
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

} // namespace

Gate::Gate(GateKind kind, std::vector<std::size_t> qubits, double param)
    : kind_(kind), qubits_(std::move(qubits)), param_(param)
{
    std::size_t expected;
    switch (kind_) {
      case GateKind::CNOT:
      case GateKind::CZ:
      case GateKind::SWAP:
      case GateKind::CRz:
      case GateKind::CPhase:
      case GateKind::ZZ:
      case GateKind::Custom2Q:
        expected = 2;
        break;
      case GateKind::CCX:
      case GateKind::CCZ:
      case GateKind::CSWAP:
        expected = 3;
        break;
      default:
        expected = 1;
        break;
    }
    if (qubits_.size() != expected)
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

bool
Gate::isParameterized() const
{
    switch (kind_) {
      case GateKind::Rx:
      case GateKind::Ry:
      case GateKind::Rz:
      case GateKind::PhaseZ:
      case GateKind::CRz:
      case GateKind::CPhase:
      case GateKind::ZZ:
        return true;
      default:
        return false;
    }
}

bool
Gate::isDiagonal() const
{
    switch (kind_) {
      case GateKind::Z:
      case GateKind::S:
      case GateKind::Sdg:
      case GateKind::T:
      case GateKind::Tdg:
      case GateKind::Rz:
      case GateKind::PhaseZ:
      case GateKind::CZ:
      case GateKind::CRz:
      case GateKind::CPhase:
      case GateKind::ZZ:
        return true;
      default:
        return false;
    }
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
    auto withParam = [&](const char* base) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%s(%.3f)", base, param_);
        return std::string(buf);
    };
    switch (kind_) {
      case GateKind::I: return "I";
      case GateKind::X: return "X";
      case GateKind::Y: return "Y";
      case GateKind::Z: return "Z";
      case GateKind::H: return "H";
      case GateKind::S: return "S";
      case GateKind::Sdg: return "Sdg";
      case GateKind::T: return "T";
      case GateKind::Tdg: return "Tdg";
      case GateKind::Rx: return withParam("Rx");
      case GateKind::Ry: return withParam("Ry");
      case GateKind::Rz: return withParam("Rz");
      case GateKind::PhaseZ: return withParam("P");
      case GateKind::CNOT: return "CNOT";
      case GateKind::CZ: return "CZ";
      case GateKind::SWAP: return "SWAP";
      case GateKind::CRz: return withParam("CRz");
      case GateKind::CPhase: return withParam("CP");
      case GateKind::ZZ: return withParam("ZZ");
      case GateKind::CCX: return "CCX";
      case GateKind::CCZ: return "CCZ";
      case GateKind::CSWAP: return "CSWAP";
      case GateKind::Custom1Q:
      case GateKind::Custom2Q:
        return label_.empty() ? "U" : label_;
    }
    return "?";
}

} // namespace qkc
