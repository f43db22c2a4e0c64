#include "circuit/gate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "testing/param_printers.h"

namespace qkc {
namespace {

class GateUnitaryTest : public ::testing::TestWithParam<GateKind> {};

TEST_P(GateUnitaryTest, UnitaryIsUnitary)
{
    GateKind kind = GetParam();
    std::vector<std::size_t> qubits;
    switch (kind) {
      case GateKind::CNOT:
      case GateKind::CZ:
      case GateKind::SWAP:
      case GateKind::CRz:
      case GateKind::CPhase:
      case GateKind::ZZ:
        qubits = {0, 1};
        break;
      case GateKind::CCX:
      case GateKind::CCZ:
      case GateKind::CSWAP:
        qubits = {0, 1, 2};
        break;
      default:
        qubits = {0};
        break;
    }
    Gate g(kind, qubits, 0.37);
    EXPECT_TRUE(g.unitary().isUnitary()) << g.name();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, GateUnitaryTest,
    ::testing::Values(GateKind::I, GateKind::X, GateKind::Y, GateKind::Z,
                      GateKind::H, GateKind::S, GateKind::Sdg, GateKind::T,
                      GateKind::Tdg, GateKind::Rx, GateKind::Ry, GateKind::Rz,
                      GateKind::PhaseZ, GateKind::CNOT, GateKind::CZ,
                      GateKind::SWAP, GateKind::CRz, GateKind::CPhase,
                      GateKind::ZZ, GateKind::CCX, GateKind::CCZ,
                      GateKind::CSWAP));

TEST(GateTest, HadamardEntries)
{
    Gate h(GateKind::H, {0});
    Matrix u = h.unitary();
    double s = 1.0 / std::sqrt(2.0);
    EXPECT_TRUE(approxEqual(u(0, 0), Complex{s}));
    EXPECT_TRUE(approxEqual(u(1, 1), Complex{-s}));
}

TEST(GateTest, SdgIsInverseOfS)
{
    Matrix s = Gate(GateKind::S, {0}).unitary();
    Matrix sdg = Gate(GateKind::Sdg, {0}).unitary();
    EXPECT_TRUE((s * sdg).approxEqual(Matrix::identity(2)));
}

TEST(GateTest, TSquaredIsS)
{
    Matrix t = Gate(GateKind::T, {0}).unitary();
    Matrix s = Gate(GateKind::S, {0}).unitary();
    EXPECT_TRUE((t * t).approxEqual(s));
}

TEST(GateTest, RotationComposition)
{
    Matrix a = Gate(GateKind::Rz, {0}, 0.3).unitary();
    Matrix b = Gate(GateKind::Rz, {0}, 0.5).unitary();
    Matrix c = Gate(GateKind::Rz, {0}, 0.8).unitary();
    EXPECT_TRUE((a * b).approxEqual(c));
}

TEST(GateTest, RxAtPiIsMinusIX)
{
    Matrix rx = Gate(GateKind::Rx, {0}, M_PI).unitary();
    Matrix x = Gate(GateKind::X, {0}).unitary();
    const Complex minusI{0.0, -1.0};
    EXPECT_TRUE(rx.approxEqual(x * minusI));
}

TEST(GateTest, ZZIsDiagonalWithPhases)
{
    double theta = 0.7;
    Matrix zz = Gate(GateKind::ZZ, {0, 1}, theta).unitary();
    Complex em = std::exp(Complex{0.0, -theta / 2.0});
    Complex ep = std::exp(Complex{0.0, theta / 2.0});
    EXPECT_TRUE(approxEqual(zz(0, 0), em));
    EXPECT_TRUE(approxEqual(zz(1, 1), ep));
    EXPECT_TRUE(approxEqual(zz(2, 2), ep));
    EXPECT_TRUE(approxEqual(zz(3, 3), em));
    EXPECT_TRUE(approxEqual(zz(0, 1), Complex{}));
}

TEST(GateTest, CnotPermutation)
{
    Matrix u = Gate(GateKind::CNOT, {0, 1}).unitary();
    // |10> -> |11>
    EXPECT_TRUE(approxEqual(u(3, 2), Complex{1.0}));
    EXPECT_TRUE(approxEqual(u(2, 3), Complex{1.0}));
    EXPECT_TRUE(approxEqual(u(2, 2), Complex{}));
    EXPECT_TRUE(approxEqual(u(3, 3), Complex{}));
    EXPECT_TRUE(approxEqual(u(0, 0), Complex{1.0}));
    EXPECT_TRUE(approxEqual(u(1, 1), Complex{1.0}));
}

TEST(GateTest, CczPhasesOnlyAll1s)
{
    Matrix u = Gate(GateKind::CCZ, {0, 1, 2}).unitary();
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_TRUE(approxEqual(u(i, i), Complex{i == 7 ? -1.0 : 1.0}));
}

TEST(GateTest, CustomGateValidatesUnitarity)
{
    Matrix notUnitary{{1.0, 1.0}, {0.0, 1.0}};
    EXPECT_THROW(Gate::custom({0}, notUnitary), std::invalid_argument);

    Matrix x{{0.0, 1.0}, {1.0, 0.0}};
    Gate g = Gate::custom({0}, x, "myX");
    EXPECT_EQ(g.name(), "myX");
    EXPECT_TRUE(g.unitary().approxEqual(x));
}

TEST(GateTest, ArityValidation)
{
    EXPECT_THROW(Gate(GateKind::CNOT, {0}), std::invalid_argument);
    EXPECT_THROW(Gate(GateKind::H, {0, 1}), std::invalid_argument);
    EXPECT_THROW(Gate(GateKind::CNOT, {1, 1}), std::invalid_argument);
}

TEST(GateTest, IsParameterized)
{
    EXPECT_TRUE(Gate(GateKind::Rz, {0}, 0.1).isParameterized());
    EXPECT_TRUE(Gate(GateKind::ZZ, {0, 1}, 0.1).isParameterized());
    EXPECT_FALSE(Gate(GateKind::H, {0}).isParameterized());
    EXPECT_FALSE(Gate(GateKind::CNOT, {0, 1}).isParameterized());
}

TEST(GateTest, SetParamChangesUnitary)
{
    Gate g(GateKind::Rz, {0}, 0.1);
    Matrix before = g.unitary();
    g.setParam(0.9);
    EXPECT_FALSE(g.unitary().approxEqual(before));
}

} // namespace
} // namespace qkc
